//! Thread-local, fine-grained performance instrumentation.
//!
//! The SPAA'16 study of practical wait-freedom rests on two fine-grained
//! metrics (paper §2.3): the **time an operation waits to acquire locks** and
//! the **number of times an operation restarts**. This crate provides the
//! plumbing every other crate reports through:
//!
//! * free functions ([`lock_wait`], [`restart`], [`op_boundary`], the
//!   `elide_*` family) backed by thread-local [`core::cell::Cell`] counters —
//!   a recorded event costs a few nanoseconds and never takes a lock;
//! * a log₂-bucketed [`LogHistogram`] for wait-time distributions and a
//!   per-operation restart histogram (paper §5.1 reports "2900 ops restarted
//!   once, 9 twice, none more");
//! * [`take_and_reset`] for the harness to snapshot a worker thread's counters
//!   at the end of a run;
//! * the delay-injection hook used by the "unresponsive threads" experiment
//!   (paper §5.4): instrumented lock guards call [`maybe_delay_in_cs`], and
//!   the harness arms a [`DelayPolicy`] that stalls the holder of a lock for
//!   1–100 µs every N-th critical section.
//!
//! Structures never talk to the harness directly; they only call into this
//! crate, which keeps the data-structure code free of benchmarking concerns.
//!
//! Since the observability layer landed, recording also feeds two live
//! surfaces:
//!
//! * the [`registry`] — every [`op_boundary`]-driven thread republishes its
//!   counters into a seqlock-stamped shared slot each
//!   [`registry::PUBLISH_PERIOD`] ops, so an observer can poll a consistent
//!   global aggregate mid-run (`repro watch`, Prometheus text exposition);
//! * [`trace`] — when armed, the rarer structural events (epoch advances,
//!   migrations, optimistic fallbacks, backpressure, stalls) are also
//!   recorded as timestamped events exportable to chrome://tracing.
//!
//! Building with the **`off` feature** compiles every recording function
//! down to a no-op — that is the "instrumentation compiled out" arm of the
//! `fig0_obs` overhead A/B.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

pub mod atomic;
pub mod hist;
pub mod registry;
pub mod table;
pub mod trace;

pub use hist::LogHistogram;
pub use trace::EventKind;

/// Number of exact buckets in the per-operation restart histogram.
/// `restart_hist[k]` counts operations that restarted exactly `k` times;
/// the last bucket accumulates everything at or beyond `RESTART_BUCKETS - 1`.
pub const RESTART_BUCKETS: usize = 16;

stat_table! {
    /// A complete snapshot of one thread's instrumentation counters.
    ///
    /// Produced by [`take_and_reset`]; aggregated across threads by the harness.
    /// Generated from the counter table below (see [`table`]): each row is one
    /// signal — field, merge rule, Prometheus name and help.
    pub struct StatsSnapshot, cells CounterCells;
    scalars {
        /// Total lock (or trylock-success) acquisitions.
        lock_acquires: sum, "csds_lock_acquires_total", "lock acquisitions";
        /// Acquisitions that did not succeed immediately (took the slow path).
        contended_acquires: sum, "csds_contended_acquires_total", "slow-path lock acquisitions";
        /// Total nanoseconds spent waiting for locks (slow path only).
        lock_wait_ns: sum, "csds_lock_wait_ns_total", "nanoseconds spent waiting for locks";
        /// Largest single wait, in nanoseconds.
        max_wait_ns: max, "csds_max_wait_ns", "largest single lock wait in nanoseconds";
        /// Total operation restarts (validation failures, failed trylocks, ...).
        restarts: sum, "csds_restarts_total", "operation restarts";
        /// Operations recorded through [`op_boundary`].
        ops: sum, "csds_ops_total", "operations completed";
        /// Operations that restarted at least once.
        ops_restarted: sum, "csds_ops_restarted_total", "operations that restarted at least once";
        /// Operations that restarted more than three times (paper Fig. 8 series).
        ops_restarted_gt3: sum, "csds_ops_restarted_gt3_total", "operations that restarted more than three times";
        /// Operations that waited for a lock at least once.
        ops_waited: sum, "csds_ops_waited_total", "operations that waited for a lock at least once";
        /// Speculative (elided) critical-section attempts.
        elide_attempts: sum, "csds_elide_attempts_total", "speculative critical-section attempts";
        /// Speculative sections that committed.
        elide_commits: sum, "csds_elide_commits_total", "speculative critical sections committed";
        /// Aborts due to data conflicts (validation failure / busy sequence lock).
        elide_aborts_conflict: sum, "csds_elide_aborts_conflict_total", "speculative aborts caused by data conflicts";
        /// Aborts due to (emulated) interrupts or preemption.
        elide_aborts_interrupt: sum, "csds_elide_aborts_interrupt_total", "speculative aborts caused by emulated interrupts";
        /// Critical sections that exhausted retries and took the real locks.
        elide_fallbacks: sum, "csds_elide_fallbacks_total", "critical sections that fell back to real locks";
        /// Delays injected by the active [`DelayPolicy`].
        injected_delays: sum, "csds_injected_delays_total", "lock-holder delays injected";
        /// Total injected delay time in nanoseconds.
        injected_delay_ns: sum, "csds_injected_delay_ns_total", "nanoseconds of injected lock-holder delay";
        /// Table migrations (resizes) started by this thread.
        resize_migrations_started: sum, "csds_resize_migrations_started_total", "elastic table migrations started";
        /// Table migrations whose final bucket this thread moved.
        resize_migrations_completed: sum, "csds_resize_migrations_completed_total", "elastic table migrations completed";
        /// Buckets this thread migrated from an old table to a new one.
        resize_buckets_moved: sum, "csds_resize_buckets_moved_total", "elastic buckets migrated";
        /// Fully drained old tables this thread retired through EBR.
        resize_tables_retired: sum, "csds_resize_tables_retired_total", "drained elastic tables retired through EBR";
        /// Optimistic (version-validated) read/RMW fast-path attempts.
        optimistic_attempts: sum, "csds_optimistic_attempts_total", "optimistic fast-path attempts";
        /// Optimistic attempts whose validation failed (torn by a writer).
        optimistic_failures: sum, "csds_optimistic_failures_total", "optimistic attempts whose validation failed";
        /// Operations that exhausted their optimistic retries and fell back to
        /// the pessimistic (locked) path.
        optimistic_fallbacks: sum, "csds_optimistic_fallbacks_total", "optimistic ops that fell back to locks";
        /// Session repins that went inert past the stall threshold
        /// (`MapHandle` held across another live guard — the PR 6 bug shape).
        repin_stalls: sum, "csds_repin_stalls_total", "session repin-stall detections";
        /// EBR global-epoch advances won by this thread.
        epoch_advances: sum, "csds_epoch_advances_total", "EBR global epoch advances";
        /// EBR collection passes run by this thread.
        ebr_collects: sum, "csds_ebr_collects_total", "EBR collection passes";
        /// Total nanoseconds this thread spent inside EBR collection passes.
        ebr_collect_ns: sum, "csds_ebr_collect_ns_total", "nanoseconds spent in EBR collection";
        /// Reclamation-watchdog firings: deferred garbage crossed the stall
        /// threshold without a collection running.
        ebr_stall_events: sum, "csds_ebr_stall_events_total", "reclamation watchdog firings";
        /// Service submissions rejected with `Busy` (ring full) by this thread.
        service_busy: sum, "csds_service_busy_total", "service submissions rejected with Busy";
        /// Service namespaces whose tables this thread created lazily.
        namespaces_created: sum, "csds_namespaces_created_total", "service namespace tables created lazily";
        /// Idle service namespaces whose tables this thread retired through EBR.
        namespaces_retired: sum, "csds_namespaces_retired_total", "idle service namespace tables retired through EBR";
        /// Operations rejected because their namespace hit its entry quota.
        quota_rejects: sum, "csds_quota_rejects_total", "operations rejected by a namespace entry quota";
        /// Priority-queue pushes completed (both PQ families).
        pq_pushes: sum, "csds_pq_pushes_total", "priority-queue pushes completed";
        /// Priority-queue pop-min operations that returned an element.
        pq_pops: sum, "csds_pq_pops_total", "priority-queue pop-min operations that returned an element";
        /// Failed pop-min attempts across contended pops (lost head races,
        /// failed mark CASes, locked-then-found-deleted restarts).
        pq_pop_contention: sum, "csds_pq_pop_contention_total", "failed pop-min attempts across contended pops";
    }
    hists {
        /// Distribution of individual waits (log₂ ns buckets).
        wait_hist;
    }
    arrays {
        /// `restart_hist[k]` = operations restarted exactly `k` times.
        restart_hist: RESTART_BUCKETS;
    }
}

impl StatsSnapshot {
    /// Fraction of optimistic fast-path attempts whose validation failed.
    pub fn optimistic_failure_fraction(&self) -> f64 {
        if self.optimistic_attempts == 0 {
            0.0
        } else {
            self.optimistic_failures as f64 / self.optimistic_attempts as f64
        }
    }

    /// Fraction of wall-clock time spent waiting for locks, given the run's
    /// per-thread duration (paper Figs. 5, 7, 8, 9, 10).
    pub fn wait_fraction(&self, per_thread_runtime: Duration, threads: usize) -> f64 {
        let total = per_thread_runtime.as_nanos() as f64 * threads as f64;
        if total == 0.0 {
            0.0
        } else {
            self.lock_wait_ns as f64 / total
        }
    }

    /// Fraction of operations that restarted at least once (paper Fig. 6).
    pub fn restart_fraction(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ops_restarted as f64 / self.ops as f64
        }
    }

    /// Fraction of operations that restarted more than three times (Fig. 8).
    pub fn repeated_restart_fraction(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ops_restarted_gt3 as f64 / self.ops as f64
        }
    }

    /// Fraction of critical sections that fell back to real lock acquisition,
    /// out of all completed critical sections (paper Table 2).
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.elide_commits + self.elide_fallbacks;
        if total == 0 {
            0.0
        } else {
            self.elide_fallbacks as f64 / total as f64
        }
    }
}

/// Specification for injected lock-holder delays (paper §5.4).
///
/// Every `every`-th instrumented critical section, the holder spins for a
/// uniformly random duration in `[min_ns, max_ns]` *while holding the lock*
/// (or inside the speculative section in elided mode).
#[derive(Clone, Copy, Debug)]
pub struct DelayPolicy {
    /// Inject on every `every`-th critical section (paper: every 10 updates).
    pub every: u32,
    /// Minimum injected delay, ns (paper: 1_000).
    pub min_ns: u64,
    /// Maximum injected delay, ns (paper: 100_000).
    pub max_ns: u64,
    /// Seed for the thread-local xorshift generator that picks durations.
    pub seed: u64,
}

impl DelayPolicy {
    /// The exact configuration of paper §5.4: 1–100 µs every 10th critical
    /// section.
    pub fn paper_unresponsive(seed: u64) -> Self {
        DelayPolicy {
            every: 10,
            min_ns: 1_000,
            max_ns: 100_000,
            seed,
        }
    }
}

struct DelayState {
    policy: DelayPolicy,
    countdown: u32,
    rng: u64,
}

/// Cache-line aligned (128 bytes) so one thread's hot counters never share
/// a line with whatever the allocator placed next to its TLS block —
/// recording an event must stay a purely local store.
#[repr(align(128))]
struct Recorder {
    /// One plain cell per row of the counter table.
    c: CounterCells,
    // Per-operation scratch state, folded in by `op_boundary`. One word:
    // bit 31 is the waited flag, the low 31 bits count restarts — so the
    // (overwhelmingly common) clean op costs `op_boundary` a single
    // load/store/test instead of two.
    cur_op: Cell<u32>,
    delay: RefCell<Option<DelayState>>,
    // Mirror of `delay.is_some()`, readable without the `RefCell` borrow
    // round-trip: `maybe_delay_in_cs` runs on every instrumented critical
    // section, and with no policy armed (the overwhelmingly common case) it
    // must cost one load and one predictable branch.
    delay_armed: Cell<bool>,
}

/// Bit 31 of [`Recorder::cur_op`]: the current operation waited on a lock at
/// least once. The low 31 bits count its restarts (a single op cannot
/// plausibly restart 2^31 times, so the flag bit is safe from carry).
const CUR_OP_WAITED: u32 = 1 << 31;

impl Recorder {
    const fn new() -> Self {
        Recorder {
            c: CounterCells::new(),
            cur_op: Cell::new(0),
            delay: RefCell::new(None),
            delay_armed: Cell::new(false),
        }
    }

    /// Bucket 0 of the restart histogram is not maintained on the hot path
    /// (see `op_boundary`); materialize it so snapshots stay a complete
    /// per-op histogram: completed ops that never restarted.
    fn complete(mut snap: StatsSnapshot) -> StatsSnapshot {
        snap.restart_hist[0] = snap.ops - snap.ops_restarted;
        snap
    }

    /// Copy the current counters into a snapshot **without** resetting —
    /// what the registry publishes mid-run.
    fn peek(&self) -> StatsSnapshot {
        Self::complete(self.c.peek())
    }

    /// Snapshot and clear every counter (the body of [`take_and_reset`],
    /// shared with the thread-exit drain).
    fn take(&self) -> StatsSnapshot {
        Self::complete(self.c.take())
    }
}

thread_local! {
    static RECORDER: Recorder = const { Recorder::new() };
}

/// Add `n` to one cell of the counter table — the whole body of every
/// single-counter recording function (compiled out under the `off` feature).
#[inline]
fn count(cell: impl FnOnce(&CounterCells) -> &Cell<u64>, n: u64) {
    if cfg!(feature = "off") {
        return;
    }
    RECORDER.with(|r| {
        let c = cell(&r.c);
        c.set(c.get() + n);
    });
}

/// Record an acquired lock; `contended` marks slow-path acquisitions.
#[inline]
pub fn lock_acquire(contended: bool) {
    if cfg!(feature = "off") {
        return;
    }
    RECORDER.with(|r| {
        r.c.lock_acquires.set(r.c.lock_acquires.get() + 1);
        if contended {
            r.c.contended_acquires.set(r.c.contended_acquires.get() + 1);
        }
    });
}

/// Record `ns` nanoseconds spent waiting for a lock (slow path only).
#[inline]
pub fn lock_wait(ns: u64) {
    if cfg!(feature = "off") {
        return;
    }
    RECORDER.with(|r| {
        r.c.lock_wait_ns.set(r.c.lock_wait_ns.get() + ns);
        if ns > r.c.max_wait_ns.get() {
            r.c.max_wait_ns.set(ns);
        }
        r.c.wait_hist.borrow_mut().record(ns);
        r.cur_op.set(r.cur_op.get() | CUR_OP_WAITED);
    });
}

/// Record one restart of the current operation (validation failure, failed
/// trylock, lost CAS race that forces a re-traversal, ...).
#[inline]
pub fn restart() {
    if cfg!(feature = "off") {
        return;
    }
    RECORDER.with(|r| {
        r.c.restarts.set(r.c.restarts.get() + 1);
        r.cur_op.set(r.cur_op.get() + 1);
    });
}

/// Fold the per-operation scratch counters into the histograms and mark one
/// completed operation. The harness calls this after every request.
///
/// Every [`registry::PUBLISH_PERIOD`]-th operation this also republishes the
/// thread's counters into its live registry slot (a mask check on the fast
/// path, ~[`registry::SNAPSHOT_WORDS`] relaxed stores on the periodic one).
#[inline]
pub fn op_boundary() {
    if cfg!(feature = "off") {
        return;
    }
    RECORDER.with(|r| {
        let ops = r.c.ops.get() + 1;
        r.c.ops.set(ops);
        let scratch = r.cur_op.replace(0);
        // `|` (not `||`): both conditions are almost always false, so one
        // fused test and one predictable branch beat two.
        if (scratch != 0) | (ops & (registry::PUBLISH_PERIOD - 1) == 0) {
            op_boundary_slow(r, scratch, ops);
        }
    });
}

/// Everything [`op_boundary`] does besides count: bookkeeping for an op
/// that restarted or waited, plus the periodic registry publication.
///
/// Kept out of line so the clean-op common path stays a handful of `Cell`
/// loads and stores. Two things live here on purpose: only restarted ops
/// touch the histogram's `RefCell` (the zero-restart bucket is derivable as
/// `ops - ops_restarted` and materialized at snapshot time), and
/// [`Recorder::peek`] materializes a [`registry::SNAPSHOT_WORDS`]-word
/// snapshot (two histogram copies included) on the stack — letting that
/// inline into [`op_boundary`] bloats the per-op fast path with dead spills
/// even on the 1023 of 1024 calls that never publish.
#[cold]
#[inline(never)]
fn op_boundary_slow(r: &Recorder, scratch: u32, ops: u64) {
    let k = (scratch & !CUR_OP_WAITED) as usize;
    if k > 0 {
        r.c.ops_restarted.set(r.c.ops_restarted.get() + 1);
        if k > 3 {
            r.c.ops_restarted_gt3.set(r.c.ops_restarted_gt3.get() + 1);
        }
        let mut hist = r.c.restart_hist.borrow_mut();
        hist[k.min(RESTART_BUCKETS - 1)] += 1;
    }
    if scratch & CUR_OP_WAITED != 0 {
        r.c.ops_waited.set(r.c.ops_waited.get() + 1);
    }
    if ops & (registry::PUBLISH_PERIOD - 1) == 0 {
        registry::publish_current(&r.peek());
    }
}

/// Record one speculative critical-section attempt.
#[inline]
pub fn elide_attempt() {
    count(|c| &c.elide_attempts, 1);
}

/// Record a committed speculative critical section.
#[inline]
pub fn elide_commit() {
    count(|c| &c.elide_commits, 1);
}

/// Record a speculative abort caused by a data conflict.
#[inline]
pub fn elide_abort_conflict() {
    count(|c| &c.elide_aborts_conflict, 1);
}

/// Record a speculative abort caused by an (emulated) interrupt.
#[inline]
pub fn elide_abort_interrupt() {
    count(|c| &c.elide_aborts_interrupt, 1);
}

/// Record a critical section that gave up on speculation and took real locks.
#[inline]
pub fn elide_fallback() {
    count(|c| &c.elide_fallbacks, 1);
}

/// Record the start of a table migration (a resizing structure installed a
/// new table and began draining the old one).
#[inline]
pub fn resize_migration_started() {
    count(|c| &c.resize_migrations_started, 1);
    trace::emit(EventKind::MigrationStart, 0);
}

/// Record the completion of a table migration (this thread moved the old
/// table's final bucket).
#[inline]
pub fn resize_migration_completed() {
    count(|c| &c.resize_migrations_completed, 1);
    trace::emit(EventKind::MigrationComplete, 0);
}

/// Record `n` buckets migrated from an old table to its replacement.
#[inline]
pub fn resize_buckets_moved(n: u64) {
    count(|c| &c.resize_buckets_moved, n);
    trace::emit(EventKind::BucketsMoved, n);
}

/// Record an old table retired through EBR after its drain completed.
#[inline]
pub fn resize_table_retired() {
    count(|c| &c.resize_tables_retired, 1);
    trace::emit(EventKind::TableRetired, 0);
}

/// Record one optimistic (version-validated) fast-path attempt.
#[inline]
pub fn optimistic_attempt() {
    count(|c| &c.optimistic_attempts, 1);
}

/// Record an optimistic attempt whose validation failed (a concurrent
/// writer's critical section overlapped the unsynchronized read).
#[inline]
pub fn optimistic_failure() {
    count(|c| &c.optimistic_failures, 1);
}

/// Record an operation that exhausted its optimistic retries and fell back
/// to the pessimistic (locked) path.
#[inline]
pub fn optimistic_fallback() {
    count(|c| &c.optimistic_fallbacks, 1);
    trace::emit(EventKind::OptimisticFallback, 0);
}

/// Record a session repin that has gone inert (ineffective) for
/// `consecutive` refreshes — the PR 6 repin-starvation shape, promoted from
/// a debug-only stderr warning to a first-class counter + trace event in
/// all builds.
#[inline]
pub fn repin_stall(consecutive: u64) {
    count(|c| &c.repin_stalls, 1);
    trace::emit(EventKind::RepinStall, consecutive);
}

/// Record a won EBR global-epoch advance (`epoch` is the new value).
#[inline]
pub fn ebr_epoch_advance(epoch: u64) {
    count(|c| &c.epoch_advances, 1);
    trace::emit(EventKind::EpochAdvance, epoch);
}

/// Record one EBR collection pass that took `ns` nanoseconds.
#[inline]
pub fn ebr_collect(ns: u64) {
    count(|c| &c.ebr_collects, 1);
    count(|c| &c.ebr_collect_ns, ns);
    trace::emit(EventKind::EbrCollect, ns);
}

/// Record a reclamation-watchdog firing: the calling thread's deferred
/// garbage crossed a stall threshold without a collection running
/// (`pending` = deferred items at the time).
#[inline]
pub fn ebr_stall(pending: u64) {
    count(|c| &c.ebr_stall_events, 1);
    trace::emit(EventKind::EbrStall, pending);
}

/// Record a service submission rejected with `Busy` (`core` = target core
/// whose ring was full).
#[inline]
pub fn service_busy(core: u64) {
    count(|c| &c.service_busy, 1);
    trace::emit(EventKind::ServiceBusy, core);
}

/// Record a service namespace table created lazily on first use (`ns` =
/// namespace id).
#[inline]
pub fn namespace_create(ns: u64) {
    count(|c| &c.namespaces_created, 1);
    trace::emit(EventKind::NamespaceCreate, ns);
}

/// Record an idle namespace table unlinked from the service directory and
/// retired through EBR (`ns` = namespace id).
#[inline]
pub fn namespace_retire(ns: u64) {
    count(|c| &c.namespaces_retired, 1);
    trace::emit(EventKind::NamespaceRetire, ns);
}

/// Record an operation rejected because its namespace hit its entry quota
/// (`ns` = namespace id).
#[inline]
pub fn quota_reject(ns: u64) {
    count(|c| &c.quota_rejects, 1);
    trace::emit(EventKind::QuotaReject, ns);
}

/// Record one completed priority-queue push.
#[inline]
pub fn pq_push() {
    count(|c| &c.pq_pushes, 1);
}

/// Record one priority-queue pop-min that returned an element.
#[inline]
pub fn pq_pop() {
    count(|c| &c.pq_pops, 1);
}

/// Record a contended pop-min: `attempts` candidates were lost to racing
/// poppers (or failed mark/lock steps) before this pop succeeded or
/// observed emptiness.
#[inline]
pub fn pq_pop_contention(attempts: u64) {
    count(|c| &c.pq_pop_contention, attempts);
    trace::emit(EventKind::PqPopContention, attempts);
}

/// Adjust the process-wide deferred-garbage gauges by signed deltas
/// (`items`, approximate `bytes`). EBR calls this on defer (+) and after
/// collection (−); wrapping arithmetic makes negative deltas exact.
#[inline]
pub fn ebr_garbage_delta(items: i64, bytes: i64) {
    if cfg!(feature = "off") {
        return;
    }
    use atomic::plain::Ordering;
    EBR_GARBAGE_ITEMS.fetch_add(items as u64, Ordering::Relaxed);
    EBR_GARBAGE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Current process-wide deferred-garbage gauges: `(items, approx_bytes)`.
pub fn ebr_garbage() -> (u64, u64) {
    use atomic::plain::Ordering;
    (
        EBR_GARBAGE_ITEMS.load(Ordering::Relaxed),
        EBR_GARBAGE_BYTES.load(Ordering::Relaxed),
    )
}

static EBR_GARBAGE_ITEMS: atomic::plain::AtomicU64 = atomic::plain::AtomicU64::new(0);
static EBR_GARBAGE_BYTES: atomic::plain::AtomicU64 = atomic::plain::AtomicU64::new(0);

/// Install (or clear) the delay-injection policy for the calling thread.
pub fn set_delay_policy(policy: Option<DelayPolicy>) {
    RECORDER.with(|r| {
        r.delay_armed.set(policy.is_some());
        *r.delay.borrow_mut() = policy.map(|p| DelayState {
            countdown: p.every,
            rng: p.seed | 1,
            policy: p,
        });
    });
}

#[inline]
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Hook called by instrumented lock guards (and by speculative sections)
/// right after entering a critical section. If a [`DelayPolicy`] is armed and
/// this is the N-th critical section, spin for a random duration — this is
/// how the paper's "unresponsive threads" experiment (§5.4) stalls a thread
/// *while it holds a lock*.
#[inline]
pub fn maybe_delay_in_cs() {
    RECORDER.with(|r| {
        if r.delay_armed.get() {
            delay_in_cs_slow(r);
        }
    });
}

/// The armed half of [`maybe_delay_in_cs`], out of line: only experiment
/// runs with an installed [`DelayPolicy`] ever pay for the `RefCell` borrow
/// and countdown bookkeeping.
#[cold]
#[inline(never)]
fn delay_in_cs_slow(r: &Recorder) {
    let mut guard = r.delay.borrow_mut();
    let Some(state) = guard.as_mut() else { return };
    state.countdown -= 1;
    if state.countdown > 0 {
        return;
    }
    state.countdown = state.policy.every;
    let span = state.policy.max_ns - state.policy.min_ns + 1;
    let ns = state.policy.min_ns + xorshift(&mut state.rng) % span;
    drop(guard);
    spin_for(Duration::from_nanos(ns));
    r.c.injected_delays.set(r.c.injected_delays.get() + 1);
    r.c.injected_delay_ns.set(r.c.injected_delay_ns.get() + ns);
}

/// Busy-wait for approximately `d` (used by delay injection; deliberately
/// burns CPU rather than sleeping, like a thread stuck in I/O polling or a
/// page fault — the lock stays held the whole time).
pub fn spin_for(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Snapshot and clear the calling thread's counters. Also republishes the
/// post-reset zeros to the live [`registry`], so a polled aggregate reflects
/// "activity since the last reset" rather than double-counting history the
/// harness already collected.
pub fn take_and_reset() -> StatsSnapshot {
    let snap = RECORDER.with(|r| r.take());
    if !cfg!(feature = "off") {
        registry::publish_current(&StatsSnapshot::default());
    }
    snap
}

/// Thread-exit drain used by the registry's slot-release path: take the
/// recorder's remaining counters if its TLS is still alive (thread-local
/// destruction order is unspecified).
pub(crate) fn drain_recorder_at_exit() -> Option<StatsSnapshot> {
    RECORDER.try_with(|r| r.take()).ok()
}

#[cfg(test)]
#[cfg(not(feature = "off"))]
mod tests {
    use super::*;

    #[test]
    fn observability_counters_roundtrip() {
        let _ = take_and_reset();
        repin_stall(2048);
        ebr_epoch_advance(41);
        ebr_epoch_advance(42);
        ebr_collect(1_000);
        ebr_collect(500);
        ebr_stall(4096);
        service_busy(3);
        namespace_create(7);
        namespace_create(8);
        namespace_retire(7);
        quota_reject(8);
        pq_push();
        pq_push();
        pq_push();
        pq_pop();
        pq_pop_contention(5);
        let s = take_and_reset();
        assert_eq!(s.repin_stalls, 1);
        assert_eq!(s.epoch_advances, 2);
        assert_eq!(s.ebr_collects, 2);
        assert_eq!(s.ebr_collect_ns, 1_500);
        assert_eq!(s.ebr_stall_events, 1);
        assert_eq!(s.service_busy, 1);
        assert_eq!(s.namespaces_created, 2);
        assert_eq!(s.namespaces_retired, 1);
        assert_eq!(s.quota_rejects, 1);
        assert_eq!(s.pq_pushes, 3);
        assert_eq!(s.pq_pops, 1);
        assert_eq!(s.pq_pop_contention, 5);
        // The snapshot cleared the thread-local state.
        assert_eq!(take_and_reset().epoch_advances, 0);
    }

    #[test]
    fn garbage_gauges_track_deltas() {
        let (i0, b0) = ebr_garbage();
        ebr_garbage_delta(10, 640);
        ebr_garbage_delta(-4, -256);
        let (i1, b1) = ebr_garbage();
        assert_eq!(i1.wrapping_sub(i0), 6);
        assert_eq!(b1.wrapping_sub(b0), 384);
        ebr_garbage_delta(-6, -384);
    }

    #[test]
    fn counters_roundtrip() {
        let _ = take_and_reset();
        lock_acquire(false);
        lock_acquire(true);
        lock_wait(1500);
        restart();
        restart();
        op_boundary();
        op_boundary();
        let s = take_and_reset();
        assert_eq!(s.lock_acquires, 2);
        assert_eq!(s.contended_acquires, 1);
        assert_eq!(s.lock_wait_ns, 1500);
        assert_eq!(s.max_wait_ns, 1500);
        assert_eq!(s.restarts, 2);
        assert_eq!(s.ops, 2);
        assert_eq!(s.ops_restarted, 1);
        assert_eq!(s.restart_hist[2], 1); // one op restarted exactly twice
        assert_eq!(s.restart_hist[0], 1); // one op never restarted
                                          // Snapshot cleared everything.
        let s2 = take_and_reset();
        assert_eq!(s2.ops, 0);
        assert_eq!(s2.restarts, 0);
    }

    #[test]
    fn restart_overflow_bucket() {
        let _ = take_and_reset();
        for _ in 0..RESTART_BUCKETS + 5 {
            restart();
        }
        op_boundary();
        let s = take_and_reset();
        assert_eq!(s.restart_hist[RESTART_BUCKETS - 1], 1);
        assert_eq!(s.ops_restarted_gt3, 1);
    }

    #[test]
    fn waited_op_flag() {
        let _ = take_and_reset();
        lock_wait(10);
        op_boundary();
        op_boundary();
        let s = take_and_reset();
        assert_eq!(s.ops_waited, 1);
        assert_eq!(s.ops, 2);
    }

    #[test]
    fn delay_policy_fires_every_nth() {
        let _ = take_and_reset();
        set_delay_policy(Some(DelayPolicy {
            every: 3,
            min_ns: 100,
            max_ns: 200,
            seed: 42,
        }));
        for _ in 0..9 {
            maybe_delay_in_cs();
        }
        set_delay_policy(None);
        let s = take_and_reset();
        assert_eq!(s.injected_delays, 3);
        assert!(s.injected_delay_ns >= 300);
        assert!(s.injected_delay_ns <= 600);
    }

    #[test]
    fn resize_counters_roundtrip() {
        let _ = take_and_reset();
        resize_migration_started();
        resize_buckets_moved(16);
        resize_buckets_moved(3);
        resize_migration_completed();
        resize_table_retired();
        let s = take_and_reset();
        assert_eq!(s.resize_migrations_started, 1);
        assert_eq!(s.resize_migrations_completed, 1);
        assert_eq!(s.resize_buckets_moved, 19);
        assert_eq!(s.resize_tables_retired, 1);
        // The snapshot cleared the thread-local state.
        assert_eq!(take_and_reset().resize_migrations_started, 0);
    }

    #[test]
    fn optimistic_counters_roundtrip() {
        let _ = take_and_reset();
        optimistic_attempt();
        optimistic_attempt();
        optimistic_attempt();
        optimistic_failure();
        optimistic_fallback();
        let s = take_and_reset();
        assert_eq!(s.optimistic_attempts, 3);
        assert_eq!(s.optimistic_failures, 1);
        assert_eq!(s.optimistic_fallbacks, 1);
        assert!((s.optimistic_failure_fraction() - 1.0 / 3.0).abs() < 1e-12);
        // The snapshot cleared the thread-local state.
        assert_eq!(take_and_reset().optimistic_attempts, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = StatsSnapshot {
            ops: 5,
            restarts: 1,
            max_wait_ns: 10,
            ..Default::default()
        };
        let b = StatsSnapshot {
            ops: 7,
            restarts: 2,
            max_wait_ns: 30,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.ops, 12);
        assert_eq!(a.restarts, 3);
        assert_eq!(a.max_wait_ns, 30);
    }

    #[test]
    fn fractions() {
        let s = StatsSnapshot {
            ops: 100,
            ops_restarted: 5,
            ops_restarted_gt3: 1,
            lock_wait_ns: 500_000_000,
            elide_commits: 99,
            elide_fallbacks: 1,
            ..Default::default()
        };
        assert!((s.restart_fraction() - 0.05).abs() < 1e-12);
        assert!((s.repeated_restart_fraction() - 0.01).abs() < 1e-12);
        assert!((s.fallback_fraction() - 0.01).abs() < 1e-12);
        let f = s.wait_fraction(Duration::from_secs(1), 1);
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spin_for_waits() {
        let t = Instant::now();
        spin_for(Duration::from_micros(200));
        assert!(t.elapsed() >= Duration::from_micros(200));
    }
}
