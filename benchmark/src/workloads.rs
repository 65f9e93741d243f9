//! The seven workloads: set-up, the measured loop, and the output checks.
//!
//! Every workload keeps exactly two threads busy (the host has two cores)
//! while the coordinating thread sleeps: two closed-loop workers on
//! `lib_*`, one client plus one service core worker on `svc_*`. Library
//! defaults everywhere; the program under test only ever sees keys and
//! operations drawn from `csds_workload` samplers seeded from `--seed`.

use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use csds_core::bst::BstTk;
use csds_core::hashtable::LazyHashTable;
use csds_core::{ConcurrentMap, GuardedMap, MapHandle};
use csds_ebr::EbrHealth;
use csds_elastic::ElasticHashTable;
use csds_metrics::{EventKind, StatsSnapshot};
use csds_pq::{ConcurrentPq, GuardedPq, PqHandle, PughPq};
use csds_service::{
    Completion, OpKind, Reply, Service, ServiceClient, ServiceConfig, ServiceError,
};
use csds_sync::atomic::{AtomicU32, Ordering};
use csds_workload::{
    FastRng, KeyDist, KeySampler, Op, OpMix, OpenLoopSchedule, PqOp, PqOpMix, TenantSampler,
};

use crate::probes;
use crate::spans::{self, net_ns, now_ns, Name, Span, SpanBuf, Tag};
use crate::stats::percentile;

/// Live entries every map starts with, over [`KEY_RANGE`] sampled keys (the
/// paper's 2× rule keeps the size stationary under equal insert/remove
/// rates).
const SIZE: usize = 4096;
pub const KEY_RANGE: u64 = 8192;
/// Keys outside the sampled range, written once at set-up with
/// `value == key` and read back after the window.
const RESERVED: std::ops::Range<u64> = KEY_RANGE..KEY_RANGE + 64;
/// Priority space of `lib_pq_mixed`.
const PQ_RANGE: u64 = 1 << 20;
/// Requests submitted before the first reply is awaited.
const PIPELINE: usize = 64;
const TENANTS: u64 = 64;
/// Arrival rate of `svc_open_100k`, requests per second.
const OPEN_RATE: f64 = 100_000.0;
/// Busy threads per workload.
pub const THREADS: usize = 2;

/// One operation in this many is timed (on `lib_*` it starts a timed burst
/// of `BURST`).
const LAT_EVERY_LIB: u64 = 64;
const LAT_EVERY_SVC: u64 = 4;
const BURST: usize = 8;
/// One operation in this many records spans in a traced segment; on
/// `lib_*` the one at `TRACE_AT`, which no timed burst covers.
const TRACE_EVERY_LIB: u64 = 256;
const TRACE_EVERY_SVC: u64 = 16;
const TRACE_AT: u64 = 32;

/// The workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 7] = [
    "lib_hash_read10",
    "lib_hash_update50",
    "lib_tree_zipf20",
    "lib_pq_mixed",
    "svc_pipelined",
    "svc_tenants64",
    "svc_open_100k",
];

/// Lengths of the phases of one run, all derived from `--seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Unmeasured lead-in of every segment (caches fill, workers wake).
    pub warmup: Duration,
    /// Measured window of one segment.
    pub seg_len: Duration,
    /// Length of one single-thread probe.
    pub probe_len: Duration,
    /// Length of one open-loop rate step.
    pub step_len: Duration,
}

impl Plan {
    pub fn new(seconds: f64, segments: usize) -> Plan {
        let seg = seconds / segments as f64;
        Plan {
            warmup: Duration::from_secs_f64((seg / 8.0).min(0.2)),
            seg_len: Duration::from_secs_f64(seg),
            probe_len: Duration::from_secs_f64((seconds / 100.0).min(0.1)),
            step_len: Duration::from_secs_f64((seconds / 10.0).min(1.0)),
        }
    }
}

/// Latency samples of one thread: a fixed ring, written to every page when
/// allocated, so peak RSS does not grow with the number of samples a
/// faster program produces. Keeps the most recent `CAP` samples.
pub struct LatRing {
    buf: Vec<u32>,
    n: usize,
}

impl LatRing {
    const CAP: usize = 1 << 20;

    pub fn new() -> Self {
        LatRing {
            buf: vec![1; Self::CAP],
            n: 0,
        }
    }

    #[inline]
    fn push(&mut self, ns: u64) {
        self.buf[self.n & (Self::CAP - 1)] = ns.min(u32::MAX as u64) as u32;
        self.n += 1;
    }

    fn clear(&mut self) {
        self.n = 0;
    }

    fn samples(&self) -> &[u32] {
        &self.buf[..self.n.min(Self::CAP)]
    }
}

impl Default for LatRing {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-layer values of one traced segment, by metric name.
pub type Layer = Vec<(&'static str, f64)>;

/// What one segment (fresh set-up, warm-up, measured window, checks)
/// produced.
#[derive(Default)]
pub struct Segment {
    /// Construction + prefill + service start + sampler tables, in
    /// seconds: everything up to where the benchmark starts its threads.
    pub setup_s: f64,
    /// Peak resident set (`VmHWM`) of the process that ran the segment,
    /// in MiB; filled in by that process once the segment is over.
    pub peak_rss_mb: f64,
    pub ops_per_s: f64,
    pub lat_p50: f64,
    pub lat_p90: f64,
    pub lat_p99: f64,
    /// Operations issued in the window, and those refused, errored or
    /// answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold (empty when correct).
    pub errors: Vec<String>,
    /// Traced segments only: per-thread spans and per-layer values.
    pub spans: Vec<Vec<Span>>,
    pub layer: Layer,
}

/// Inputs of one segment.
pub struct SegmentCtx<'a> {
    pub seed: u64,
    pub plan: Plan,
    pub traced: bool,
    /// Also run the single-thread probes on this segment's structure.
    pub probes: bool,
    /// Cost of one clock read, taken off every span.
    pub clock_ns: f64,
    pub rings: &'a mut [LatRing; THREADS],
}

/// Run one segment of workload `name`.
pub fn run_segment(name: &str, ctx: SegmentCtx<'_>) -> Result<Segment, String> {
    Ok(match name {
        "lib_hash_read10" => lib_map(MapKind::Hash, 10, KeyDist::Uniform, ctx),
        "lib_hash_update50" => lib_map(MapKind::Hash, 50, KeyDist::Uniform, ctx),
        "lib_tree_zipf20" => lib_map(MapKind::Tree, 20, KeyDist::PAPER_ZIPF, ctx),
        "lib_pq_mixed" => lib_pq(ctx),
        "svc_pipelined" => svc_closed(false, ctx),
        "svc_tenants64" => svc_closed(true, ctx),
        "svc_open_100k" => svc_open(ctx),
        _ => return Err(format!("unknown workload {name:?}; one of {NAMES:?}")),
    })
}

/// An independent sampler seed for `stream` of `seed` (splitmix64).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ---------------------------------------------------------------------------
// Phase control shared by the closed-loop workloads.

const WARM: u32 = 0;
const MEASURE: u32 = 1;
const STOP: u32 = 2;

struct Control {
    phase: AtomicU32,
    barrier: Barrier,
}

impl Control {
    fn new(threads: usize) -> Self {
        Control {
            phase: AtomicU32::new(WARM),
            barrier: Barrier::new(threads + 1),
        }
    }

    /// Coordinator: release the threads, sleep through the warm-up, open
    /// the window, let `window` pass its length (by sleeping, whatever
    /// else it does), and stop the threads. `at_end` runs just before they
    /// are told to stop.
    fn conduct<T>(
        &self,
        plan: &Plan,
        window: impl FnOnce(Duration),
        at_end: impl FnOnce() -> T,
    ) -> T {
        self.barrier.wait();
        std::thread::sleep(plan.warmup);
        self.phase.store(MEASURE, Ordering::Relaxed);
        window(plan.seg_len);
        let out = at_end();
        self.phase.store(STOP, Ordering::Relaxed);
        out
    }
}

/// The measured window as one thread saw it.
#[derive(Default)]
struct Window {
    seen: u32,
    /// `[operations, entries retired]` when the window opened.
    at_open: [u64; 2],
    opened: Option<Instant>,
}

impl Window {
    /// `false` once the thread should stop. `so_far` is the thread's
    /// running `[operations, entries retired]`. `on_open` runs once, when
    /// the measured window opens; the thread's instrumentation counters
    /// are cleared at the same moment.
    #[inline]
    fn poll(&mut self, ctl: &Control, so_far: [u64; 2], on_open: impl FnOnce()) -> bool {
        let p = ctl.phase.load(Ordering::Relaxed);
        if p != self.seen {
            self.seen = p;
            if p == MEASURE {
                on_open();
                let _ = csds_metrics::take_and_reset();
                self.at_open = so_far;
                self.opened = Some(Instant::now());
            }
        }
        p != STOP
    }

    /// Close the window into the thread's result (`failed` and `spans` are
    /// the caller's to give).
    fn close(&self, so_far: [u64; 2], failed: u64, spans: SpanBuf) -> ThreadOut {
        let counters = csds_metrics::take_and_reset();
        // A window that never opened (an empty one) holds nothing.
        let [ops, retired] = match self.opened {
            Some(_) => [so_far[0] - self.at_open[0], so_far[1] - self.at_open[1]],
            None => [0, 0],
        };
        ThreadOut {
            ops,
            retired,
            failed,
            secs: self.opened.map_or(0.0, |t| t.elapsed().as_secs_f64()),
            counters,
            spans,
        }
    }
}

/// Per-thread result common to every workload.
struct ThreadOut {
    /// Operations attempted in the window, and those that failed.
    ops: u64,
    failed: u64,
    /// Entries unlinked in the window, each handed to `csds_ebr`.
    retired: u64,
    secs: f64,
    counters: StatsSnapshot,
    spans: SpanBuf,
}

/// Fold the threads' windows into the segment's end-to-end numbers;
/// returns the merged instrumentation counters.
/// `sample_ops` is how many operations one latency sample timed.
fn fold(
    seg: &mut Segment,
    outs: Vec<ThreadOut>,
    rings: &[LatRing],
    sample_ops: usize,
    traced: bool,
) -> StatsSnapshot {
    let mut counters = StatsSnapshot::default();
    let mut lat: Vec<u32> = Vec::new();
    for (out, ring) in outs.iter().zip(rings) {
        if out.secs > 0.0 {
            seg.ops_per_s += out.ops.saturating_sub(out.failed) as f64 / out.secs;
        }
        seg.attempted += out.ops;
        seg.failed += out.failed;
        counters.merge(&out.counters);
        lat.extend_from_slice(ring.samples());
    }
    lat.sort_unstable();
    let per_op = |q| percentile(&lat, q) / sample_ops as f64;
    seg.lat_p50 = per_op(0.5);
    seg.lat_p90 = per_op(0.9);
    seg.lat_p99 = per_op(0.99);
    let (failed, attempted) = (seg.failed, seg.attempted);
    check(seg, failed == 0, || {
        format!("{failed} of {attempted} operations failed")
    });
    if traced {
        let dropped: u64 = outs.iter().map(|o| o.spans.dropped).sum();
        let retired: u64 = outs.iter().map(|o| o.retired).sum();
        seg.layer.push(("trace.requests_dropped", dropped as f64));
        seg.layer
            .push(("ebr.retires_per_op", ratio(retired, seg.attempted)));
        seg.spans = outs.into_iter().map(|o| o.spans.into_spans()).collect();
    }
    counters
}

fn check(seg: &mut Segment, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        seg.errors.push(what());
    }
}

/// Per-layer values every traced segment derives the same way: from the
/// instrumentation counters of the window, the reclamation gauges at its
/// end, and the recorded spans.
fn common_layers(seg: &mut Segment, c: &StatsSnapshot, health: &EbrHealth, clock_ns: f64) {
    let ops = seg.attempted;
    let threads: Vec<&[Span]> = seg.spans.iter().map(Vec::as_slice).collect();
    let p = |name, tag, q| {
        let d = spans::durations(&threads, name, tag);
        net_ns(percentile(&d, q) as u64, clock_ns)
    };
    let layer: Layer = vec![
        ("trace.span_coverage_share", spans::child_coverage(&threads)),
        (
            "workload.sample_ns",
            p(Name::WorkloadSample, Tag::None, 0.5),
        ),
        ("ebr.epoch_advances", c.epoch_advances as f64),
        ("ebr.collects", c.ebr_collects as f64),
        ("ebr.collect_ns_total", c.ebr_collect_ns as f64),
        ("ebr.garbage_items_end", health.garbage_items as f64),
        ("ebr.max_epoch_lag", health.max_epoch_lag as f64),
        ("ebr.repin_stalls", c.repin_stalls as f64),
        ("sync.lock_acquires_per_op", ratio(c.lock_acquires, ops)),
        (
            "sync.contended_share",
            ratio(c.contended_acquires, c.lock_acquires),
        ),
        ("sync.lock_wait_ns_per_op", ratio(c.lock_wait_ns, ops)),
        ("core.get_ns_p50", p(Name::CoreOp, Tag::Get, 0.5)),
        ("core.insert_ns_p50", p(Name::CoreOp, Tag::Insert, 0.5)),
        ("core.remove_ns_p50", p(Name::CoreOp, Tag::Remove, 0.5)),
        ("core.op_ns_p99", p(Name::CoreOp, Tag::None, 0.99)),
        ("core.restarts_per_op", ratio(c.restarts, ops)),
        ("core.ops_waited_share", ratio(c.ops_waited, c.ops)),
        (
            "core.optimistic_attempts_per_op",
            ratio(c.optimistic_attempts, ops),
        ),
        (
            "core.optimistic_fail_share",
            ratio(c.optimistic_failures, c.optimistic_attempts),
        ),
        (
            "core.optimistic_fallback_share",
            ratio(c.optimistic_fallbacks, c.optimistic_attempts),
        ),
        ("elastic.migrations", c.resize_migrations_started as f64),
        ("elastic.buckets_moved", c.resize_buckets_moved as f64),
        ("elastic.tables_retired", c.resize_tables_retired as f64),
        ("pq.push_ns_p50", p(Name::PqOp, Tag::Push, 0.5)),
        ("pq.pop_ns_p50", p(Name::PqOp, Tag::Pop, 0.5)),
        ("pq.peek_ns_p50", p(Name::PqOp, Tag::Peek, 0.5)),
        (
            "pq.pop_contention_per_pop",
            ratio(c.pq_pop_contention, c.pq_pops),
        ),
        (
            "service.submit_ns_p50",
            p(Name::ServiceSubmit, Tag::None, 0.5),
        ),
        (
            "service.submit_ns_p99",
            p(Name::ServiceSubmit, Tag::None, 0.99),
        ),
        (
            "service.inflight_ns_p50",
            p(Name::ServiceInflight, Tag::None, 0.5),
        ),
        ("service.reap_ns_p50", p(Name::ServiceReap, Tag::None, 0.5)),
        ("service.busy_rejects", c.service_busy as f64),
        ("service.quota_rejects", c.quota_rejects as f64),
    ];
    seg.layer.extend(layer);
}

// ---------------------------------------------------------------------------
// The closed-loop library workloads.

/// What a `lib_*` thread issues its operations against: it draws an
/// operation, applies it through its own per-thread handle, and keeps the
/// counts the output checks need.
trait Target {
    type Op: Copy;
    /// What the thread hands back for the output checks.
    type Tally: Send;
    /// Span name of an applied operation.
    const SPAN: Name;
    /// Draw the `index`-th operation of this thread.
    fn draw(&mut self, index: u64) -> Self::Op;
    fn apply(&mut self, op: Self::Op) -> Tag;
    /// Entries unlinked so far (each is handed to `csds_ebr`), and results
    /// that were wrong so far.
    fn retired(&self) -> u64;
    fn wrong(&self) -> u64;
    /// The measured window opens.
    fn window_opens(&mut self) {}
    /// Close the handle (unpinning the thread) and hand back the tally.
    fn finish(self) -> Self::Tally;
}

/// One closed-loop thread: operation after operation, each followed by
/// `op_boundary()` as in the repo's `run_map` / `run_pq`.
struct Worker<T> {
    target: T,
    ops: u64,
    traced: bool,
}

impl<T: Target> Worker<T> {
    /// The next operation(s): every `LAT_EVERY_LIB`-th starts a timed
    /// burst, the rest run one by one.
    #[inline]
    fn advance(&mut self, ring: &mut LatRing, spans: &mut SpanBuf) {
        if self.ops % LAT_EVERY_LIB == 0 {
            self.burst(ring);
        } else {
            self.step(spans);
        }
    }

    /// `BURST` operations, drawn beforehand, timed back to back as one
    /// latency sample: a single ~20 ns operation cannot be told from the
    /// ~35 ns clock read on either side of it.
    fn burst(&mut self, ring: &mut LatRing) {
        let drawn: [T::Op; BURST] = std::array::from_fn(|i| self.target.draw(self.ops + i as u64));
        let t0 = now_ns();
        for op in drawn {
            self.target.apply(op);
            csds_metrics::op_boundary();
        }
        ring.push(now_ns() - t0);
        self.ops += BURST as u64;
    }

    fn step(&mut self, spans: &mut SpanBuf) {
        let i = self.ops;
        self.ops += 1;
        let span = self.traced && i % TRACE_EVERY_LIB == TRACE_AT;
        let s0 = if span { now_ns() } else { 0 };
        let op = self.target.draw(i);
        let t0 = if span { now_ns() } else { 0 };
        let tag = self.target.apply(op);
        let t1 = if span { now_ns() } else { 0 };
        csds_metrics::op_boundary();
        if span {
            spans.record(
                &[s0, t0, t1, now_ns()],
                &[
                    (Name::WorkloadSample, Tag::None),
                    (T::SPAN, tag),
                    (Name::MetricsOpBoundary, Tag::None),
                ],
            );
        }
    }
}

/// Run `THREADS` workers through warm-up and window. `make(thread)` builds
/// each thread's target on that thread, once all are released (a target
/// pins its thread). Folds the end-to-end numbers into `seg`; returns the
/// reclamation gauges as the window closed, the merged instrumentation
/// counters, and the threads' tallies.
fn run_workers<T: Target>(
    seg: &mut Segment,
    ctx: &mut SegmentCtx<'_>,
    make: impl Fn(usize) -> T + Sync,
) -> (EbrHealth, StatsSnapshot, Vec<T::Tally>) {
    let ctl = Control::new(THREADS);
    let traced = ctx.traced;
    let (health, outs) = std::thread::scope(|s| {
        let handles: Vec<_> = ctx
            .rings
            .iter_mut()
            .enumerate()
            .map(|(t, ring)| {
                let (ctl, make) = (&ctl, &make);
                s.spawn(move || {
                    let mut spans = SpanBuf::new(t);
                    let mut win = Window::default();
                    ctl.barrier.wait();
                    let mut w = Worker {
                        target: make(t),
                        ops: 0,
                        traced,
                    };
                    while win.poll(ctl, [w.ops, w.target.retired()], || {
                        ring.clear();
                        spans.clear();
                        w.target.window_opens();
                    }) {
                        w.advance(ring, &mut spans);
                    }
                    let out = win.close([w.ops, w.target.retired()], w.target.wrong(), spans);
                    (out, w.target.finish())
                })
            })
            .collect();
        let health = ctl.conduct(&ctx.plan, std::thread::sleep, csds_ebr::health);
        let outs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        (health, outs)
    });
    let (outs, tallies): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
    let counters = fold(seg, outs, &ctx.rings[..], BURST, traced);
    (health, counters, tallies)
}

// lib_hash_read10 / lib_hash_update50 / lib_tree_zipf20

#[derive(Clone, Copy)]
enum MapKind {
    Hash,
    Tree,
}

/// The structure under test, kept concrete so the dispatch probe can call
/// it both ways; the workload itself goes through `dyn GuardedMap`, as the
/// repo's harness does.
pub enum MapImpl {
    Hash(LazyHashTable<u64>),
    Tree(BstTk<u64>),
}

impl MapImpl {
    fn new(kind: MapKind) -> Self {
        match kind {
            MapKind::Hash => MapImpl::Hash(LazyHashTable::with_capacity(KEY_RANGE as usize)),
            MapKind::Tree => MapImpl::Tree(BstTk::new()),
        }
    }

    pub fn as_dyn(&self) -> &(dyn GuardedMap<u64> + 'static) {
        match self {
            MapImpl::Hash(m) => m,
            MapImpl::Tree(m) => m,
        }
    }
}

/// `SIZE` distinct keys drawn uniformly from the range, plus the reserved
/// keys; every value equals its key.
fn prefill(map: &(impl ConcurrentMap<u64> + ?Sized), seed: u64) {
    let mut rng = FastRng::new(seed | 1);
    let mut n = 0;
    while n < SIZE {
        let k = rng.bounded(KEY_RANGE);
        if map.insert(k, k) {
            n += 1;
        }
    }
    for k in RESERVED {
        map.insert(k, k);
    }
}

/// After the window: the size follows from the successful updates, and the
/// reserved keys still read back their own value.
fn check_map(seg: &mut Segment, map: &(impl ConcurrentMap<u64> + ?Sized), ins: u64, rem: u64) {
    let want = SIZE as u64 + RESERVED.count() as u64 + ins - rem;
    let len = map.len() as u64;
    check(seg, len == want, || {
        format!("len {len} != prefill + {ins} inserts - {rem} removes = {want}")
    });
    for k in RESERVED {
        let got = map.get(k);
        check(seg, got == Some(k), || {
            format!("reserved key {k} reads {got:?}")
        });
    }
}

/// A map thread: one `MapHandle`, its sampler streams, and the success
/// counts the size check needs. Every value read must equal its key.
struct MapTarget<'a> {
    handle: MapHandle<'a, u64>,
    rng: FastRng,
    keys: &'a KeySampler,
    mix: OpMix,
    inserted: u64,
    removed: u64,
    wrong: u64,
}

impl<'a> MapTarget<'a> {
    fn new(map: &'a MapImpl, keys: &'a KeySampler, update_pct: u32, seed: u64) -> Self {
        MapTarget {
            handle: MapHandle::new(map.as_dyn()),
            rng: FastRng::new(seed),
            keys,
            mix: OpMix::updates(update_pct),
            inserted: 0,
            removed: 0,
            wrong: 0,
        }
    }
}

impl Target for MapTarget<'_> {
    type Op = (u64, Op);
    /// Successful inserts and removes.
    type Tally = (u64, u64);
    const SPAN: Name = Name::CoreOp;

    fn draw(&mut self, _index: u64) -> (u64, Op) {
        let key = self.keys.sample(&mut self.rng);
        (key, self.mix.sample(&mut self.rng))
    }

    #[inline]
    fn apply(&mut self, (key, op): (u64, Op)) -> Tag {
        match op {
            Op::Insert => {
                self.inserted += self.handle.insert(key, key) as u64;
                Tag::Insert
            }
            Op::Remove => {
                if let Some(v) = self.handle.remove(key) {
                    self.removed += 1;
                    self.wrong += (v != key) as u64;
                }
                Tag::Remove
            }
            _ => {
                if let Some(&v) = self.handle.get(key) {
                    self.wrong += (v != key) as u64;
                }
                Tag::Get
            }
        }
    }

    fn retired(&self) -> u64 {
        self.removed
    }

    fn wrong(&self) -> u64 {
        self.wrong
    }

    fn finish(self) -> (u64, u64) {
        (self.inserted, self.removed)
    }
}

fn lib_map(kind: MapKind, update_pct: u32, dist: KeyDist, mut ctx: SegmentCtx<'_>) -> Segment {
    let mut seg = Segment::default();
    let setup_started = Instant::now();
    let map = MapImpl::new(kind);
    prefill(map.as_dyn(), derive_seed(ctx.seed, 0));
    let keys = KeySampler::new(dist, KEY_RANGE);
    seg.setup_s = setup_started.elapsed().as_secs_f64();

    let seed = ctx.seed;
    let (health, counters, tallies) = run_workers(&mut seg, &mut ctx, |t| {
        MapTarget::new(&map, &keys, update_pct, derive_seed(seed, t as u64 + 1))
    });
    let inserted = tallies.iter().map(|t| t.0).sum();
    let removed = tallies.iter().map(|t| t.1).sum();
    check_map(&mut seg, map.as_dyn(), inserted, removed);
    if ctx.traced {
        common_layers(&mut seg, &counters, &health, ctx.clock_ns);
    }
    if ctx.probes {
        seg.layer.extend(probes::substrate(ctx.plan.probe_len));
        seg.layer
            .extend(probes::map_rungs(&map, &keys, ctx.seed, ctx.plan.probe_len));
    }
    seg
}

/// What a fixed number of single-thread operations of a `lib_*` map
/// workload did, for the repeatability test: with the same seed every
/// field repeats exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct Deterministic {
    pub inserted: u64,
    pub removed: u64,
    pub wrong: u64,
    pub len: usize,
    /// Counts from the thread's instrumentation counters (no times).
    pub counters: Vec<(&'static str, u64)>,
}

/// Test-only entry point (not reachable from the command line): `ops`
/// operations of a map workload on the calling thread.
pub fn deterministic_map_run(name: &str, seed: u64, ops: u64) -> Deterministic {
    let (kind, update_pct, dist) = match name {
        "lib_hash_read10" => (MapKind::Hash, 10, KeyDist::Uniform),
        "lib_hash_update50" => (MapKind::Hash, 50, KeyDist::Uniform),
        "lib_tree_zipf20" => (MapKind::Tree, 20, KeyDist::PAPER_ZIPF),
        _ => panic!("{name} is not a map workload"),
    };
    let map = MapImpl::new(kind);
    prefill(map.as_dyn(), derive_seed(seed, 0));
    let keys = KeySampler::new(dist, KEY_RANGE);
    let (mut ring, mut spans) = (LatRing::new(), SpanBuf::new(0));
    let _ = csds_metrics::take_and_reset();
    let mut w = Worker {
        target: MapTarget::new(&map, &keys, update_pct, derive_seed(seed, 1)),
        ops: 0,
        traced: false,
    };
    while w.ops < ops {
        w.advance(&mut ring, &mut spans);
    }
    let wrong = w.target.wrong;
    let (inserted, removed) = w.target.finish();
    let c = csds_metrics::take_and_reset();
    Deterministic {
        inserted,
        removed,
        wrong,
        len: map.as_dyn().len(),
        counters: vec![
            ("ops", c.ops),
            ("lock_acquires", c.lock_acquires),
            ("contended_acquires", c.contended_acquires),
            ("restarts", c.restarts),
            ("ops_waited", c.ops_waited),
            ("optimistic_attempts", c.optimistic_attempts),
            ("optimistic_failures", c.optimistic_failures),
            ("optimistic_fallbacks", c.optimistic_fallbacks),
            ("epoch_advances", c.epoch_advances),
            ("ebr_collects", c.ebr_collects),
            ("repin_stalls", c.repin_stalls),
        ],
    }
}

// lib_pq_mixed

/// What a pushed or popped entry adds to the conservation checksum.
fn pq_mix(key: u64, value: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ value
}

/// What a queue thread did: entries pushed and popped over its whole life
/// with their net checksum, pops and empty pops in the window.
#[derive(Default)]
struct PqTally {
    pushed: u64,
    popped: u64,
    sum: u64,
    pops: u64,
    empty_pops: u64,
}

/// A queue thread: one `PqHandle` and its sampler stream. Every pushed
/// value is a token no other push uses, so a node claimed by two pops
/// would break the checksum.
struct PqTarget<'a> {
    handle: PqHandle<'a, u64>,
    rng: FastRng,
    mix: PqOpMix,
    /// High bits of this thread's tokens.
    token_base: u64,
    tally: PqTally,
    wrong: u64,
}

impl Target for PqTarget<'_> {
    /// Operation, priority, token.
    type Op = (PqOp, u64, u64);
    type Tally = PqTally;
    const SPAN: Name = Name::PqOp;

    fn draw(&mut self, index: u64) -> (PqOp, u64, u64) {
        let op = self.mix.sample(&mut self.rng);
        (op, self.rng.bounded(PQ_RANGE), self.token_base | index)
    }

    #[inline]
    fn apply(&mut self, (op, key, token): (PqOp, u64, u64)) -> Tag {
        let t = &mut self.tally;
        match op {
            PqOp::Push => {
                if self.handle.push(key, token) {
                    t.pushed += 1;
                    t.sum = t.sum.wrapping_add(pq_mix(key, token));
                }
                Tag::Push
            }
            PqOp::PopMin => {
                t.pops += 1;
                match self.handle.pop_min() {
                    Some((k, &v)) => {
                        t.popped += 1;
                        t.sum = t.sum.wrapping_sub(pq_mix(k, v));
                        self.wrong += (k >= PQ_RANGE) as u64;
                    }
                    None => t.empty_pops += 1,
                }
                Tag::Pop
            }
            PqOp::PeekMin => {
                if let Some((k, _)) = self.handle.peek_min() {
                    self.wrong += (k >= PQ_RANGE) as u64;
                }
                Tag::Peek
            }
        }
    }

    fn retired(&self) -> u64 {
        self.tally.popped
    }

    fn wrong(&self) -> u64 {
        self.wrong
    }

    fn window_opens(&mut self) {
        self.tally.pops = 0;
        self.tally.empty_pops = 0;
    }

    fn finish(self) -> PqTally {
        self.tally
    }
}

fn lib_pq(mut ctx: SegmentCtx<'_>) -> Segment {
    let mut seg = Segment::default();
    let setup_started = Instant::now();
    let queue: PughPq<u64> = PughPq::new();
    let pq: &(dyn GuardedPq<u64> + 'static) = &queue;
    // Count and checksum of everything in the queue; pushes add, pops
    // subtract, and the final drain must account for the rest.
    let (mut live, mut live_sum) = (0u64, 0u64);
    let mut rng = FastRng::new(derive_seed(ctx.seed, 0) | 1);
    while live < SIZE as u64 {
        let k = rng.bounded(PQ_RANGE);
        if pq.push(k, live) {
            live_sum = live_sum.wrapping_add(pq_mix(k, live));
            live += 1;
        }
    }
    seg.setup_s = setup_started.elapsed().as_secs_f64();

    let seed = ctx.seed;
    let (health, counters, tallies) = run_workers(&mut seg, &mut ctx, |t| PqTarget {
        handle: PqHandle::new(pq),
        rng: FastRng::new(derive_seed(seed, t as u64 + 1)),
        mix: PqOpMix::mixed(),
        token_base: (t as u64 + 1) << 56,
        tally: PqTally::default(),
        wrong: 0,
    });
    let (mut pops, mut empty_pops) = (0, 0);
    for t in &tallies {
        live = live + t.pushed - t.popped;
        live_sum = live_sum.wrapping_add(t.sum);
        pops += t.pops;
        empty_pops += t.empty_pops;
    }

    let len = pq.len() as u64;
    check(&mut seg, len == live, || {
        format!("len {len} != prefill + pushed - popped = {live}")
    });
    let (mut drained, mut drained_sum, mut last) = (0u64, 0u64, None);
    while let Some((k, v)) = pq.pop_min() {
        check(&mut seg, last < Some(k), || {
            format!("drain returned {k} after {last:?}")
        });
        last = Some(k);
        drained += 1;
        drained_sum = drained_sum.wrapping_add(pq_mix(k, v));
    }
    check(&mut seg, drained == live && drained_sum == live_sum, || {
        format!("drained {drained} entries (checksum {drained_sum:#x}), expected {live} ({live_sum:#x})")
    });
    if ctx.traced {
        common_layers(&mut seg, &counters, &health, ctx.clock_ns);
        seg.layer
            .push(("pq.empty_pop_share", ratio(empty_pops, pops)));
    }
    if ctx.probes {
        seg.layer.extend(probes::substrate(ctx.plan.probe_len));
    }
    seg
}

// ---------------------------------------------------------------------------
// svc_pipelined / svc_tenants64 / svc_open_100k

/// A service over a prefilled elastic table: one core worker, every other
/// setting the library default.
struct Svc {
    map: Arc<ElasticHashTable<u64>>,
    service: Service<u64>,
    client: ServiceClient<u64>,
}

fn start_service(seed: u64) -> Svc {
    let map = Arc::new(ElasticHashTable::<u64>::with_capacity(KEY_RANGE as usize));
    prefill(&*map, seed);
    let service = Service::start(
        Arc::clone(&map) as Arc<dyn GuardedMap<u64>>,
        ServiceConfig {
            cores: 1,
            ..ServiceConfig::default()
        },
    );
    let client = service.client();
    Svc {
        map,
        service,
        client,
    }
}

/// What the client thread of a service workload reports besides its
/// window.
#[derive(Default)]
struct ClientTotals {
    /// Replies observed over the thread's whole life (warm-up included);
    /// must equal the operations the worker says it executed.
    replies: u64,
    /// Successful default-namespace updates over the thread's whole life.
    inserted: u64,
    removed: u64,
    /// Open loop: how late the generator ran, and the deepest and the
    /// final backlog of replies not yet reaped.
    gen_late_max: u64,
    outstanding_max: usize,
    outstanding_end: usize,
}

impl ClientTotals {
    /// Account one reply; `false` if it is an error or carries a value
    /// that was never written under `key`.
    fn reply(&mut self, r: Result<Reply<u64>, ServiceError>, key: u64) -> bool {
        self.replies += 1;
        match r {
            Ok(Reply::Got(v)) => v.map_or(true, |v| v == key),
            Ok(Reply::Inserted(done)) => {
                self.inserted += done as u64;
                true
            }
            Ok(Reply::Removed(v)) => {
                self.removed += v.is_some() as u64;
                v.map_or(true, |v| v == key)
            }
            _ => false,
        }
    }
}

/// Structural events the service's core worker recorded. The worker never
/// publishes its counters to the metrics registry, so the event rings are
/// the only public surface that shows its reclamation and resize work.
#[derive(Default)]
struct WorkerEvents {
    counters: StatsSnapshot,
    /// Events a ring evicted before they were read.
    dropped: u64,
}

impl WorkerEvents {
    /// Arm event recording (traced segments only).
    fn arm(traced: bool) -> Option<WorkerEvents> {
        traced.then(|| {
            csds_metrics::trace::set_tracing(true);
            WorkerEvents::default()
        })
    }

    fn drain(&mut self) {
        let c = &mut self.counters;
        for t in csds_metrics::trace::drain_all() {
            self.dropped += t.dropped;
            for e in t.events {
                match e.kind {
                    EventKind::EpochAdvance => c.epoch_advances += 1,
                    EventKind::EbrCollect => {
                        c.ebr_collects += 1;
                        c.ebr_collect_ns += e.arg;
                    }
                    EventKind::MigrationStart => c.resize_migrations_started += 1,
                    EventKind::BucketsMoved => c.resize_buckets_moved += e.arg,
                    EventKind::TableRetired => c.resize_tables_retired += 1,
                    _ => {}
                }
            }
        }
    }

    /// Pass `len`: discard what the warm-up recorded, then empty the rings
    /// often enough that none overflows.
    fn watch(&mut self, len: Duration) {
        let _ = csds_metrics::trace::drain_all();
        let end = Instant::now() + len;
        loop {
            let left = end.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            std::thread::sleep(left.min(Duration::from_millis(10)));
            self.drain();
        }
    }
}

/// After the client finished: stop the service, check its account of the
/// work against the client's, and (traced) derive the service layers.
fn finish_service(
    seg: &mut Segment,
    svc: Svc,
    totals: &ClientTotals,
    mut counters: StatsSnapshot,
    events: Option<WorkerEvents>,
    check_size: bool,
    ctx: &SegmentCtx<'_>,
) {
    let health = csds_ebr::health();
    let ns = svc.service.namespace_counts();
    let stats = svc.service.shutdown().aggregate();
    check(seg, stats.ops == totals.replies, || {
        format!(
            "worker executed {} operations, client saw {} replies",
            stats.ops, totals.replies
        )
    });
    if check_size {
        check_map(seg, &*svc.map, totals.inserted, totals.removed);
    }
    if let Some(mut events) = events {
        events.drain();
        csds_metrics::trace::set_tracing(false);
        counters.merge(&events.counters);
        common_layers(seg, &counters, &health, ctx.clock_ns);
        let ub = |q| stats.latency_ns.quantile_upper_bound(q).unwrap_or(0) as f64;
        seg.layer.extend([
            ("trace.events_dropped", events.dropped as f64),
            ("service.rtt_ns_p50", seg.lat_p50),
            ("service.rtt_ns_p99", seg.lat_p99),
            (
                "service.request_cost_ns",
                if seg.ops_per_s > 0.0 {
                    1e9 / seg.ops_per_s
                } else {
                    0.0
                },
            ),
            ("service.worker_lat_ns_p50_ub", ub(0.5)),
            ("service.worker_lat_ns_p99_ub", ub(0.99)),
            ("service.mean_batch", stats.mean_batch()),
            ("service.batch_target_max", stats.batch_target_max as f64),
            ("service.max_depth", stats.max_depth as f64),
            ("service.ns_created", ns.created as f64),
            ("service.ns_retired", ns.retired as f64),
            ("service.ns_ops_share", ratio(stats.ns_ops, stats.ops)),
            ("service.gen_late_ns_max", totals.gen_late_max as f64),
            ("service.outstanding_max", totals.outstanding_max as f64),
        ]);
    }
    if ctx.probes {
        seg.layer.extend(probes::substrate(ctx.plan.probe_len));
        seg.layer.extend(probes::service_rungs(
            &svc.map,
            ctx.seed,
            ctx.plan.probe_len,
        ));
    }
}

/// A request submitted and not yet reaped.
struct Pending {
    reply: Completion<Reply<u64>>,
    key: u64,
    timed: bool,
    span: bool,
    /// Sampling began / submit began / submit returned (0 when not taken).
    s0: u64,
    t0: u64,
    t1: u64,
}

const SVC_SPANS: [(Name, Tag); 4] = [
    (Name::WorkloadSample, Tag::None),
    (Name::ServiceSubmit, Tag::None),
    (Name::ServiceInflight, Tag::None),
    (Name::ServiceReap, Tag::None),
];

/// Closed loop: one client submits `PIPELINE` requests, then reaps them in
/// order, and repeats. With `tenants`, every request names one of 64
/// namespaces drawn Zipf-over-Zipf.
fn svc_closed(tenants: bool, ctx: SegmentCtx<'_>) -> Segment {
    let mut seg = Segment::default();
    let setup_started = Instant::now();
    let mut events = WorkerEvents::arm(ctx.traced);
    let svc = start_service(derive_seed(ctx.seed, 0));
    let keys = KeySampler::new(KeyDist::Uniform, KEY_RANGE);
    let by_tenant = TenantSampler::zipf_over_zipf(TENANTS, KEY_RANGE);
    seg.setup_s = setup_started.elapsed().as_secs_f64();
    let ctl = Control::new(1);
    let ring = &mut ctx.rings[0];

    let (out, totals) = std::thread::scope(|s| {
        let (client, keys, by_tenant, ctl) = (&svc.client, &keys, &by_tenant, &ctl);
        let seed = derive_seed(ctx.seed, 1);
        let traced = ctx.traced;
        let handle = s.spawn(move || {
            let mut rng = FastRng::new(seed);
            let mix = OpMix::updates(10);
            let mut spans = SpanBuf::new(0);
            let mut win = Window::default();
            let mut totals = ClientTotals::default();
            let (mut ops, mut failed) = (0u64, 0u64);
            let mut pending: Vec<Pending> = Vec::with_capacity(PIPELINE);
            ctl.barrier.wait();
            while win.poll(ctl, [ops, totals.removed], || {
                ring.clear();
                spans.clear();
                failed = 0;
            }) {
                for _ in 0..PIPELINE {
                    let i = ops;
                    ops += 1;
                    let span = traced && i % TRACE_EVERY_SVC == 0;
                    let timed = i % LAT_EVERY_SVC == 0;
                    let s0 = if span { now_ns() } else { 0 };
                    let (ns, key) = if tenants {
                        by_tenant.sample(&mut rng)
                    } else {
                        (csds_service::DEFAULT_NAMESPACE, keys.sample(&mut rng))
                    };
                    let op = match mix.sample(&mut rng) {
                        Op::Insert => OpKind::Insert(key),
                        Op::Remove => OpKind::Remove,
                        _ => OpKind::Get,
                    };
                    let t0 = if timed { now_ns() } else { 0 };
                    let submitted = if tenants {
                        client.namespace(ns).submit(key, op)
                    } else {
                        client.submit(key, op)
                    };
                    let t1 = if span { now_ns() } else { 0 };
                    match submitted {
                        Ok(reply) => pending.push(Pending {
                            reply,
                            key,
                            timed,
                            span,
                            s0,
                            t0,
                            t1,
                        }),
                        Err(_) => failed += 1,
                    }
                }
                for p in pending.drain(..) {
                    let w0 = if p.span { now_ns() } else { 0 };
                    let r = p.reply.wait();
                    let w1 = if p.timed { now_ns() } else { 0 };
                    failed += !totals.reply(r, p.key) as u64;
                    if p.timed {
                        ring.push(w1 - p.t0);
                    }
                    if p.span {
                        spans.record(&[p.s0, p.t0, p.t1, w0, w1], &SVC_SPANS);
                    }
                }
            }
            (win.close([ops, totals.removed], failed, spans), totals)
        });
        let window = |len| match events.as_mut() {
            Some(events) => events.watch(len),
            None => std::thread::sleep(len),
        };
        ctl.conduct(&ctx.plan, window, || ());
        handle.join().expect("service client panicked")
    });
    let counters = fold(&mut seg, vec![out], &ctx.rings[..1], 1, ctx.traced);
    // Tenant tables are private to the service; only the default
    // namespace's size can be checked from outside.
    finish_service(&mut seg, svc, &totals, counters, events, !tenants, &ctx);
    seg
}

#[derive(Clone, Copy)]
struct OpenCfg {
    /// Mean arrivals per second.
    rate: f64,
    warmup: Duration,
    len: Duration,
    traced: bool,
}

/// An open-loop request submitted and not yet reaped.
struct Outstanding {
    reply: Completion<Reply<u64>>,
    meta: Arrival,
}

#[derive(Clone, Copy)]
struct Arrival {
    key: u64,
    /// When the request was due, when its submit began and returned.
    due: u64,
    t0: u64,
    t1: u64,
    measured: bool,
    span: bool,
}

/// The open-loop client's books.
struct OpenBooks<'r> {
    ring: &'r mut LatRing,
    spans: SpanBuf,
    totals: ClientTotals,
    failed: u64,
}

impl OpenBooks<'_> {
    /// Account one reply whose successful probe began at `w0` and was
    /// observed at `w1`.
    fn reaped(&mut self, a: Arrival, r: Result<Reply<u64>, ServiceError>, w0: u64, w1: u64) {
        let ok = self.totals.reply(r, a.key);
        if a.measured {
            self.failed += !ok as u64;
            // From when the request was due, not from when it was sent.
            self.ring.push(w1.saturating_sub(a.due));
            if a.span {
                self.spans.record(&[a.due, a.t0, a.t1, w0, w1], &SVC_SPANS);
            }
        }
    }
}

/// True open loop: `get`s become due on a Poisson schedule; the client
/// submits each at its due time and, between arrivals, polls the oldest
/// outstanding reply without ever blocking on it. A stall therefore delays
/// (and is charged to) every request that became due during it.
fn open_loop(
    client: &ServiceClient<u64>,
    keys: &KeySampler,
    seed: u64,
    cfg: OpenCfg,
    ring: &mut LatRing,
) -> (ThreadOut, ClientTotals) {
    let schedule = OpenLoopSchedule::poisson(cfg.rate);
    let mut rng = FastRng::new(seed);
    ring.clear();
    let mut books = OpenBooks {
        ring,
        spans: SpanBuf::new(0),
        totals: ClientTotals::default(),
        failed: 0,
    };
    let (mut attempted, mut arrivals) = (0u64, 0u64);
    let mut outstanding: VecDeque<Outstanding> = VecDeque::with_capacity(4096);

    let begin = now_ns();
    let open = begin + cfg.warmup.as_nanos() as u64;
    let close = open + cfg.len.as_nanos() as u64;
    let mut due = begin;
    let mut opened = false;
    loop {
        let now = now_ns();
        if now >= due {
            if due >= close {
                break;
            }
            let measured = due >= open;
            if measured && !opened {
                opened = true;
                let _ = csds_metrics::take_and_reset();
            }
            let span = cfg.traced && measured && arrivals % TRACE_EVERY_SVC == 0;
            arrivals += 1;
            let key = keys.sample(&mut rng);
            // Spins while the ring is full; the wait then shows as
            // generator lateness and in every latency taken from `due`.
            let submitted = client.get(key);
            let t1 = if span { now_ns() } else { 0 };
            if measured {
                attempted += 1;
                books.totals.gen_late_max = books.totals.gen_late_max.max(now - due);
            }
            match submitted {
                Ok(reply) => outstanding.push_back(Outstanding {
                    reply,
                    meta: Arrival {
                        key,
                        due,
                        t0: now,
                        t1,
                        measured,
                        span,
                    },
                }),
                Err(_) => books.failed += measured as u64,
            }
            books.totals.outstanding_max = books.totals.outstanding_max.max(outstanding.len());
            due += schedule.next_gap_ns(&mut rng);
            continue;
        }
        match outstanding.front_mut().map(|o| o.reply.try_take()) {
            Some(Some(r)) => {
                let w1 = now_ns();
                let o = outstanding.pop_front().expect("front was just probed");
                books.reaped(o.meta, r, now, w1);
            }
            _ => std::hint::spin_loop(),
        }
    }
    books.totals.outstanding_end = outstanding.len();
    let secs = now_ns().saturating_sub(open) as f64 / 1e9;
    // The window is over; block for what was still in flight.
    for o in outstanding {
        let w0 = now_ns();
        let r = o.reply.wait();
        books.reaped(o.meta, r, w0, now_ns());
    }
    let out = ThreadOut {
        ops: attempted,
        failed: books.failed,
        retired: 0,
        secs,
        counters: csds_metrics::take_and_reset(),
        spans: books.spans,
    };
    (out, books.totals)
}

fn svc_open(ctx: SegmentCtx<'_>) -> Segment {
    let mut seg = Segment::default();
    let setup_started = Instant::now();
    let mut events = WorkerEvents::arm(ctx.traced);
    let svc = start_service(derive_seed(ctx.seed, 0));
    let keys = KeySampler::new(KeyDist::Uniform, KEY_RANGE);
    seg.setup_s = setup_started.elapsed().as_secs_f64();
    let ring = &mut ctx.rings[0];
    let plan = ctx.plan;
    let traced = ctx.traced;

    let (out, totals) = std::thread::scope(|s| {
        let (client, keys) = (&svc.client, &keys);
        let seed = derive_seed(ctx.seed, 1);
        let handle = s.spawn(move || {
            let cfg = OpenCfg {
                rate: OPEN_RATE,
                warmup: plan.warmup,
                len: plan.seg_len,
                traced,
            };
            open_loop(client, keys, seed, cfg, ring)
        });
        if let Some(events) = events.as_mut() {
            std::thread::sleep(plan.warmup);
            events.watch(plan.seg_len);
        }
        handle.join().expect("open-loop client panicked")
    });
    let counters = fold(&mut seg, vec![out], &ctx.rings[..1], 1, ctx.traced);
    finish_service(&mut seg, svc, &totals, counters, events, true, &ctx);
    if ctx.probes {
        rate_steps(&mut seg, &ctx);
    }
    seg
}

/// Latency limit a rate must meet at p90 to count as sustained.
const RATE_LIMIT_NS: f64 = 100_000.0;
/// Replies still outstanding when a step ends beyond which its backlog
/// counts as growing.
const BACKLOG_LIMIT: usize = 64;

/// Short open-loop steps at a rate where the worker parks before every
/// request and at one where it never parks, each on a fresh service, and
/// the highest of the three rates that meets the latency limit.
fn rate_steps(seg: &mut Segment, ctx: &SegmentCtx<'_>) {
    let mut ring = LatRing::new();
    let mut step = |rate: f64, stream: u64| {
        let svc = start_service(derive_seed(ctx.seed, 0));
        let keys = KeySampler::new(KeyDist::Uniform, KEY_RANGE);
        let cfg = OpenCfg {
            rate,
            warmup: ctx.plan.step_len / 8,
            len: ctx.plan.step_len,
            traced: false,
        };
        // The coordinating thread is idle by now; it is the client.
        let seed = derive_seed(ctx.seed, stream);
        let (out, totals) = open_loop(&svc.client, &keys, seed, cfg, &mut ring);
        drop(svc);
        let mut lat = ring.samples().to_vec();
        lat.sort_unstable();
        let ok = out.failed == 0
            && percentile(&lat, 0.9) <= RATE_LIMIT_NS
            && totals.outstanding_end <= BACKLOG_LIMIT;
        (percentile(&lat, 0.5), ok)
    };
    let (slow_p50, slow_ok) = step(10_000.0, 2);
    let (fast_p50, fast_ok) = step(400_000.0, 3);
    let mid_ok = seg.failed == 0 && seg.lat_p90 <= RATE_LIMIT_NS;
    let best = [
        (400_000.0, fast_ok),
        (OPEN_RATE, mid_ok),
        (10_000.0, slow_ok),
    ]
    .iter()
    .find(|(_, ok)| *ok)
    .map_or(0.0, |(rate, _)| *rate);
    seg.layer.extend([
        ("service.rate10k.rtt_ns_p50", slow_p50),
        ("service.rate400k.rtt_ns_p50", fast_p50),
        ("service.rate_ok_per_s", best),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn books(ring: &mut LatRing) -> OpenBooks<'_> {
        OpenBooks {
            ring,
            spans: SpanBuf::new(0),
            totals: ClientTotals::default(),
            failed: 0,
        }
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let mut ring = LatRing::new();
        let mut b = books(&mut ring);
        // Due at 1 µs, but the generator only got to it at 5 µs.
        let late = Arrival {
            key: 7,
            due: 1_000,
            t0: 5_000,
            t1: 5_200,
            measured: true,
            span: true,
        };
        b.reaped(late, Ok(Reply::Got(Some(7))), 9_000, 9_500);
        // A warm-up arrival is answered but not measured.
        let warm = Arrival {
            measured: false,
            ..late
        };
        b.reaped(warm, Ok(Reply::Got(None)), 9_600, 9_700);
        assert_eq!((b.failed, b.totals.replies), (0, 2));
        // 8.5 µs from the due time, not 4.5 µs from the send.
        assert_eq!(b.ring.samples(), &[8_500]);
        // The generator's lateness is its own span, ahead of the submit.
        let spans = b.spans.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (1_000, 9_500));
        assert_eq!(spans[1].name, Name::WorkloadSample);
        assert_eq!(spans[1].dur(), 4_000);
        assert_eq!(spans[2].name, Name::ServiceSubmit);
        assert_eq!(spans[3].dur() + spans[4].dur(), 9_500 - 5_200);
    }

    #[test]
    fn wrong_or_failed_replies_count_as_failed() {
        let mut ring = LatRing::new();
        let mut b = books(&mut ring);
        let a = Arrival {
            key: 7,
            due: 0,
            t0: 0,
            t1: 0,
            measured: true,
            span: false,
        };
        b.reaped(a, Ok(Reply::Got(Some(8))), 10, 20);
        b.reaped(a, Err(ServiceError::Disconnected), 10, 20);
        b.reaped(a, Ok(Reply::Got(None)), 10, 20);
        assert_eq!(b.failed, 2);
        assert_eq!(b.totals.replies, 3);
    }

    #[test]
    fn latency_ring_keeps_the_most_recent_samples() {
        let mut ring = LatRing::new();
        assert!(ring.samples().is_empty());
        for i in 0..(LatRing::CAP as u64 + 10) {
            ring.push(i);
        }
        assert_eq!(ring.samples().len(), LatRing::CAP);
        assert_eq!(ring.samples()[9], LatRing::CAP as u32 + 9);
        ring.push(u64::MAX); // clamped, not wrapped
        assert_eq!(ring.samples()[10], u32::MAX);
        ring.clear();
        assert!(ring.samples().is_empty());
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_repeat() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }
}
