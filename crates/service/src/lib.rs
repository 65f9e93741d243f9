//! `csds_service` — an asynchronous request front-end over any
//! [`GuardedMap`]: the ROADMAP's "async front-end on top of
//! `ConcurrentMap`", built for the paper's service scenario.
//!
//! The paper measures structures from a **closed loop**: every worker
//! thread issues an operation, waits for it, issues the next. Real services
//! are **open-loop**: requests arrive on sockets at their own rate and are
//! executed by a small pool of cores, each running many requests per
//! scheduling quantum. This crate provides that shape:
//!
//! ```text
//!  clients (any thread)            core workers (fixed pool)
//!  ───────────────────             ─────────────────────────
//!  client.get(k) ──┐                ┌───────────────────────┐
//!  client.insert ──┼─► MpscRing ──► │ worker 0: MapHandle   │──► map
//!  submit_batch ───┘   (bounded,    │  repin once per batch │
//!        │              per core)   │  drain ≤ max_batch    │
//!        ▼                          └───────────────────────┘
//!   Completion futures ◄── oneshot ──── reply per request
//! ```
//!
//! * **Namespaces** — the front-end is multi-tenant: every request names a
//!   [`NamespaceId`] (keyspace). Namespace [`DEFAULT_NAMESPACE`] (0) is the
//!   map the service was started over; every other namespace is a
//!   tenant-scale [`csds_elastic::ElasticHashTable`] created **lazily on
//!   first operation** in a lock-free namespace directory (an elastic table
//!   *of* tables). Idle namespaces are shrunk back to their one-bucket
//!   floor and, once empty, unlinked and retired through `csds_ebr` — so a
//!   platform cycling through millions of keyspaces only ever pays for the
//!   live ones. See [`ServiceClient::namespace`] and
//!   [`Service::namespace_counts`].
//! * **Routing** — hash(namespace) then hash(key): a non-default namespace
//!   routes **by namespace** to a core, so one worker owns a tenant's whole
//!   lifecycle (creation, every op in submission order, retirement) and no
//!   cross-core create/retire races exist by construction. The default
//!   namespace keeps per-key routing, so the single-map service scales
//!   across all cores exactly as before: all operations on one key execute
//!   on one worker in submission order (per-client-per-key FIFO), and a hot
//!   core's cache holds its keys' nodes.
//! * **Quotas** — [`ServiceConfig::namespace_quota`] bounds each tenant's
//!   entry count. A submission that would grow a full tenant is rejected at
//!   admission with [`ServiceError::Busy`] and the operation handed back in
//!   [`Rejected::op`] (the same backpressure contract as a full ring), and
//!   ticks the workspace `quota_rejects` counter / `QuotaReject` trace
//!   event. The check is admission-time, so it is exact for the
//!   single-client case and bounded-stale (by at most one ring of in-flight
//!   growth) under concurrency.
//! * **Batching** — each worker owns one [`MapHandle`] and re-validates its
//!   guard **once per drained batch** rather than per operation, amortizing
//!   `Guard::repin` the way PathCAS amortizes validation: the mid-ground
//!   between pin-per-op and a never-refreshed (reclamation-stalling) pin.
//!   Workers drop the handle before parking, so an idle core never holds
//!   the epoch back — the library's own session discipline, applied.
//! * **Adaptive batching** — the per-repin drain depth is dynamic: it
//!   doubles (up to [`ServiceConfig::max_batch`]) while batches run full
//!   with a backlog behind them, and decays back to a small floor when the
//!   ring runs cold, so a hot core amortizes harder while a cold core
//!   re-validates promptly. The chosen depth is exported as
//!   [`CoreStats::batch_target`] / [`CoreStats::batch_target_max`].
//! * **Idle policy** — spin-then-park. A worker whose ring runs dry closes
//!   its session (unpins), then polls the ring for at most 50 µs — about
//!   two park → unpark → run round trips — before blocking in the kernel,
//!   so the gaps of a live request stream cost a poll, not a futex wake.
//!   The poll is on only when the host has a hardware thread to spare
//!   (`available_parallelism() > cores`); otherwise the budget is zero and
//!   the worker parks at once, leaving the CPU to its clients. It reads
//!   only consumer-side state ([`csds_sync::mpsc_ring::Consumer::pop_ready`]:
//!   the head and that slot's stamp), so a polling worker does not slow the
//!   submitters down. Before every real park the worker still drops its
//!   routing cache, sweeps idle tenants, flushes its deferred garbage and
//!   publishes its stats; [`CoreStats::parks`] and
//!   [`CoreStats::spin_refills`] say how each idle wait ended.
//! * **Wake-up** — the worker announces a park on its ring's tail
//!   ([`csds_sync::mpsc_ring::Consumer::announce_park`]), and only if
//!   nothing was claimed past its head and the ring is open. The first
//!   push after that takes the announcement down with its claim CAS, and
//!   [`csds_sync::MpscRing::try_push`] tells that one submitter to unpark
//!   the worker. The tail's modification order decides the race, so a
//!   submit pays nothing for the wake-up beyond its claim: no flag beside
//!   the ring, no fence.
//! * **Compound operations** — [`OpKind::Upsert`], [`OpKind::CompareSwap`]
//!   and [`OpKind::FetchAdd`] ride the same rings and execute through the
//!   map's native `upsert_in` / `compare_swap_in` / `rmw_in`, so a counter
//!   bump or a conditional write is one round trip with the same
//!   exactly-once drain guarantees as the basic vocabulary.
//! * **Backpressure** — submission rings are bounded
//!   ([`csds_sync::MpscRing`]); a full ring hands the operation back
//!   ([`ServiceError::Busy`] from [`ServiceClient::try_submit`]) or makes
//!   the blocking [`ServiceClient::submit`] spin with [`Backoff`] until
//!   space frees up.
//! * **Graceful shutdown** — [`Service::shutdown`] stops intake
//!   ([`ServiceError::ShuttingDown`]) and workers drain every already
//!   accepted request before exiting, so accepted operations always
//!   execute exactly once. Intake stops on the ring itself:
//!   [`csds_sync::MpscRing::close`] sets a bit in the tail word that every
//!   producer's claim CAS expects clear, so a racing submission either
//!   claimed its slot first — and is counted in the tail, which the worker
//!   drains to before it exits — or gets its op back. A submission pays
//!   nothing for this: no flag to read, no in-flight counter to raise. If a
//!   request could somehow be dropped unexecuted, its [`Completion`]
//!   resolves to [`ServiceError::Disconnected`] rather than hanging.
//!   Shutdown is `close` and an unconditional `unpark` per core: a closed
//!   ring refuses the worker's park announcement, so only a worker that
//!   announced before the close can be asleep, and the unpark reaches it.
//! * **A request is two cache lines** — the 64-byte ring slot (the op, its
//!   namespace, a timestamp and the completion's sender, line-aligned) and
//!   the completion ([`csds_sync::oneshot`]: one line-aligned cell, a state
//!   word beside the reply, fulfilled with one CAS and freed by whichever
//!   side touches it last — no reference count). Neither shares a line with
//!   its neighbours, so a worker publishing the next reply does not
//!   invalidate the line a client is reading this one from. Freed cells go
//!   to a per-thread pool, so a client in steady state allocates nothing
//!   per request. Nothing else per request crosses cores, takes a lock, or
//!   reads the clock (see the next point).
//! * **Observability** — per-core [`CoreStats`]: ops, batches, batch-size
//!   and queue-depth maxima, and log₂ histograms
//!   ([`csds_metrics::LogHistogram`]) of batch sizes and
//!   submission-to-completion latency. The latency histogram is a
//!   **1-in-8 sample**: each client thread stamps one submission in
//!   eight (irregularly spaced; its first always) and only those are timed
//!   at completion, so the two clock reads — about as dear as the ring
//!   push they would time — are off the other seven requests' path. Read
//!   quantiles from it, not `count()`. Each worker seqlock-publishes its
//!   stats on an amortized cadence, so [`Service::stats_now`] /
//!   [`ServiceClient::stats_now`] return a consistent **live** snapshot
//!   mid-run (`repro watch` builds on this); rejected submissions tick the
//!   workspace-wide `service_busy` counter and emit a `ServiceBusy` trace
//!   event tagged with the saturated core.
//!
//! There is no async runtime in this offline workspace, so the future
//! machinery is hand-rolled in std: [`Completion`] is a
//! plain [`std::future::Future`] and [`block_on`] is a thread-parking
//! executor for examples, tests and closed-loop comparisons.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use csds_core::hashtable::LazyHashTable;
//! use csds_core::GuardedMap;
//! use csds_service::{block_on, OpKind, Service, ServiceConfig};
//!
//! let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(64));
//! let service = Service::start(map, ServiceConfig { cores: 2, ..ServiceConfig::default() });
//! let client = service.client();
//!
//! // Single ops: a Completion future per request.
//! assert!(block_on(client.insert(7, 700).unwrap()).unwrap().inserted());
//! assert_eq!(client.get(7).unwrap().wait().unwrap().value(), Some(700));
//!
//! // Pipelined burst: submit the whole batch, then await the replies.
//! let batch = client
//!     .submit_batch((100..116).map(|k| (k, OpKind::Insert(k * 10))))
//!     .unwrap();
//! for c in batch {
//!     assert!(c.wait().unwrap().inserted());
//! }
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.aggregate().ops, 18);
//! ```

use csds_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use csds_core::{check_user_key, CasOutcome, GuardedMap, MapHandle};
use csds_ebr::Guard;
use csds_elastic::ElasticHashTable;
use csds_metrics::registry::SeqSlot;
use csds_metrics::stat_table;
use csds_sync::mpsc_ring::Consumer;
use csds_sync::{Backoff, CachePadded, MpscRing};

mod oneshot;

pub use oneshot::{block_on, Completion};

/// Identifies one tenant keyspace served by the front-end.
pub type NamespaceId = u64;

/// The namespace the service was started over: the `Arc<M>` map handed to
/// [`Service::start`]. It is never lazily created nor retired, and keeps
/// the original per-key core routing — a single-tenant deployment is just a
/// service that only ever touches this namespace.
pub const DEFAULT_NAMESPACE: NamespaceId = 0;

/// Value types the service can serve [`OpKind::FetchAdd`] against: a
/// round-trip to and from `u64` so a worker can execute the counter RMW
/// generically (`new = from_u64(to_u64(cur) + delta)`, with an absent key
/// treated as 0).
///
/// Workers execute every [`OpKind`] variant generically, so `Service<V>`
/// requires `V: PartialEq + FetchAddValue` even for clients that never
/// submit a `CompareSwap` or `FetchAdd` — a deliberate trade against
/// per-op boxing or a second worker code path. Non-numeric value types
/// implement this with whatever counter reading makes sense for them (or
/// `0` if `FetchAdd` is never routed their way).
pub trait FetchAddValue {
    /// Build a value from a counter reading.
    fn from_u64(x: u64) -> Self;
    /// Read the value as a counter.
    fn to_u64(&self) -> u64;
}

macro_rules! impl_fetch_add_value {
    ($($t:ty),*) => {$(
        impl FetchAddValue for $t {
            fn from_u64(x: u64) -> Self {
                x as $t
            }
            fn to_u64(&self) -> u64 {
                *self as u64
            }
        }
    )*};
}

impl_fetch_add_value!(u64, u32, u16, u8, usize, i64, i32);

/// Why a submission was rejected or a completion failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The service is shutting (or shut) down; the operation was **not**
    /// enqueued and will not execute.
    ShuttingDown,
    /// The target core's submission ring is full right now
    /// ([`ServiceClient::try_submit`] only — the blocking paths spin
    /// instead). The operation was not enqueued; it is handed back in
    /// [`Rejected::op`].
    Busy,
    /// The request was accepted but the service was torn down before a
    /// worker executed it (only possible through [`Service`]'s drop while
    /// futures are still held). The operation did **not** execute.
    Disconnected,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Busy => write!(f, "submission ring full (backpressure)"),
            ServiceError::Disconnected => write!(f, "request dropped before execution"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One map operation, as submitted to the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpKind<V> {
    /// `get(k)` — replies [`Reply::Got`] with the value cloned out (the
    /// reply crosses a thread boundary, so it cannot borrow the map).
    Get,
    /// `put(k, v)` — insert if absent; replies [`Reply::Inserted`].
    Insert(V),
    /// `remove(k)` — replies [`Reply::Removed`] with the removed value.
    Remove,
    /// Insert-or-replace — executed through the map's native
    /// `upsert_in`; replies [`Reply::Upserted`] with the previous value.
    Upsert(V),
    /// Value compare-and-swap — executed through the map's native
    /// `compare_swap_in`; replies [`Reply::Cas`].
    CompareSwap {
        /// The value the key must currently hold for the swap to apply.
        expected: V,
        /// The replacement installed on a match.
        new: V,
    },
    /// Atomic counter bump (absent keys count from 0) — executed as one
    /// closure RMW through the map's native `rmw_in`; replies
    /// [`Reply::Added`] with the post-increment reading.
    FetchAdd(u64),
}

/// A completed operation's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply<V> {
    /// Result of [`OpKind::Get`].
    Got(Option<V>),
    /// Result of [`OpKind::Insert`]: `true` iff the key was absent and the
    /// pair was inserted.
    Inserted(bool),
    /// Result of [`OpKind::Remove`]: the removed value, if present.
    Removed(Option<V>),
    /// Result of [`OpKind::Upsert`]: the value replaced, if any.
    Upserted(Option<V>),
    /// Result of [`OpKind::CompareSwap`].
    Cas(CasOutcome<V>),
    /// Result of [`OpKind::FetchAdd`]: the counter value after the bump.
    Added(u64),
}

impl<V> Reply<V> {
    /// The carried value for `Got`/`Removed`/`Upserted`/`Cas` replies
    /// (`None` for `Inserted` and `Added`).
    pub fn value(self) -> Option<V> {
        match self {
            Reply::Got(v) | Reply::Removed(v) | Reply::Upserted(v) => v,
            Reply::Cas(out) => out.observed(),
            Reply::Inserted(_) | Reply::Added(_) => None,
        }
    }

    /// Whether this reply is `Inserted(true)`.
    pub fn inserted(&self) -> bool {
        matches!(self, Reply::Inserted(true))
    }

    /// The counter reading of an [`Reply::Added`] reply.
    pub fn added(&self) -> Option<u64> {
        match self {
            Reply::Added(n) => Some(*n),
            _ => None,
        }
    }
}

/// A submission that was not accepted: the reason plus the operation handed
/// back so the caller can retry, shed, or redirect it.
#[derive(Debug)]
pub struct Rejected<V> {
    /// Why the submission was rejected.
    pub reason: ServiceError,
    /// The operation, returned to the caller un-executed.
    pub op: OpKind<V>,
}

/// Construction-time tuning for [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Core worker threads (≥ 1). Each owns one submission ring and one
    /// map session.
    pub cores: usize,
    /// Capacity of each core's submission ring (rounded up to a power of
    /// two). A full ring is the backpressure signal.
    pub ring_capacity: usize,
    /// Most requests a worker executes per guard re-validation (one
    /// `repin` per batch). Smaller values bound how stale a worker's epoch
    /// can get under sustained load; larger values amortize harder.
    pub max_batch: usize,
    /// Entry quota per non-default namespace: a submission that would grow
    /// a tenant past this many entries is rejected at admission with
    /// [`ServiceError::Busy`] (op handed back in [`Rejected::op`]).
    /// `usize::MAX` (the default) disables quota checks entirely; the
    /// default namespace — the caller's own map — is never quota'd.
    pub namespace_quota: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cores: 2,
            ring_capacity: 1024,
            max_batch: 64,
            namespace_quota: usize::MAX,
        }
    }
}

/// A queued request: the operation plus its completion and the submission
/// timestamp (for the latency histogram).
struct Request<V> {
    ns: NamespaceId,
    key: u64,
    op: OpKind<V>,
    /// Nanoseconds since [`ServiceShared::started`] at submission, for the
    /// one request in [`LATENCY_SAMPLE_EVERY`] that is timed; 0 for the rest.
    enqueued: u64,
    tx: csds_sync::oneshot::Sender<Reply<V>>,
}

// A request and its slot stamp share one cache line: the ring aligns its
// slots to 64 bytes, so a 57-byte request would double the ring.
const _: () = assert!(std::mem::size_of::<Request<u64>>() <= 56);

// A completion's cell is whole lines: a worker publishing the next reply
// does not invalidate the line a client is reading this one from.
const _: () = assert!(csds_sync::oneshot::cell_size::<Reply<u64>>() % 64 == 0);

/// One submission in this many, per client thread, carries a timestamp
/// and lands in [`CoreStats::latency_ns`]. A clock read costs about as much
/// as the ring push it would time, on both sides of the ring.
const LATENCY_SAMPLE_EVERY: u32 = 8;

/// One step of the per-thread sampling sequence: the next state, and whether
/// the submission that drew `x` is timed. A full-period LCG whose top bits
/// pick one draw in [`LATENCY_SAMPLE_EVERY`] — irregular gaps, so the sample
/// cannot lock onto a period in the client's op pattern the way a fixed
/// stride would — and state 0, a thread's first draw, is picked.
fn sample_step(x: u32) -> (u32, bool) {
    let next = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
    (next, x < u32::MAX / LATENCY_SAMPLE_EVERY)
}

thread_local! {
    static SAMPLE_STATE: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// The `enqueued` stamp for the calling thread's next submission: the time
/// since `started` (never 0) if this one is sampled, else 0.
fn enqueue_stamp(started: Instant) -> u64 {
    let sampled = SAMPLE_STATE.with(|s| {
        let (next, sampled) = sample_step(s.get());
        s.set(next);
        sampled
    });
    if sampled {
        (started.elapsed().as_nanos() as u64).max(1)
    } else {
        0
    }
}

/// Per-core state shared between producers and the owning worker. Padded at
/// the use site: one core's ring endpoints never share a line with a
/// neighbour's.
struct CoreState<V> {
    /// The worker's submission ring. Its tail carries the worker's park
    /// announcement too: the push that takes it down unparks the worker.
    ring: MpscRing<Request<V>>,
    /// The worker's thread handle, for unparking. Set once, before
    /// [`Service::start`] returns and so before any client exists.
    thread: OnceLock<std::thread::Thread>,
    /// Live seqlock-published copy of the worker's [`CoreStats`], refreshed
    /// amortized (every [`PUBLISH_BATCHES`] batches / [`PUBLISH_OPS`] ops)
    /// and before every park, so [`Service::stats_now`] can observe a
    /// consistent snapshot mid-run without touching the worker's hot path.
    live: SeqSlot<CORE_STAT_WORDS>,
}

impl<V> CoreState<V> {
    /// Wake the worker out of `park_timeout`.
    fn unpark(&self) {
        self.thread
            .get()
            .expect("set by Service::start, which precedes every client")
            .unpark();
    }
}

/// State shared by the service, its clients, and its workers.
///
/// Aligned so that inside its `Arc` allocation the struct starts on a line
/// (pair) of its own: the refcount that a per-request
/// `client.namespace(ns)` bumps then shares a line with nothing the workers
/// read (`directory` above all), which is worth 14 % of `svc_tenants64`'s
/// throughput.
#[repr(align(128))]
struct ServiceShared<V: Clone + Send + Sync> {
    cores: Box<[CachePadded<CoreState<V>>]>,
    /// What request timestamps count from.
    started: Instant,
    /// Raised first by shutdown, for [`ServiceClient::is_shutting_down`].
    /// Intake itself stops when each core's ring is closed.
    shutdown: AtomicBool,
    /// The namespace directory: an elastic table *of* tenant tables. Keys
    /// are [`NamespaceId`]s, values the tenant's map. Entries are created
    /// lazily by the owning worker on a namespace's first operation and
    /// removed (node EBR-deferred, table freed at collection) by the same
    /// worker once the tenant idles empty — the table-of-tables reuse of
    /// the elastic substrate the ROADMAP promised.
    directory: ElasticHashTable<Arc<ElasticHashTable<V>>>,
    /// Entry quota per tenant ([`ServiceConfig::namespace_quota`]).
    quota: usize,
    /// Tenant tables created (lifetime total across workers).
    ns_created: AtomicUsize,
    /// Tenant tables retired through EBR (lifetime total).
    ns_retired: AtomicUsize,
}

/// Lifetime namespace-directory counters (see
/// [`Service::namespace_counts`]). `created - retired` equals `live` once
/// the service is quiescent; mid-run `live` is a racy gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NamespaceCounts {
    /// Tenant tables created lazily since the service started.
    pub created: u64,
    /// Tenant tables retired through EBR since the service started.
    pub retired: u64,
    /// Tenant tables currently in the directory (excludes the default
    /// namespace, which is not directory-managed).
    pub live: u64,
}

impl<V: Clone + Send + Sync> ServiceShared<V> {
    fn namespace_counts(&self) -> NamespaceCounts {
        NamespaceCounts {
            created: self.ns_created.load(Ordering::Relaxed) as u64,
            retired: self.ns_retired.load(Ordering::Relaxed) as u64,
            live: self.directory.occupancy() as u64,
        }
    }

    /// Read every core's live seqlock slot. A slot mid-publication after the
    /// spin budget falls back to default (all-zero) stats rather than a torn
    /// read — observers prefer briefly-stale over inconsistent.
    fn stats_now(&self) -> ServiceStats {
        ServiceStats {
            per_core: self
                .cores
                .iter()
                .map(|c| {
                    c.live
                        .read_spin(64)
                        .map(|w| CoreStats::from_words(&w))
                        .unwrap_or_default()
                })
                .collect(),
        }
    }
}

stat_table! {
    /// Monotonic per-core service statistics, collected thread-locally by each
    /// worker and returned by [`Service::shutdown`]. Generated from the table
    /// below by [`csds_metrics::stat_table!`]: field, cross-core merge rule,
    /// Prometheus name and help per row.
    pub struct CoreStats;
    scalars {
        /// Operations executed.
        ops: sum, "csds_service_ops_total", "operations executed by service workers";
        /// Batches drained (≥ 1 op each).
        batches: sum, "csds_service_batches_total", "batches drained by service workers";
        /// Largest single batch.
        max_batch: max, "csds_service_max_batch", "largest single drained batch";
        /// Deepest submission-queue backlog observed at a batch start. A
        /// lower bound: a short batch counts as the whole backlog, though
        /// it may have stopped at a claimed, not yet stamped slot with
        /// published ones behind it.
        max_depth: max, "csds_service_max_depth", "deepest submission-queue backlog at a batch start";
        /// Adaptive drain depth chosen after the last batch (the per-repin
        /// budget the worker is currently willing to execute; see the module
        /// docs on adaptive batching).
        batch_target: max, "csds_service_batch_target", "current adaptive drain depth";
        /// Deepest adaptive drain depth the worker reached.
        batch_target_max: max, "csds_service_batch_target_max", "deepest adaptive drain depth reached";
        /// Operations executed against non-default namespaces (a subset of
        /// [`ops`](CoreStats::ops)).
        ns_ops: sum, "csds_service_ns_ops_total", "operations executed against non-default namespaces";
        /// Tenant tables this worker currently owns (created and not yet
        /// retired). Ownership is disjoint across cores, so the aggregate sum
        /// is the service-wide live tenant count as of each worker's last
        /// publication.
        owned_namespaces: sum, "csds_service_owned_namespaces", "tenant tables currently owned by workers";
        /// Times the worker blocked in the kernel (`park_timeout`) because
        /// its ring stayed empty past the idle-poll budget. Counted as the
        /// park begins, after the pre-park publication, so the live slot of
        /// a parked core trails by the park in progress.
        parks: sum, "csds_service_parks_total", "times a service worker parked on an empty ring";
        /// Idle waits ended by a request arriving inside the idle-poll
        /// budget, i.e. parks avoided.
        spin_refills: sum, "csds_service_spin_refills_total", "idle waits ended by a request arriving inside the spin budget";
    }
    hists {
        /// Distribution of batch sizes (log₂ buckets).
        batch_sizes;
        /// Distribution of submission-to-completion latency in nanoseconds
        /// (log₂ buckets) — over a **sample**: one submission in 8 per
        /// client thread is timed, so read quantiles from it, not
        /// `count()` as an op total ([`ops`](CoreStats::ops) is that).
        latency_ns;
    }
    arrays {}
}

/// Flat word count of a [`CoreStats`] seqlock publication, derived from the
/// table: the scalar rows plus the two log₂ histograms.
const CORE_STAT_WORDS: usize = CoreStats::WORDS;

const _: () = assert!(
    CORE_STAT_WORDS == CoreStats::SCALARS.len() + 2 * csds_metrics::LogHistogram::WORDS,
    "CoreStats word layout drifted from its table"
);

/// Publication cadence: a worker republishes its live [`CoreStats`] slot
/// after this many batches or [`PUBLISH_OPS`] operations, whichever comes
/// first — and always right before parking, so an idle core's final numbers
/// are never stale.
const PUBLISH_BATCHES: u64 = 64;
const PUBLISH_OPS: u64 = 4096;

impl CoreStats {
    /// Mean operations per drained batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }
}

/// Final statistics returned by [`Service::shutdown`].
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// One entry per core worker, in core order.
    pub per_core: Vec<CoreStats>,
}

impl ServiceStats {
    /// All cores merged into one [`CoreStats`].
    pub fn aggregate(&self) -> CoreStats {
        let mut total = CoreStats::default();
        for c in &self.per_core {
            total.merge(c);
        }
        total
    }
}

/// The async front-end: a fixed pool of core workers serving one
/// [`GuardedMap`]. See the [module docs](self).
///
/// Dropping a `Service` without calling [`shutdown`](Service::shutdown)
/// still shuts down gracefully (drains accepted requests, joins workers) —
/// the stats are simply discarded.
pub struct Service<V, M: GuardedMap<V> + ?Sized + 'static = dyn GuardedMap<V>>
where
    V: Clone + Send + Sync + PartialEq + FetchAddValue + 'static,
{
    map: Arc<M>,
    shared: Arc<ServiceShared<V>>,
    workers: Vec<std::thread::JoinHandle<CoreStats>>,
}

impl<V, M> Service<V, M>
where
    V: Clone + Send + Sync + PartialEq + FetchAddValue + 'static,
    M: GuardedMap<V> + ?Sized + 'static,
{
    /// Start `cfg.cores` workers serving `map`. Each worker's thread handle
    /// is registered before this returns, so a [`client`](Service::client)
    /// can always unpark the worker it submits to.
    pub fn start(map: Arc<M>, cfg: ServiceConfig) -> Self {
        let cores = cfg.cores.max(1);
        let max_batch = cfg.max_batch.max(1);
        let shared = Arc::new(ServiceShared {
            cores: (0..cores)
                .map(|_| {
                    CachePadded::new(CoreState {
                        ring: MpscRing::with_capacity(cfg.ring_capacity.max(2)),
                        thread: OnceLock::new(),
                        live: SeqSlot::new(),
                    })
                })
                .collect(),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            // Sized for a handful of hot tenants per shard; elastic growth
            // carries it to thousands and shrink brings it back.
            directory: ElasticHashTable::with_capacity(64),
            quota: cfg.namespace_quota,
            ns_created: AtomicUsize::new(0),
            ns_retired: AtomicUsize::new(0),
        });
        let mut workers = Vec::with_capacity(cores);
        for i in 0..cores {
            let map = Arc::clone(&map);
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("csds-service-{i}"))
                    .spawn(move || worker_loop(i, map, shared, max_batch))
                    .expect("spawning a service core worker"),
            );
        }
        for (i, w) in workers.iter().enumerate() {
            shared.cores[i]
                .thread
                .set(w.thread().clone())
                .expect("each core's thread handle is set once");
        }
        Service {
            map,
            shared,
            workers,
        }
    }

    /// A cheap cloneable submission handle. Clients are `Send`; any thread
    /// may submit.
    pub fn client(&self) -> ServiceClient<V> {
        ServiceClient {
            shared: Arc::clone(&self.shared),
            ns: DEFAULT_NAMESPACE,
        }
    }

    /// The map being served (e.g. for out-of-band reads or len checks).
    pub fn map(&self) -> &Arc<M> {
        &self.map
    }

    /// Current backlog of each core's submission ring (racy; monitoring).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shared.cores.iter().map(|c| c.ring.len()).collect()
    }

    /// Lifetime namespace-directory counters: tenants created, tenants
    /// retired through EBR, and tenants currently live. `created` and
    /// `retired` are exact; `live` is a racy occupancy gauge mid-run.
    pub fn namespace_counts(&self) -> NamespaceCounts {
        self.shared.namespace_counts()
    }

    /// A live snapshot of every core's statistics **while the service is
    /// running** — each worker seqlock-publishes its [`CoreStats`] on an
    /// amortized cadence (and before every park), and this reads every
    /// core's latest consistent publication. Unlike
    /// [`shutdown`](Service::shutdown) it does not stop anything; numbers
    /// may trail the workers by up to one publication interval.
    pub fn stats_now(&self) -> ServiceStats {
        self.shared.stats_now()
    }

    /// Stop intake, drain every accepted request, join the workers, and
    /// return their statistics. Submissions racing this call either enqueue
    /// (and execute) or observe [`ServiceError::ShuttingDown`]; nothing is
    /// accepted-then-dropped.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ServiceStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for c in self.shared.cores.iter() {
            // From here every push to this core is refused, and every push
            // that was not is counted in the ring's tail, which is what the
            // worker drains to before it exits. A closed ring refuses the
            // worker's park announcement, so the unpark only has to reach a
            // worker that announced before the close.
            c.ring.close();
            c.unpark();
        }
        let per_core = self
            .workers
            .drain(..)
            .map(|w| w.join().expect("service core worker panicked"))
            .collect();
        ServiceStats { per_core }
    }
}

impl<V, M> Drop for Service<V, M>
where
    V: Clone + Send + Sync + PartialEq + FetchAddValue + 'static,
    M: GuardedMap<V> + ?Sized + 'static,
{
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            let _ = self.shutdown_inner();
        }
    }
}

/// A submission handle onto a [`Service`], bound to one namespace: the
/// [`DEFAULT_NAMESPACE`] as handed out by [`Service::client`], or a tenant
/// keyspace after [`namespace`](ServiceClient::namespace). Cloneable and
/// `Send`; does not keep the service's workers alive (they belong to the
/// `Service`).
pub struct ServiceClient<V: Clone + Send + Sync> {
    shared: Arc<ServiceShared<V>>,
    ns: NamespaceId,
}

impl<V: Clone + Send + Sync> Clone for ServiceClient<V> {
    fn clone(&self) -> Self {
        ServiceClient {
            shared: Arc::clone(&self.shared),
            ns: self.ns,
        }
    }
}

/// Does executing `op` possibly insert a new key (and so count against a
/// namespace quota)? `Get`/`Remove` only shrink; `CompareSwap` replaces an
/// existing value and fails on absent keys.
fn op_may_insert<V>(op: &OpKind<V>) -> bool {
    matches!(
        op,
        OpKind::Insert(_) | OpKind::Upsert(_) | OpKind::FetchAdd(_)
    )
}

impl<V: Clone + Send + Sync + PartialEq + FetchAddValue + 'static> ServiceClient<V> {
    /// The core a request routes to: hash(namespace) then hash(key). A
    /// non-default namespace routes by namespace alone, giving each tenant
    /// a single owning worker (which serializes its whole create → operate
    /// → retire lifecycle); the default namespace spreads by key. One
    /// Fibonacci multiply either way, using a bit range disjoint from the
    /// elastic table's shard (top byte) and bucket (bit 32+) indices, so
    /// service routing does not correlate with intra-map placement.
    fn core_of(&self, key: u64) -> usize {
        let ns = self.ns;
        let x = if ns == DEFAULT_NAMESPACE { key } else { ns };
        let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 40) as usize) % self.shared.cores.len()
    }

    /// Admission-time quota check: would `op` grow an already-full tenant?
    /// Only consulted for non-default namespaces with a finite quota, and
    /// only for growing ops; ops on keys the tenant already holds pass, so
    /// a full tenant can still be read, updated and drained.
    fn quota_rejects(&self, key: u64, op: &OpKind<V>) -> bool {
        let (sh, ns) = (&self.shared, self.ns);
        if ns == DEFAULT_NAMESPACE || sh.quota == usize::MAX || !op_may_insert(op) {
            return false;
        }
        let guard = csds_ebr::pin();
        let Some(table) = sh.directory.get_in(ns, &guard) else {
            // Not created yet: the op itself can add at most one entry, so
            // only a zero quota can already be breached.
            return sh.quota == 0;
        };
        table.len_in(&guard) >= sh.quota && table.get_in(key, &guard).is_none()
    }

    /// Enqueue one operation on this client's namespace without waiting:
    /// `Ok` with the reply future, or [`Rejected`] with the operation handed
    /// back when the ring is full ([`ServiceError::Busy`]), the namespace is
    /// at its entry quota and `op` would grow it (also
    /// [`ServiceError::Busy`]), or the service is stopping
    /// ([`ServiceError::ShuttingDown`]).
    pub fn try_submit(&self, key: u64, op: OpKind<V>) -> Result<Completion<Reply<V>>, Rejected<V>> {
        let ns = self.ns;
        check_user_key(key);
        let sh = &self.shared;
        if self.quota_rejects(key, &op) {
            csds_metrics::quota_reject(ns);
            return Err(Rejected {
                reason: ServiceError::Busy,
                op,
            });
        }
        // The push itself settles the races with shutdown and with the
        // worker's park: `shutdown` closes the ring, a closed ring refuses
        // the push, and a push that won is counted in the ring's tail, which
        // the worker drains before exiting; a worker parks only on a tail
        // nobody has claimed past its head, and the first claim after that
        // is told to wake it.
        let core_idx = self.core_of(key);
        let core = &sh.cores[core_idx];
        let (tx, rx) = oneshot::completion();
        let pushed = core.ring.try_push(Request {
            ns,
            key,
            op,
            enqueued: enqueue_stamp(sh.started),
            tx,
        });
        match pushed {
            Ok(woke) => {
                if woke {
                    core.unpark();
                }
                Ok(rx)
            }
            Err(back) if core.ring.is_closed() => Err(Rejected {
                reason: ServiceError::ShuttingDown,
                op: back.op,
            }),
            Err(back) => {
                // Backpressure is a first-class signal: count it and trace
                // which core's ring saturated.
                csds_metrics::service_busy(core_idx as u64);
                Err(Rejected {
                    reason: ServiceError::Busy,
                    op: back.op,
                })
            }
        }
    }

    /// Enqueue one operation on this client's namespace, spinning (with
    /// [`Backoff`]) while the target ring is full — backpressure as
    /// blocking. Fails on shutdown, and **a quota breach is returned, not
    /// spun on**: a ring drains by itself, a full tenant does not — the
    /// caller decides whether to shed, redirect, or free space.
    pub fn submit(&self, key: u64, op: OpKind<V>) -> Result<Completion<Reply<V>>, Rejected<V>> {
        let mut op = op;
        let mut backoff = Backoff::new();
        loop {
            match self.try_submit(key, op) {
                Ok(c) => return Ok(c),
                Err(r) if r.reason == ServiceError::Busy && !self.quota_rejects(key, &r.op) => {
                    op = r.op;
                    backoff.snooze();
                }
                Err(r) => return Err(r),
            }
        }
    }

    /// This client rebound to namespace `ns`: the same vocabulary
    /// ([`get`](ServiceClient::get), [`insert`](ServiceClient::insert),
    /// ...) against one tenant keyspace. Cheap; clone freely.
    pub fn namespace(&self, ns: NamespaceId) -> ServiceClient<V> {
        ServiceClient {
            shared: Arc::clone(&self.shared),
            ns,
        }
    }

    /// Lifetime namespace-directory counters; see
    /// [`Service::namespace_counts`].
    pub fn namespace_counts(&self) -> NamespaceCounts {
        self.shared.namespace_counts()
    }

    /// `get(k)` in this client's namespace; resolves to [`Reply::Got`].
    pub fn get(&self, key: u64) -> Result<Completion<Reply<V>>, Rejected<V>> {
        self.submit(key, OpKind::Get)
    }

    /// `put(k, v)` through the service; resolves to [`Reply::Inserted`].
    pub fn insert(&self, key: u64, value: V) -> Result<Completion<Reply<V>>, Rejected<V>> {
        self.submit(key, OpKind::Insert(value))
    }

    /// `remove(k)` through the service; resolves to [`Reply::Removed`].
    pub fn remove(&self, key: u64) -> Result<Completion<Reply<V>>, Rejected<V>> {
        self.submit(key, OpKind::Remove)
    }

    /// Insert-or-replace through the service; resolves to
    /// [`Reply::Upserted`] with the previous value.
    pub fn upsert(&self, key: u64, value: V) -> Result<Completion<Reply<V>>, Rejected<V>> {
        self.submit(key, OpKind::Upsert(value))
    }

    /// Value compare-and-swap through the service; resolves to
    /// [`Reply::Cas`].
    pub fn compare_swap(
        &self,
        key: u64,
        expected: V,
        new: V,
    ) -> Result<Completion<Reply<V>>, Rejected<V>> {
        self.submit(key, OpKind::CompareSwap { expected, new })
    }

    /// Atomic counter bump through the service (absent keys count from 0);
    /// resolves to [`Reply::Added`] with the post-increment reading.
    pub fn fetch_add(&self, key: u64, delta: u64) -> Result<Completion<Reply<V>>, Rejected<V>> {
        self.submit(key, OpKind::FetchAdd(delta))
    }

    /// Submit a pipelined burst: every operation is enqueued (blocking on
    /// backpressure) before any reply is awaited, so one client keeps
    /// several core workers busy at once. Returns the completions in
    /// submission order. On shutdown mid-batch the already-enqueued prefix
    /// still executes; the rejected operation is handed back.
    pub fn submit_batch(
        &self,
        ops: impl IntoIterator<Item = (u64, OpKind<V>)>,
    ) -> Result<Vec<Completion<Reply<V>>>, Rejected<V>> {
        let ops = ops.into_iter();
        let mut out = Vec::with_capacity(ops.size_hint().0);
        for (key, op) in ops {
            out.push(self.submit(key, op)?);
        }
        Ok(out)
    }

    /// Whether the service has begun shutting down.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Current backlog of each core's submission ring (racy; monitoring).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shared.cores.iter().map(|c| c.ring.len()).collect()
    }

    /// A live snapshot of every core's statistics; see
    /// [`Service::stats_now`]. Available from any client so monitoring does
    /// not need a handle on the `Service` itself.
    pub fn stats_now(&self) -> ServiceStats {
        self.shared.stats_now()
    }
}

/// Execute one operation against any [`GuardedMap`] under `guard`. Shared
/// by the default-namespace path (the service's own map) and the tenant
/// path (directory tables) — one vocabulary, any map.
fn execute_op<V, T>(map: &T, key: u64, op: OpKind<V>, guard: &Guard) -> Reply<V>
where
    V: Clone + Send + Sync + PartialEq + FetchAddValue + 'static,
    T: GuardedMap<V> + ?Sized,
{
    match op {
        OpKind::Get => Reply::Got(map.get_in(key, guard).cloned()),
        OpKind::Insert(v) => Reply::Inserted(map.insert_in(key, v, guard)),
        OpKind::Remove => Reply::Removed(map.remove_in(key, guard)),
        OpKind::Upsert(v) => Reply::Upserted(map.upsert_in(key, v, guard)),
        OpKind::CompareSwap { expected, new } => {
            Reply::Cas(map.compare_swap_in(key, &expected, new, guard))
        }
        OpKind::FetchAdd(delta) => {
            let out = map.rmw_in(
                key,
                &mut |cur| Some(V::from_u64(cur.map_or(0, V::to_u64).wrapping_add(delta))),
                guard,
            );
            Reply::Added(out.cur.map_or(0, V::to_u64))
        }
    }
}

/// Routing entries a worker keeps for the tenants it owns. The cache is a
/// deliberately **pin-free** LRU: entries are `(namespace, Arc<table>)`
/// pairs, *not* live `MapHandle`s — N live handles on one thread would make
/// every repin inert and stall reclamation process-wide (the PR 6 bug
/// class). The worker's single session guard executes ops on every cached
/// table; parking drops both the cache and the session, so an idle core
/// holds neither the epoch nor retired tenants' memory.
struct TenantRouter<V: Clone + Send + Sync> {
    /// MRU-first routing cache over the directory (bounded at
    /// [`HANDLE_CACHE_CAP`]).
    cache: Vec<(NamespaceId, Arc<ElasticHashTable<V>>)>,
    /// Every namespace this worker created and has not yet retired.
    /// Ownership is exclusive (namespace-hash routing), so nobody else
    /// creates or retires these.
    owned: Vec<NamespaceId>,
    /// Rotating cursor into `owned` for budgeted idle sweeps.
    sweep_at: usize,
}

/// Cached routing entries per worker. Small on purpose: a miss is one
/// directory lookup, while an unbounded cache would anchor every idle
/// tenant's memory to the worker.
const HANDLE_CACHE_CAP: usize = 32;

/// Most owned namespaces examined per idle sweep, so a worker owning
/// thousands of tenants bounds its pre-park housekeeping and spreads the
/// scan across parks via `sweep_at`.
const IDLE_SWEEP_BUDGET: usize = 256;

impl<V: Clone + Send + Sync + 'static> TenantRouter<V> {
    fn new() -> Self {
        TenantRouter {
            cache: Vec::with_capacity(HANDLE_CACHE_CAP),
            owned: Vec::new(),
            sweep_at: 0,
        }
    }

    /// The tenant table for `ns`, from the cache, the directory, or (first
    /// operation on this namespace) created lazily and published. Only the
    /// owning worker calls this, so a miss-then-create cannot race another
    /// creator; the insert is still the atomic lock-free path, so the
    /// invariant is checked, not assumed.
    fn resolve(
        &mut self,
        ns: NamespaceId,
        shared: &ServiceShared<V>,
        guard: &Guard,
    ) -> Arc<ElasticHashTable<V>> {
        if let Some(pos) = self.cache.iter().position(|(n, _)| *n == ns) {
            let entry = self.cache.remove(pos);
            let table = Arc::clone(&entry.1);
            self.cache.insert(0, entry);
            return table;
        }
        let table = match shared.directory.get_in(ns, guard) {
            Some(t) => Arc::clone(t),
            None => {
                let fresh = Arc::new(ElasticHashTable::tenant());
                if shared.directory.insert_in(ns, Arc::clone(&fresh), guard) {
                    shared.ns_created.fetch_add(1, Ordering::Relaxed);
                    csds_metrics::namespace_create(ns);
                    self.owned.push(ns);
                    fresh
                } else {
                    // Namespace-hash routing makes this unreachable (one
                    // creator per namespace), but losing the race cleanly —
                    // drop the loser's table, adopt the winner's — keeps
                    // correctness independent of the routing policy.
                    Arc::clone(
                        shared
                            .directory
                            .get_in(ns, guard)
                            .expect("a racing creator published this namespace"),
                    )
                }
            }
        };
        self.cache.insert(0, (ns, Arc::clone(&table)));
        self.cache.truncate(HANDLE_CACHE_CAP);
        table
    }

    /// Pre-park housekeeping over (a budgeted slice of) the owned tenants:
    /// an **empty** tenant is unlinked from the directory and retired — the
    /// removed node carries the last directory `Arc`, so the table itself
    /// is freed by EBR at collection, after any in-flight readers of the
    /// directory bucket are done. A non-empty tenant is compacted back
    /// toward its one-bucket floor instead (idle tables see no ops, so no
    /// op-driven resize would ever shrink them).
    fn idle_sweep(&mut self, shared: &ServiceShared<V>, guard: &Guard) -> u64 {
        let mut retired = 0u64;
        let budget = self.owned.len().min(IDLE_SWEEP_BUDGET);
        for _ in 0..budget {
            if self.owned.is_empty() {
                break;
            }
            if self.sweep_at >= self.owned.len() {
                self.sweep_at = 0;
            }
            let ns = self.owned[self.sweep_at];
            let Some(table) = shared.directory.get_in(ns, guard).map(Arc::clone) else {
                // Unreachable while ownership is exclusive; tolerate it.
                self.owned.swap_remove(self.sweep_at);
                continue;
            };
            if table.is_empty_in(guard) {
                // Exclusive ownership means nothing can repopulate the
                // table between the emptiness check and the unlink.
                drop(shared.directory.remove_in(ns, guard));
                self.owned.swap_remove(self.sweep_at);
                shared.ns_retired.fetch_add(1, Ordering::Relaxed);
                csds_metrics::namespace_retire(ns);
                retired += 1;
            } else {
                table.compact_in(guard);
                self.sweep_at += 1;
            }
        }
        if retired > 0 {
            // Drop routing entries for retired tenants (and any stale
            // neighbours) wholesale; the cache refills on demand.
            let owned = &self.owned;
            self.cache.retain(|(n, _)| owned.contains(n));
        }
        retired
    }
}

/// How long an idle worker polls its ring before blocking in the kernel:
/// about twice this host's park → unpark → run round trip (25 µs,
/// `service.rate10k.rtt_ns_p50` in `benchmark/README.md`), the competitive
/// spin-then-block bound — a wait that ends in a park costs at most three
/// times what parking at once would have.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Polls between clock reads (and yields) while an idle worker spins.
const POLLS_PER_YIELD: u32 = 64;

/// Poll `ring` until a request is ready (`true`) or `budget` has passed.
/// Yields between rounds of polls, as [`Backoff`] does once it escalates,
/// so a client thread that shares this CPU is not starved. Deliberately
/// does not watch for `close`: the poll touches no line a producer writes
/// before its publishing stamp, and the caller asks `is_closed` when the
/// budget ends.
fn poll_for_request<T>(ring: &Consumer<'_, T>, budget: Duration) -> bool {
    if budget.is_zero() {
        return false;
    }
    let started = Instant::now();
    loop {
        for _ in 0..POLLS_PER_YIELD {
            if ring.pop_ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if started.elapsed() >= budget {
            return false;
        }
        std::thread::yield_now();
    }
}

/// The core worker: drain batches from the owned ring, execute them against
/// the routed map through one reused session, sleep when idle, exit when
/// the service shuts down *and* nothing more can arrive.
fn worker_loop<V, M>(
    core_idx: usize,
    map: Arc<M>,
    shared: Arc<ServiceShared<V>>,
    max_batch: usize,
) -> CoreStats
where
    V: Clone + Send + Sync + PartialEq + FetchAddValue + 'static,
    M: GuardedMap<V> + ?Sized + 'static,
{
    let core = &shared.cores[core_idx];
    let ring = core.ring.consumer().expect("a core's ring has one worker");
    let mut stats = CoreStats::default();
    // The worker's map session. Dropped (unpinning the thread) before every
    // park and re-opened on wake: an idle core must never hold the global
    // epoch back — the `MapHandle` discipline the library documents,
    // applied to the pool.
    let mut session: Option<MapHandle<'_, V, M>> = None;
    // Routing state for the tenants this worker owns (see [`TenantRouter`]).
    let mut tenants: TenantRouter<V> = TenantRouter::new();
    // Ops executed since the last pre-park flush: their removes deferred
    // garbage into this thread's local EBR queue, which nobody else can
    // drain while we sleep. Also what tells the end of a live stream (poll
    // before parking) from a timeout wake-up (don't).
    let mut dirty = false;
    let mut batch: Vec<Request<V>> = Vec::with_capacity(max_batch);
    // Adaptive drain depth: start shallow, double (up to `max_batch`) while
    // the ring stays hot — a full drain that leaves a backlog — and decay
    // back to the floor when it runs cold, so a bursty core amortizes its
    // repin harder while a trickling core re-validates (and parks) sooner.
    let floor = max_batch.clamp(1, 8);
    let mut target = floor;
    // Operations executed since the live stats slot was last published.
    let mut since_publish = 0u64;
    // Idle-poll budget: zero unless a hardware thread is left over once
    // every core worker has one. "Spare" counts workers only, not client
    // threads: two busy clients and one worker on two CPUs still read as
    // spare, which is why the poll yields. Read here, on the worker,
    // because it costs a syscall and a cgroup read that `Service::start`
    // should not pay.
    let spare_thread =
        std::thread::available_parallelism().map_or(1, |n| n.get()) > shared.cores.len();
    let spin_budget = if spare_thread {
        SPIN_BUDGET
    } else {
        Duration::ZERO
    };
    loop {
        let processed = ring.pop_batch(&mut batch, target) as u64;
        if processed > 0 {
            // Backlog at batch start. A batch that came out short drained
            // the ring up to the first unpublished slot, so `processed` is
            // taken as the backlog (an under-count if stamped slots sat
            // behind an unstamped one); only a full batch surely left more
            // behind, and only then is the producers' tail worth a read (a
            // coherence miss for the next submit's CAS).
            let full = processed == target as u64;
            let depth = if full {
                processed + core.ring.len() as u64
            } else {
                processed
            };
            let h = session.get_or_insert_with(|| MapHandle::new(&*map));
            // One guard re-validation per batch — the amortization this
            // front-end exists to provide.
            h.refresh();
            let guard = h.guard();
            for req in batch.drain(..) {
                // Routing dispatch: the default namespace is the service's
                // own map (per-key routing, zero-cost compatibility path);
                // every other namespace resolves through the directory.
                let reply = if req.ns == DEFAULT_NAMESPACE {
                    execute_op(&*map, req.key, req.op, guard)
                } else {
                    let table = tenants.resolve(req.ns, &shared, guard);
                    stats.ns_ops += 1;
                    execute_op(&*table, req.key, req.op, guard)
                };
                if req.enqueued != 0 {
                    let now = shared.started.elapsed().as_nanos() as u64;
                    stats.latency_ns.record(now.saturating_sub(req.enqueued));
                }
                req.tx.send(reply);
                // The harness contract: one boundary per operation, so this
                // thread's lock/restart/epoch counters reach the registry.
                csds_metrics::op_boundary();
            }
            stats.owned_namespaces = tenants.owned.len() as u64;
            dirty = true;
            stats.ops += processed;
            stats.batches += 1;
            stats.max_batch = stats.max_batch.max(processed);
            stats.max_depth = stats.max_depth.max(depth);
            stats.batch_sizes.record(processed);
            // Adapt the drain depth to the observed backlog.
            let more = ring.pop_ready();
            if full && more {
                target = (target * 2).min(max_batch);
            } else if !more {
                target = floor.max(target / 2);
            }
            stats.batch_target = target as u64;
            stats.batch_target_max = stats.batch_target_max.max(target as u64);
            // Amortized live publication: one seqlock write per
            // PUBLISH_BATCHES batches (or PUBLISH_OPS ops on huge batches),
            // so observers see fresh numbers without the worker paying a
            // per-op cost.
            since_publish += processed;
            if stats.batches % PUBLISH_BATCHES == 0 || since_publish >= PUBLISH_OPS {
                core.live.publish(&stats.to_words());
                since_publish = 0;
            }
            continue;
        }
        // Idle. Close the session first (unpin): a waiting core never holds
        // the epoch back, whether it waits in the poll below or in the
        // kernel. Then spin-then-block: the gaps of a live request stream
        // are shorter than a park/unpark round trip, so poll for about two
        // of those before paying for one. Only a worker that has executed
        // something since it last prepared to park polls: one the park
        // timeout woke to an empty ring goes straight back to sleep.
        target = floor.max(target / 2);
        stats.batch_target = target as u64;
        session = None;
        if dirty && poll_for_request(&ring, spin_budget) {
            stats.spin_refills += 1;
            continue;
        }
        // Exit only when the ring is closed and everything it ever accepted
        // is out. `len` counts claimed slots, so a producer that won its
        // claim against `close` but has not stamped yet keeps the worker
        // here (its park announcement is refused below, and it goes round
        // again).
        if core.ring.is_closed() && core.ring.is_empty() {
            core.live.publish(&stats.to_words());
            break;
        }
        // Park preparation, in hazard order: with the session closed
        // (above), drop the routing cache (no `Arc`s anchoring retired
        // tenants), *then* take a fresh short-lived pin for tenant
        // housekeeping. The sweep must not run under the session guard — a
        // long-lived outer guard would make its own `remove_in` deferrals
        // uncollectable (nested pins skip maintenance), exactly the stall
        // the EBR watchdog exists to catch.
        tenants.cache.clear();
        // A worker whose last flush could not empty its queue (a pinned
        // peer held the epoch) retries on every timeout wake-up until it
        // has: nobody else can execute that queue.
        if dirty || !tenants.owned.is_empty() || csds_ebr::local_garbage_items() > 0 {
            if !tenants.owned.is_empty() {
                let guard = csds_ebr::pin();
                let retired = tenants.idle_sweep(&shared, &guard);
                drop(guard);
                if retired > 0 {
                    stats.owned_namespaces = tenants.owned.len() as u64;
                    since_publish += 1; // force a publish below
                }
            }
            // Drain this worker's deferred garbage (removed nodes, retired
            // tenant tables) before parking: only the retiring thread can
            // execute its local queue, so a parked worker would warehouse
            // that memory for the duration of its sleep. Each flush
            // advances the epoch at most one step and a bag sealed at
            // epoch E ripens at E+2, so walk a few short pins forward —
            // bounded, because a genuinely pinned peer can legitimately
            // hold the epoch (the next timeout wake-up tries again).
            for _ in 0..4 {
                if csds_ebr::local_garbage_items() == 0 {
                    break;
                }
                csds_ebr::pin().flush();
            }
            dirty = false;
        }
        // Publish before parking: an idle core's slot holds its final
        // numbers, not up to PUBLISH_BATCHES-stale ones.
        if since_publish > 0 {
            core.live.publish(&stats.to_words());
            since_publish = 0;
        }
        // Announce the park on the ring's tail. It is refused if anything
        // was claimed since the drain, stamped or not, or if the ring is
        // closed; otherwise the first push from here on unparks us. A
        // refusal behind a slot that is not stamped yet yields, so that
        // the producer can finish on a CPU it may share with this worker.
        // The park timeout is a belt-and-braces bound, not the wake-up
        // mechanism.
        if !ring.announce_park() {
            if !ring.pop_ready() {
                std::thread::yield_now();
            }
            continue;
        }
        stats.parks += 1;
        std::thread::park_timeout(Duration::from_millis(1));
        ring.withdraw_park();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use csds_core::hashtable::LazyHashTable;
    use csds_core::ConcurrentMap;

    fn small() -> ServiceConfig {
        ServiceConfig {
            cores: 2,
            ring_capacity: 8,
            max_batch: 4,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn basic_ops_roundtrip() {
        let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(64));
        let svc = Service::start(Arc::clone(&map), small());
        let client = svc.client();
        assert!(block_on(client.insert(1, 10).unwrap()).unwrap().inserted());
        assert!(!block_on(client.insert(1, 11).unwrap()).unwrap().inserted());
        assert_eq!(
            block_on(client.get(1).unwrap()).unwrap(),
            Reply::Got(Some(10))
        );
        assert_eq!(
            block_on(client.remove(1).unwrap()).unwrap(),
            Reply::Removed(Some(10))
        );
        assert_eq!(block_on(client.get(1).unwrap()).unwrap(), Reply::Got(None));
        let stats = svc.shutdown();
        assert_eq!(stats.aggregate().ops, 5);
        assert!(stats.aggregate().batches >= 1);
        // The latency histogram is a sample. This thread submitted nothing
        // before and each op waited for its reply (no `Busy` retry draws
        // again), so which of the five were timed is known.
        assert_eq!(stats.aggregate().latency_ns.count(), sampled_among(5));
    }

    /// How many of a fresh thread's first `n` submissions are timed.
    fn sampled_among(n: usize) -> u64 {
        let mut x = 0;
        (0..n)
            .filter(|_| {
                let (next, sampled) = sample_step(x);
                x = next;
                sampled
            })
            .count() as u64
    }

    #[test]
    fn latency_sampling_takes_the_first_and_about_one_in_eight() {
        assert_eq!(sampled_among(1), 1, "a thread's first submission is timed");
        let n = 1 << 16;
        let expect = n as u64 / u64::from(LATENCY_SAMPLE_EVERY);
        let got = sampled_among(n);
        assert!(
            got.abs_diff(expect) < expect / 8,
            "{got} of {n} sampled, expected about {expect}"
        );
    }

    #[test]
    fn batch_pipelines_and_preserves_per_key_order() {
        let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(64));
        let svc = Service::start(Arc::clone(&map), small());
        let client = svc.client();
        // Insert then remove then insert the same key in one burst: per-key
        // routing guarantees they execute in submission order.
        let batch = client
            .submit_batch(vec![
                (5, OpKind::Insert(50)),
                (5, OpKind::Remove),
                (5, OpKind::Insert(51)),
            ])
            .unwrap();
        let replies: Vec<_> = batch.into_iter().map(|c| c.wait().unwrap()).collect();
        assert_eq!(
            replies,
            vec![
                Reply::Inserted(true),
                Reply::Removed(Some(50)),
                Reply::Inserted(true),
            ]
        );
        assert_eq!(map.get(5), Some(51));
        svc.shutdown();
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(64));
        let svc = Service::start(map, small());
        let client = svc.client();
        assert!(block_on(client.insert(3, 30).unwrap()).unwrap().inserted());
        svc.shutdown();
        assert!(client.is_shutting_down());
        let err = client.get(3).unwrap_err();
        assert_eq!(err.reason, ServiceError::ShuttingDown);
        assert!(matches!(err.op, OpKind::Get));
    }

    #[test]
    fn many_clients_many_keys() {
        const CLIENTS: usize = 4;
        const PER_CLIENT: u64 = 2_000;
        let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(1024));
        let svc = Service::start(Arc::clone(&map), ServiceConfig::default());
        let mut threads = Vec::new();
        for c in 0..CLIENTS as u64 {
            let client = svc.client();
            threads.push(std::thread::spawn(move || {
                // Disjoint key ranges per client: every insert must succeed.
                let base = c * PER_CLIENT;
                let batch = client
                    .submit_batch((0..PER_CLIENT).map(|i| (base + i, OpKind::Insert(base + i))))
                    .unwrap();
                for f in batch {
                    assert!(f.wait().unwrap().inserted());
                }
                for i in 0..PER_CLIENT {
                    let got = client.get(base + i).unwrap().wait().unwrap();
                    assert_eq!(got, Reply::Got(Some(base + i)));
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(map.len(), (CLIENTS as u64 * PER_CLIENT) as usize);
        let stats = svc.shutdown();
        assert_eq!(
            stats.aggregate().ops,
            2 * CLIENTS as u64 * PER_CLIENT,
            "every accepted op must execute exactly once"
        );
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        // Accepted-then-shutdown requests must still execute (workers drain
        // their rings before exiting).
        for _ in 0..20 {
            let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(256));
            let svc = Service::start(Arc::clone(&map), ServiceConfig::default());
            let client = svc.client();
            let pending = client
                .submit_batch((0..128).map(|k| (k, OpKind::Insert(k))))
                .unwrap();
            let stats = svc.shutdown(); // races the workers' draining
            for f in pending {
                assert!(f.wait().unwrap().inserted(), "accepted op dropped");
            }
            assert_eq!(map.len(), 128);
            assert_eq!(stats.aggregate().ops, 128);
        }
    }

    #[test]
    fn stats_now_sees_live_progress() {
        let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(256));
        let svc = Service::start(Arc::clone(&map), small());
        let client = svc.client();
        // Idle service: slots hold their initial (all-zero) publication.
        assert_eq!(svc.stats_now().aggregate().ops, 0);
        let batch = client
            .submit_batch((0..512).map(|k| (k, OpKind::Insert(k))))
            .unwrap();
        for c in batch {
            assert!(c.wait().unwrap().inserted());
        }
        // Every reply resolved, so all 512 ops executed; the workers then go
        // idle and publish on the park path. Poll briefly for that.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let live = client.stats_now().aggregate();
            if live.ops == 512 {
                assert!(live.batches >= 1);
                // A sample of the 512 (and `submit` draws again on every
                // `Busy` retry, so not a fixed one).
                let timed = live.latency_ns.count();
                assert!((1..=512).contains(&timed), "{timed} timed");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "live stats never caught up: {} of 512 ops visible",
                live.ops
            );
            std::thread::yield_now();
        }
        // The live snapshot and the shutdown truth agree.
        let fin = svc.shutdown().aggregate();
        assert_eq!(fin.ops, 512);
    }

    #[test]
    fn busy_rejections_are_counted() {
        let _ = csds_metrics::take_and_reset();
        let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(64));
        // One core, tiny ring: a fast burst of try_submits must hit Busy.
        let svc = Service::start(
            Arc::clone(&map),
            ServiceConfig {
                cores: 1,
                ring_capacity: 2,
                max_batch: 1,
                ..ServiceConfig::default()
            },
        );
        let client = svc.client();
        let mut rejected = 0u64;
        let mut accepted = Vec::new();
        for k in 0..512u64 {
            match client.try_submit(k, OpKind::Insert(k)) {
                Ok(c) => accepted.push(c),
                Err(r) => {
                    assert_eq!(r.reason, ServiceError::Busy);
                    rejected += 1;
                }
            }
        }
        for c in accepted {
            c.wait().unwrap();
        }
        svc.shutdown();
        let snap = csds_metrics::take_and_reset();
        assert_eq!(
            snap.service_busy, rejected,
            "every Busy rejection must tick the service_busy counter"
        );
    }

    #[test]
    fn core_stats_layout_follows_the_table() {
        csds_metrics::table::assert_layout(
            CoreStats::SCALARS,
            CoreStats::from_words,
            CoreStats::to_words,
            CoreStats::merge,
        );
    }

    #[test]
    fn reply_helpers() {
        assert_eq!(Reply::Got(Some(3)).value(), Some(3));
        assert_eq!(Reply::<u64>::Got(None).value(), None);
        assert_eq!(Reply::Removed(Some(4)).value(), Some(4));
        assert_eq!(Reply::<u64>::Inserted(true).value(), None);
        assert!(Reply::<u64>::Inserted(true).inserted());
        assert!(!Reply::<u64>::Inserted(false).inserted());
        assert!(!Reply::<u64>::Got(Some(1)).inserted());
    }

    #[test]
    fn namespaces_roundtrip_and_isolate_from_default_map() {
        let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(64));
        let svc = Service::start(Arc::clone(&map), small());
        let client = svc.client();
        let ns_a = client.namespace(7);
        let ns_b = client.namespace(8);
        // Same key, three homes: the default map and two tenants.
        assert!(block_on(client.insert(1, 100).unwrap()).unwrap().inserted());
        assert!(block_on(ns_a.insert(1, 200).unwrap()).unwrap().inserted());
        assert!(block_on(ns_b.insert(1, 300).unwrap()).unwrap().inserted());
        assert_eq!(
            block_on(client.get(1).unwrap()).unwrap(),
            Reply::Got(Some(100))
        );
        assert_eq!(
            block_on(ns_a.get(1).unwrap()).unwrap(),
            Reply::Got(Some(200))
        );
        assert_eq!(
            block_on(ns_b.get(1).unwrap()).unwrap(),
            Reply::Got(Some(300))
        );
        let counts = svc.namespace_counts();
        assert_eq!(counts.created, 2, "two tenants were lazily created");
        assert_eq!(counts.live, 2);
        // Removing ns_a's key empties that tenant; an idle sweep may retire
        // it, after which a fresh op revives it transparently.
        assert_eq!(
            block_on(ns_a.remove(1).unwrap()).unwrap(),
            Reply::Removed(Some(200))
        );
        assert_eq!(block_on(ns_a.get(1).unwrap()).unwrap(), Reply::Got(None));
        svc.shutdown();
    }

    #[test]
    fn namespace_quota_hands_the_op_back() {
        let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(64));
        let svc = Service::start(
            Arc::clone(&map),
            ServiceConfig {
                namespace_quota: 2,
                ..small()
            },
        );
        let client = svc.client();
        let ns = client.namespace(42);
        assert!(block_on(ns.insert(1, 1).unwrap()).unwrap().inserted());
        assert!(block_on(ns.insert(2, 2).unwrap()).unwrap().inserted());
        // At quota: a third distinct key is refused with the op handed back…
        match ns.try_submit(3, OpKind::Insert(3)) {
            Err(rej) => {
                assert_eq!(rej.reason, ServiceError::Busy);
                assert!(matches!(rej.op, OpKind::Insert(3)));
            }
            Ok(_) => panic!("insert beyond quota must be rejected"),
        }
        // …while updates to resident keys and reads still pass.
        assert!(!block_on(ns.insert(1, 9).unwrap()).unwrap().inserted());
        assert_eq!(block_on(ns.get(2).unwrap()).unwrap(), Reply::Got(Some(2)));
        // The default namespace is never quota'd.
        for k in 0..8 {
            assert!(block_on(client.insert(k, k).unwrap()).unwrap().inserted());
        }
        svc.shutdown();
    }

    #[test]
    fn reserved_keys_are_rejected_at_submission() {
        let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(16));
        let svc = Service::start(map, small());
        let client = svc.client();
        for reserved in [u64::MAX, u64::MAX - 1] {
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = client.get(reserved);
            }))
            .is_err());
        }
        svc.shutdown();
    }
}
