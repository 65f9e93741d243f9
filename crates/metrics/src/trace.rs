//! Structured event tracing: per-thread bounded rings of timestamped
//! events, exported as chrome://tracing JSON.
//!
//! Tracing is **off by default** and costs one relaxed flag load per
//! potential event while off (compiled out entirely under the `off`
//! feature). When armed with [`set_tracing`], instrumented code records
//! [`Event`]s — epoch advances, elastic migration progress, optimistic
//! fallbacks, service backpressure, repin stalls — into a per-thread
//! bounded ring (oldest events are dropped first, so a post-mortem keeps
//! the *end* of the run). [`drain_all`] collects every thread's ring and
//! [`chrome_trace_json`] renders the result for `chrome://tracing` /
//! Perfetto's legacy JSON loader.
//!
//! The rings live behind per-thread mutexes that only the owning thread
//! locks on the hot path (uncontended; a drainer contends only at export
//! time). That is deliberate: tracing is an opt-in diagnostic mode, and a
//! few tens of nanoseconds per *event* (not per operation) buys rings that
//! survive their thread's exit.

use crate::atomic::plain::{AtomicBool, AtomicU32, Ordering};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Max events retained per thread; older events are dropped (and counted).
pub const RING_CAPACITY: usize = 16 * 1024;

/// One wired event category. `arg` in [`Event`] is category-specific (an
/// epoch number, a bucket count, a queue depth, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// EBR global epoch advanced (`arg` = new epoch).
    EpochAdvance,
    /// An EBR collection pass ran (`arg` = latency in ns).
    EbrCollect,
    /// Reclamation watchdog: deferred garbage crossed the stall threshold
    /// without being collected (`arg` = pending items).
    EbrStall,
    /// Elastic table migration started (`arg` = 0).
    MigrationStart,
    /// This thread moved `arg` buckets from an old table.
    BucketsMoved,
    /// Elastic table migration completed (`arg` = 0).
    MigrationComplete,
    /// A fully drained old table was retired through EBR (`arg` = 0).
    TableRetired,
    /// An operation exhausted optimistic retries and took locks (`arg` = 0).
    OptimisticFallback,
    /// A service submission was rejected with `Busy` (`arg` = core index).
    ServiceBusy,
    /// A session's repin went inert past the stall threshold (`arg` =
    /// consecutive ineffective repins).
    RepinStall,
    /// A service namespace's table was created lazily on first use (`arg` =
    /// namespace id).
    NamespaceCreate,
    /// An idle, empty namespace's table was unlinked from the directory and
    /// retired through EBR (`arg` = namespace id).
    NamespaceRetire,
    /// An operation was rejected because its namespace hit its entry quota
    /// (`arg` = namespace id).
    QuotaReject,
    /// A priority-queue pop-min lost at least one race (another popper took
    /// the candidate head, or a mark/lock attempt failed) before succeeding
    /// (`arg` = failed attempts before the winning one).
    PqPopContention,
}

impl EventKind {
    /// Every wired category, for coverage checks (`repro trace` validates
    /// its tour workload produced at least one of each).
    pub const ALL: &'static [EventKind] = &[
        EventKind::EpochAdvance,
        EventKind::EbrCollect,
        EventKind::EbrStall,
        EventKind::MigrationStart,
        EventKind::BucketsMoved,
        EventKind::MigrationComplete,
        EventKind::TableRetired,
        EventKind::OptimisticFallback,
        EventKind::ServiceBusy,
        EventKind::RepinStall,
        EventKind::NamespaceCreate,
        EventKind::NamespaceRetire,
        EventKind::QuotaReject,
        EventKind::PqPopContention,
    ];

    /// Stable event name (chrome trace `name` field).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::EpochAdvance => "epoch_advance",
            EventKind::EbrCollect => "ebr_collect",
            EventKind::EbrStall => "ebr_stall",
            EventKind::MigrationStart => "migration_start",
            EventKind::BucketsMoved => "buckets_moved",
            EventKind::MigrationComplete => "migration_complete",
            EventKind::TableRetired => "table_retired",
            EventKind::OptimisticFallback => "optimistic_fallback",
            EventKind::ServiceBusy => "service_busy",
            EventKind::RepinStall => "repin_stall",
            EventKind::NamespaceCreate => "namespace_create",
            EventKind::NamespaceRetire => "namespace_retire",
            EventKind::QuotaReject => "quota_reject",
            EventKind::PqPopContention => "pq_pop_contention",
        }
    }

    /// Subsystem category (chrome trace `cat` field).
    pub fn category(self) -> &'static str {
        match self {
            EventKind::EpochAdvance | EventKind::EbrCollect | EventKind::EbrStall => "ebr",
            EventKind::MigrationStart
            | EventKind::BucketsMoved
            | EventKind::MigrationComplete
            | EventKind::TableRetired => "elastic",
            EventKind::OptimisticFallback => "sync",
            EventKind::ServiceBusy
            | EventKind::NamespaceCreate
            | EventKind::NamespaceRetire
            | EventKind::QuotaReject => "service",
            EventKind::RepinStall => "session",
            EventKind::PqPopContention => "pq",
        }
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Nanoseconds since the trace epoch (armed by [`set_tracing`]).
    pub ts_ns: u64,
    /// Category.
    pub kind: EventKind,
    /// Category-specific payload (see [`EventKind`]).
    pub arg: u64,
}

/// One thread's drained ring.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    /// Small dense trace thread id (not the OS tid).
    pub tid: u32,
    /// Events dropped because the ring was full (oldest-first eviction).
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

type Rings = Mutex<Vec<(u32, Arc<Mutex<Ring>>)>>;
static RINGS: OnceLock<Rings> = OnceLock::new();

fn rings() -> &'static Rings {
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: std::cell::OnceCell<(u32, Arc<Mutex<Ring>>)> =
        const { std::cell::OnceCell::new() };
}

/// Is event recording currently armed?
#[inline]
pub fn tracing_enabled() -> bool {
    !cfg!(feature = "off") && TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Arm or disarm event recording process-wide. Arming (re)anchors the trace
/// clock; events carry nanoseconds since the *first* arm.
pub fn set_tracing(on: bool) {
    if on {
        let _ = EPOCH.set(Instant::now());
    }
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

#[inline]
fn now_ns() -> u64 {
    EPOCH
        .get()
        .map(|e| e.elapsed().as_nanos() as u64)
        .unwrap_or(0)
}

/// Record one event into the calling thread's ring. No-op while tracing is
/// disarmed (one relaxed load) and compiled out under the `off` feature.
#[inline]
pub fn emit(kind: EventKind, arg: u64) {
    if !tracing_enabled() {
        return;
    }
    emit_slow(kind, arg);
}

#[cold]
fn emit_slow(kind: EventKind, arg: u64) {
    let ev = Event {
        ts_ns: now_ns(),
        kind,
        arg,
    };
    let _ = LOCAL_RING.try_with(|cell| {
        let (_tid, ring) = cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(Mutex::new(Ring {
                events: VecDeque::with_capacity(256),
                dropped: 0,
            }));
            rings().lock().unwrap().push((tid, Arc::clone(&ring)));
            (tid, ring)
        });
        let mut r = ring.lock().unwrap();
        if r.events.len() >= RING_CAPACITY {
            r.events.pop_front();
            r.dropped += 1;
        }
        r.events.push_back(ev);
    });
}

/// Drain every thread's ring (live and exited threads alike), returning the
/// retained events oldest-first per thread. Rings are left empty but
/// registered, so tracing can continue afterwards.
pub fn drain_all() -> Vec<ThreadTrace> {
    let regs = rings().lock().unwrap();
    regs.iter()
        .map(|(tid, ring)| {
            let mut r = ring.lock().unwrap();
            ThreadTrace {
                tid: *tid,
                dropped: std::mem::take(&mut r.dropped),
                events: std::mem::take(&mut r.events).into(),
            }
        })
        .collect()
}

/// Render drained traces as a chrome://tracing / Perfetto-loadable JSON
/// document (`traceEvents` array of instant events, timestamps in µs).
pub fn chrome_trace_json(traces: &[ThreadTrace]) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\"traceEvents\":[");
    s.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"csds\"}}",
    );
    for t in traces {
        for ev in &t.events {
            s.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"v\":{}}}}}",
                ev.kind.name(),
                ev.kind.category(),
                ev.ts_ns / 1000,
                ev.ts_ns % 1000,
                t.tid,
                ev.arg
            ));
        }
        if t.dropped > 0 {
            s.push_str(&format!(
                ",{{\"name\":\"events_dropped\",\"cat\":\"trace\",\"ph\":\"i\",\
                 \"s\":\"t\",\"ts\":0.000,\"pid\":1,\"tid\":{},\
                 \"args\":{{\"v\":{}}}}}",
                t.tid, t.dropped
            ));
        }
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
#[cfg(not(feature = "off"))]
mod tests {
    use super::*;

    /// Arming and draining are process-wide and libtest runs tests side by
    /// side: the tests that arm tracing take turns.
    static ARMING: Mutex<()> = Mutex::new(());

    /// The calling thread's drained trace. Other tests' threads may record
    /// while this one has tracing armed, so their rings are skipped.
    fn own(traces: Vec<ThreadTrace>) -> ThreadTrace {
        let tid = LOCAL_RING
            .with(|c| c.get().map(|(tid, _)| *tid))
            .expect("this thread has emitted while armed");
        traces
            .into_iter()
            .find(|t| t.tid == tid)
            .expect("a thread's ring stays registered")
    }

    #[test]
    fn emit_requires_arming() {
        let _arming = ARMING.lock().unwrap_or_else(|e| e.into_inner());
        let _ = drain_all();
        emit(EventKind::EpochAdvance, 1);
        let quiet: usize = drain_all().iter().map(|t| t.events.len()).sum();
        assert_eq!(quiet, 0, "disarmed emit must record nothing");

        set_tracing(true);
        emit(EventKind::EpochAdvance, 7);
        emit(EventKind::ServiceBusy, 3);
        set_tracing(false);
        let events = own(drain_all()).events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::EpochAdvance);
        assert_eq!(events[0].arg, 7);
        // Draining left the ring registered but empty.
        let again: usize = drain_all().iter().map(|t| t.events.len()).sum();
        assert_eq!(again, 0);
    }

    #[test]
    fn ring_drops_oldest() {
        let _arming = ARMING.lock().unwrap_or_else(|e| e.into_inner());
        set_tracing(true);
        let _ = drain_all();
        for i in 0..(RING_CAPACITY + 10) as u64 {
            emit(EventKind::BucketsMoved, i);
        }
        set_tracing(false);
        let mine = own(drain_all());
        assert_eq!(mine.events.len(), RING_CAPACITY);
        assert_eq!(mine.dropped, 10);
        // Oldest evicted: the first retained arg is 10.
        assert_eq!(mine.events[0].arg, 10);
    }

    #[test]
    fn chrome_json_shape() {
        let traces = vec![ThreadTrace {
            tid: 3,
            dropped: 2,
            events: vec![Event {
                ts_ns: 1_234_567,
                kind: EventKind::MigrationStart,
                arg: 0,
            }],
        }];
        let json = chrome_trace_json(&traces);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"migration_start\""));
        assert!(json.contains("\"cat\":\"elastic\""));
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"name\":\"events_dropped\""));
        // Braces balance (cheap well-formedness check; CI runs a real JSON
        // parser over the repro trace output).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn every_kind_has_stable_names() {
        for k in EventKind::ALL {
            assert!(!k.name().is_empty());
            assert!(!k.category().is_empty());
        }
        // Names are unique (the coverage check keys on them).
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }
}
