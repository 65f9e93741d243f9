//! `repro watch` / `repro trace` — the harness face of the observability
//! layer.
//!
//! * [`watch`] drives a multithreaded workload while the *observer* (this
//!   thread, never a workload thread) polls the process-wide seqlock
//!   registry ([`csds_metrics::registry`]) and the EBR health probe
//!   ([`csds_ebr::health`]) once per tick, printing a live dashboard line.
//!   Nothing the observer does touches a workload thread: every number
//!   comes from a validated seqlock read or an atomic gauge.
//! * [`trace_tour`] arms the per-thread event rings
//!   ([`csds_metrics::trace`]), runs a guided tour of workload phases
//!   chosen so **every** wired [`EventKind`] fires at least once, and
//!   exports the merged timeline as chrome://tracing JSON.
//!
//! Both entry points are library functions so tests and examples can drive
//! them; the `repro` binary adds the CLI.

use csds_sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csds_core::hashtable::LazyHashTable;
use csds_core::{ConcurrentMap, GuardedMap, MapHandle};
use csds_elastic::ElasticHashTable;
use csds_metrics::registry;
use csds_metrics::trace;
use csds_metrics::{DelayPolicy, EventKind, StatsSnapshot};
use csds_service::{block_on, OpKind, Service, ServiceConfig, ServiceError};

/// Configuration for [`watch`].
#[derive(Clone, Copy, Debug)]
pub struct WatchConfig {
    /// Total run length.
    pub duration: Duration,
    /// Dashboard refresh interval.
    pub tick: Duration,
    /// Workload threads churning the elastic table.
    pub threads: usize,
    /// Print the final Prometheus-style exposition after the run.
    pub prom: bool,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            duration: Duration::from_secs(5),
            tick: Duration::from_millis(250),
            threads: 4,
            prom: false,
        }
    }
}

/// Drive an elastic-table churn workload for `cfg.duration` while printing
/// one dashboard line per tick from the live registry aggregate and the EBR
/// health probe. Returns the final aggregate snapshot.
pub fn watch(cfg: &WatchConfig) -> StatsSnapshot {
    let _ = csds_metrics::take_and_reset();
    let table: Arc<ElasticHashTable<u64>> = Arc::new(ElasticHashTable::with_capacity(64));
    let stop = Arc::new(AtomicBool::new(false));
    let threads = cfg.threads.max(1);
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut h = MapHandle::new(&*table);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Grow-heavy mixed churn: a widening insert front keeps
                    // the elastic table migrating, removes keep EBR busy.
                    let key = (t as u64) << 32 | i;
                    h.insert(key, i);
                    h.get(key & !0xF);
                    if i % 4 == 0 && key >= 64 {
                        h.remove(key - 64);
                    }
                    csds_metrics::op_boundary();
                    i += 1;
                }
            })
        })
        .collect();

    let reg = registry::global();
    let started = Instant::now();
    let mut last = StatsSnapshot::default();
    let mut last_t = started;
    while started.elapsed() < cfg.duration {
        std::thread::sleep(cfg.tick.min(cfg.duration));
        let now = Instant::now();
        let agg = reg.aggregate();
        let health = csds_ebr::health();
        let dt = now.duration_since(last_t).as_secs_f64().max(1e-9);
        let rate = (agg.ops.saturating_sub(last.ops)) as f64 / dt;
        println!(
            "[{:6.1}s] ops {:>10} ({:>9.0}/s) | threads {:>2} | epoch {:>6} (lag {}) | \
             garbage {:>6} items / {:>8} B | locks {:>8} ({} contended) | restarts {:>6} | \
             opt-fallbacks {:>5} | migrations {}/{} | ns +{}/-{} quota-rej {} | \
             stalls repin={} ebr={} busy={}",
            started.elapsed().as_secs_f64(),
            agg.ops,
            rate,
            reg.active_threads(),
            health.global_epoch,
            health.max_epoch_lag,
            health.garbage_items,
            health.garbage_bytes,
            agg.lock_acquires,
            agg.contended_acquires,
            agg.restarts,
            agg.optimistic_fallbacks,
            agg.resize_migrations_completed,
            agg.resize_migrations_started,
            agg.namespaces_created,
            agg.namespaces_retired,
            agg.quota_rejects,
            agg.repin_stalls,
            agg.ebr_stall_events,
            agg.service_busy,
        );
        last = agg;
        last_t = now;
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("watch workload thread panicked");
    }
    let final_agg = reg.aggregate();
    println!(
        "final: {} ops across {} live + retired threads, {} epoch advances, {} collects",
        final_agg.ops, threads, final_agg.epoch_advances, final_agg.ebr_collects
    );
    if cfg.prom {
        println!("\n{}", reg.prometheus_text());
    }
    final_agg
}

/// Per-kind event counts from a [`trace_tour`] run.
#[derive(Clone, Debug, Default)]
pub struct TourReport {
    /// `(kind, events recorded)` for every wired kind, in
    /// [`EventKind::ALL`] order.
    pub counts: Vec<(EventKind, u64)>,
    /// Events dropped because a thread's ring overflowed.
    pub dropped: u64,
    /// The chrome://tracing JSON document.
    pub json: String,
}

impl TourReport {
    /// Kinds the tour failed to exercise (must be empty — the tour's
    /// phases exist precisely to cover the catalog).
    pub fn missing(&self) -> Vec<EventKind> {
        self.counts
            .iter()
            .filter(|(_, n)| *n == 0)
            .map(|(k, _)| *k)
            .collect()
    }
}

/// Arm tracing, run a guided tour of workload phases that exercises every
/// wired [`EventKind`], and export the merged timeline.
///
/// The phases, in order:
/// 1. **Elastic churn** — growth migrations on an [`ElasticHashTable`]
///    (`MigrationStart`, `BucketsMoved`, `MigrationComplete`,
///    `TableRetired`) with healthy EBR turnover (`EpochAdvance`,
///    `EbrCollect`).
/// 2. **Injected contention** — a paper-§5.4 [`DelayPolicy`] stalls lock
///    holders while threads `rmw` a tiny key range of a [`LazyHashTable`]:
///    a stalled holder keeps the bucket version odd, the validate-then-lock
///    RMW of the others spends its retries and takes the locked path
///    (`OptimisticFallback`). Repeated until at least one fallback lands.
/// 3. **Service backpressure** — a one-core service with a tiny ring takes
///    a `try_submit` burst (`ServiceBusy`).
/// 4. **Session-discipline violation** — two long-lived handles on one
///    thread (the PR 6 shape): inert repins (`RepinStall`) while deferred
///    garbage accumulates uncollected past the watchdog threshold
///    (`EbrStall`).
/// 5. **Namespace lifecycle** — tenants of a multi-tenant service are
///    lazily created on first op (`NamespaceCreate`), pushed past their
///    quota (`QuotaReject`), then emptied and retired by the workers' idle
///    sweeps (`NamespaceRetire`).
/// 6. **Priority-queue head race** — poppers gang up on a small
///    lock-free queue so several threads chase the same minimum and the
///    losers' failed claim attempts land (`PqPopContention`). They run
///    until that event is in the trace: a bounded number of rounds can
///    finish without two poppers ever overlapping.
pub fn trace_tour() -> TourReport {
    let _ = csds_metrics::take_and_reset();
    trace::set_tracing(true);

    phase_elastic_churn();
    // The phases with a probabilistic trigger stop on their own event in
    // the trace, which is what the tour promises, not on a process-wide
    // counter that other threads move too. The delay policy makes a
    // fallback overwhelmingly likely per round of phase 2.
    let mut traces = Vec::new();
    for _ in 0..8 {
        phase_optimistic_contention();
        if drained_has(&mut traces, EventKind::OptimisticFallback) {
            break;
        }
    }
    phase_service_backpressure();
    phase_double_handle();
    phase_namespace_lifecycle();
    phase_pq_pop_race(&mut traces);

    trace::set_tracing(false);
    traces.extend(trace::drain_all());
    let mut counts: Vec<(EventKind, u64)> = EventKind::ALL.iter().map(|k| (*k, 0u64)).collect();
    let mut dropped = 0u64;
    for t in &traces {
        dropped += t.dropped;
        for e in &t.events {
            if let Some(c) = counts.iter_mut().find(|(k, _)| *k == e.kind) {
                c.1 += 1;
            }
        }
    }
    let json = trace::chrome_trace_json(&traces);
    TourReport {
        counts,
        dropped,
        json,
    }
}

/// Move every event recorded since the last drain into `traces`; whether
/// one of them is a `kind`.
fn drained_has(traces: &mut Vec<trace::ThreadTrace>, kind: EventKind) -> bool {
    let fresh = trace::drain_all();
    let found = fresh.iter().flat_map(|t| &t.events).any(|e| e.kind == kind);
    traces.extend(fresh);
    found
}

/// Phase 1: growth migrations plus healthy EBR churn.
fn phase_elastic_churn() {
    let table: Arc<ElasticHashTable<u64>> = Arc::new(ElasticHashTable::with_capacity(16));
    let threads = 4;
    let per_thread = 20_000u64;
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let mut h = MapHandle::new(&*table);
                for i in 0..per_thread {
                    let key = (t as u64) * per_thread + i;
                    h.insert(key, i);
                    if i % 3 == 0 && key >= 128 {
                        h.remove(key - 128);
                    }
                    csds_metrics::op_boundary();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("elastic churn thread panicked");
    }
}

/// Phase 2: injected lock-holder delays force optimistic fallbacks.
fn phase_optimistic_contention() {
    let map: Arc<LazyHashTable<u64>> = Arc::new(LazyHashTable::with_capacity(8));
    for k in 0..8 {
        map.insert(k, 0);
    }
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                // The delay policy is thread-local: each worker arms its
                // own (the runner does the same), so lock holders stall
                // mid-critical-section and concurrent optimistic RMWs burn
                // through their retry budget.
                csds_metrics::set_delay_policy(Some(DelayPolicy::paper_unresponsive(0x5eed ^ t)));
                let mut h = MapHandle::new(&*map);
                for i in 0..4_000u64 {
                    let k = (t + i) % 8;
                    h.rmw(k, &mut |cur| Some(cur.copied().unwrap_or(0) + 1));
                    csds_metrics::op_boundary();
                }
                csds_metrics::set_delay_policy(None);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("contention thread panicked");
    }
}

/// Phase 3: saturate a one-core, two-slot service ring.
fn phase_service_backpressure() {
    let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(64));
    let svc = Service::start(
        map,
        ServiceConfig {
            cores: 1,
            ring_capacity: 2,
            max_batch: 1,
            ..ServiceConfig::default()
        },
    );
    let client = svc.client();
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    // Burst until the tiny ring has demonstrably pushed back.
    for k in 0..4_096u64 {
        match client.try_submit(k, OpKind::Insert(k)) {
            Ok(c) => accepted.push(c),
            Err(r) if r.reason == ServiceError::Busy => rejected += 1,
            Err(_) => break,
        }
        if rejected >= 16 {
            break;
        }
    }
    for c in accepted {
        let _ = c.wait();
    }
    svc.shutdown();
}

/// Phase 4: the PR 6 session-discipline violation, observed not debugged —
/// two live handles make every repin inert while removes keep deferring
/// garbage that nothing collects.
fn phase_double_handle() {
    std::thread::spawn(|| {
        // Shrink this thread's watchdog threshold so the tour trips it with
        // a demo-sized backlog instead of the production default (4096).
        csds_ebr::set_watchdog_threshold(512);
        let a: LazyHashTable<u64> = LazyHashTable::with_capacity(64);
        let b: LazyHashTable<u64> = LazyHashTable::with_capacity(64);
        let _first = a.handle(); // held across the whole phase
        let mut second = b.handle();
        for i in 0..3_000u64 {
            // insert+remove: each round retires a node under an inert repin.
            second.insert(i % 64, i);
            second.remove(i % 64);
            csds_metrics::op_boundary();
        }
    })
    .join()
    .expect("double-handle phase panicked");
}

/// Phase 5: the full namespace lifecycle of the multi-tenant service.
/// Four tenants are created lazily by their first operation, pushed one
/// over their quota, then emptied — after which the owning workers' idle
/// sweeps retire them all while the service keeps running.
fn phase_namespace_lifecycle() {
    let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(64));
    let svc = Service::start(
        map,
        ServiceConfig {
            cores: 2,
            namespace_quota: 4,
            ..ServiceConfig::default()
        },
    );
    let client = svc.client();
    for ns in 1..=4u64 {
        let tenant = client.namespace(ns);
        for k in 0..4u64 {
            block_on(tenant.insert(k, k).expect("tenant insert accepted"))
                .expect("tenant insert executed");
        }
        // One past the quota: bounced at admission with the op handed back.
        let rejected = tenant
            .try_submit(99, OpKind::Insert(99))
            .expect_err("insert past quota must bounce");
        assert_eq!(rejected.reason, ServiceError::Busy);
        for k in 0..4u64 {
            block_on(tenant.remove(k).expect("tenant remove accepted"))
                .expect("tenant remove executed");
        }
    }
    // The emptied tenants retire on the workers' pre-park sweeps.
    let deadline = Instant::now() + Duration::from_secs(30);
    while svc.namespace_counts().retired < 4 {
        assert!(
            Instant::now() < deadline,
            "tour tenants never retired: {:?}",
            svc.namespace_counts()
        );
        std::thread::yield_now();
    }
    svc.shutdown();
}

/// Phase 6: several poppers fight over the head run of a small lock-free
/// priority queue. Every pop-min targets the current minimum, so with
/// more poppers than elements most claim attempts lose their mark CAS —
/// exactly what `PqPopContention` counts — whenever two poppers overlap.
///
/// They do not always overlap: a thread can run thousands of ops inside
/// one time slice. Eight rounds of 2 000 ops each ended with no lost race
/// in 6 of 40 release runs of this crate's tests on a 2-vCPU host. So the
/// poppers run until this
/// thread finds the event in the trace (draining into `traces`), or for at
/// most [`PQ_RACE_BUDGET`]. Running on, a popper is eventually preempted
/// mid-pop with another one behind it.
fn phase_pq_pop_race(traces: &mut Vec<trace::ThreadTrace>) {
    use csds_pq::{ConcurrentPq, LotanShavitPq};
    let pq: Arc<LotanShavitPq<u64>> = Arc::new(LotanShavitPq::new());
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4u64)
        .map(|t| {
            let pq = Arc::clone(&pq);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Tiny priority space: pushes collide on the same few
                    // keys and every popper chases the same head node.
                    let _ = pq.push((t + i) % 8, i);
                    let _ = pq.pop_min();
                    csds_metrics::op_boundary();
                    i += 1;
                }
            })
        })
        .collect();
    let deadline = Instant::now() + PQ_RACE_BUDGET;
    while !drained_has(traces, EventKind::PqPopContention) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("pq pop-race thread panicked");
    }
}

/// How long [`phase_pq_pop_race`] waits for a lost head race at most.
const PQ_RACE_BUDGET: Duration = Duration::from_secs(10);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tour_covers_every_event_kind() {
        let report = trace_tour();
        assert!(
            report.missing().is_empty(),
            "tour left event kinds unexercised: {:?} (counts {:?})",
            report.missing(),
            report.counts
        );
        assert!(report.json.contains("traceEvents"));
    }

    #[test]
    fn watch_runs_and_aggregates() {
        let cfg = WatchConfig {
            duration: Duration::from_millis(300),
            tick: Duration::from_millis(100),
            threads: 2,
            prom: false,
        };
        let agg = watch(&cfg);
        assert!(agg.ops > 0, "watch workload recorded no operations");
    }
}
