//! A key-value service: open-loop clients, an async core-worker pool, and
//! the elastic hash table breathing underneath — the ROADMAP's service
//! scenario end to end.
//!
//! Where `kv_cache` drives the elastic table from closed-loop front-end
//! threads, this example puts the `csds_service` front-end in between:
//!
//! * **clients** submit pipelined batches through [`ServiceClient`],
//!   paced by an [`OpenLoopSchedule`] (Poisson arrivals) — requests fire on
//!   a clock, like traffic from independent users, and the example reports
//!   how far execution fell behind the arrival schedule;
//! * **core workers** (a fixed pool) drain bounded submission rings, one
//!   `MapHandle` session per core, one guard re-validation per batch;
//! * the **workload** is a [`ChurnSchedule`] — the population grows, holds,
//!   and drains, forcing the elastic table through migrations while the
//!   service is live.
//!
//! ```text
//! cargo run --release --example service_kv [total_requests] [rate_per_client]
//! ```
//!
//! Defaults: 400k requests at 1.5M/s per client. CI smoke runs it with a
//! small request count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use csds::elastic::ElasticHashTable;
use csds::harness::service_op;
use csds::prelude::*;
use csds::workload::{ChurnSchedule, FastRng, KeyDist, KeySampler, OpMix, OpenLoopSchedule};

const CLIENTS: usize = 2;
const CORES: usize = 2;
const BATCH: usize = 32;
const KEY_RANGE: u64 = 1 << 14;

struct ClientReport {
    hits: u64,
    misses: u64,
    inserted: u64,
    removed: u64,
    max_lag: Duration,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let total: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(400_000);
    let rate_per_client: f64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_500_000.0);

    // Cold start tiny; growth is the elastic table's job. The service is
    // generic over the map, so the concrete handle keeps resize_stats()
    // reachable through `service.map()`.
    let cache = Arc::new(ElasticHashTable::<u64>::with_capacity(64));
    println!(
        "cold start: {} buckets across {} shards; {CLIENTS} clients -> {CORES} core workers",
        cache.buckets(),
        cache.shards()
    );
    let service = Service::start(
        Arc::clone(&cache),
        ServiceConfig {
            cores: CORES,
            ring_capacity: 1024,
            max_batch: 64,
            ..ServiceConfig::default()
        },
    );

    let per_client = (total / CLIENTS as u64).max(1);
    // Grow / steady / shrink the population while serving (~1.7 cycles per
    // client); shrink gets extra attempts because successful removes thin
    // out as the population drains.
    let schedule = ChurnSchedule::new(per_client / 6, per_client / 12, per_client / 4);
    let pace = OpenLoopSchedule::poisson(rate_per_client);
    let steady = OpMix::updates(20);

    let start = Instant::now();
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let client = service.client();
        clients.push(std::thread::spawn(move || {
            run_client(client, c as u64, per_client, schedule, steady, pace)
        }));
    }
    let mut totals = ClientReport {
        hits: 0,
        misses: 0,
        inserted: 0,
        removed: 0,
        max_lag: Duration::ZERO,
    };
    for t in clients {
        let r = t.join().unwrap();
        totals.hits += r.hits;
        totals.misses += r.misses;
        totals.inserted += r.inserted;
        totals.removed += r.removed;
        totals.max_lag = totals.max_lag.max(r.max_lag);
    }
    let elapsed = start.elapsed();
    let stats = service.shutdown();

    let requests = per_client * CLIENTS as u64;
    println!("== service_kv report ==");
    println!(
        "requests: {requests} ({:.2} Mops/s end-to-end), hit rate {:.1}%, {} inserted, {} removed",
        requests as f64 / elapsed.as_secs_f64() / 1e6,
        100.0 * totals.hits as f64 / (totals.hits + totals.misses).max(1) as f64,
        totals.inserted,
        totals.removed,
    );
    println!(
        "open loop: offered {:.2} Mops/s total, worst schedule lag {:.2} ms",
        rate_per_client * CLIENTS as f64 / 1e6,
        totals.max_lag.as_secs_f64() * 1e3,
    );
    for (i, core) in stats.per_core.iter().enumerate() {
        println!(
            "core {i}: {} ops in {} batches (mean {:.1}, max {}), queue depth max {}, \
             latency (1-in-8 sample) p50 < {} ns, p99 < {} ns",
            core.ops,
            core.batches,
            core.mean_batch(),
            core.max_batch,
            core.max_depth,
            core.latency_ns.quantile_upper_bound(0.50).unwrap_or(0),
            core.latency_ns.quantile_upper_bound(0.99).unwrap_or(0),
        );
    }
    let rs = cache.resize_stats();
    println!(
        "resize under service load: {} migrations ({} grows, {} shrinks), {} buckets / {} entries moved, {} tables EBR-retired",
        rs.migrations_started, rs.grows, rs.shrinks, rs.buckets_moved, rs.entries_moved, rs.tables_retired,
    );
    println!(
        "cache now: {} entries in {} buckets",
        cache.len(),
        cache.buckets()
    );
    assert_eq!(
        stats.aggregate().ops,
        requests,
        "every accepted request must execute exactly once"
    );
}

fn run_client(
    client: ServiceClient<u64>,
    id: u64,
    ops: u64,
    schedule: ChurnSchedule,
    steady: OpMix,
    pace: OpenLoopSchedule,
) -> ClientReport {
    let sampler = KeySampler::new(KeyDist::Uniform, KEY_RANGE);
    let mut rng = FastRng::new(0x5EB5 ^ (id + 1).wrapping_mul(0x9E3779B97F4A7C15));
    let mut report = ClientReport {
        hits: 0,
        misses: 0,
        inserted: 0,
        removed: 0,
        max_lag: Duration::ZERO,
    };
    let mut batch = Vec::with_capacity(BATCH);
    let mut submitted = 0u64;
    let mut sched_ns = 0u64;
    let start = Instant::now();
    while submitted < ops {
        let n = BATCH.min((ops - submitted) as usize);
        for i in 0..n as u64 {
            let key = sampler.sample(&mut rng);
            let op = service_op(schedule.sample(submitted + i, steady, &mut rng), key);
            batch.push((key, op));
            sched_ns += pace.next_gap_ns(&mut rng);
        }
        // Open-loop pacing: the batch's last op is scheduled at sched_ns.
        // Ahead of schedule -> wait; behind -> record the lag and keep
        // going (the queue, not the client, absorbs the burst).
        let now = start.elapsed();
        let sched = Duration::from_nanos(sched_ns);
        if now < sched {
            std::thread::sleep(sched - now);
        } else {
            report.max_lag = report.max_lag.max(now - sched);
        }
        let pending = client.submit_batch(batch.drain(..)).expect("service live");
        for f in pending {
            match f.wait().expect("accepted ops execute") {
                Reply::Got(Some(_)) => report.hits += 1,
                Reply::Got(None) => report.misses += 1,
                Reply::Inserted(true) => report.inserted += 1,
                Reply::Removed(Some(_)) => report.removed += 1,
                _ => {}
            }
        }
        submitted += n as u64;
    }
    report
}
