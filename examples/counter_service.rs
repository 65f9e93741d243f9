//! `counter_service` — a page-view–style counter service: `FetchAdd`
//! requests over an [`ElasticHashTable`] behind the `csds_service`
//! front-end.
//!
//! This is the canonical *stateful service* scenario the compound
//! vocabulary exists for: every request is one atomic read-modify-write
//! round trip (no get-then-insert races, no client-side retry loops), the
//! table grows under the live key population, and the per-core service
//! histograms report end-to-end latency.
//!
//! ```text
//! cargo run --release --example counter_service [TOTAL_OPS]
//! ```

use std::sync::Arc;

use csds::prelude::*;
use csds::workload::{FastRng, KeyDist, KeySampler};

const CLIENTS: usize = 4;
const KEYS: u64 = 4096;

fn main() {
    let total: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400_000);
    let per_client = total / CLIENTS as u64;

    // Cold-start small: the elastic table grows as counters appear.
    let map: Arc<ElasticHashTable<u64>> = Arc::new(ElasticHashTable::with_config(ElasticConfig {
        shards: 8,
        initial_buckets: 64,
        min_buckets: 64,
        ..ElasticConfig::default()
    }));
    let service = Service::start(
        Arc::clone(&map) as Arc<dyn GuardedMap<u64>>,
        ServiceConfig {
            cores: 2,
            ..ServiceConfig::default()
        },
    );

    println!(
        "counter_service: {CLIENTS} clients x {per_client} FetchAdd ops \
         over {KEYS} zipf keys, elastic table cold-starting at 64 buckets"
    );

    let start = std::time::Instant::now();
    let mut clients = Vec::new();
    for c in 0..CLIENTS as u64 {
        let client = service.client();
        clients.push(std::thread::spawn(move || {
            // Zipf-skewed counters: a few pages get most of the views.
            let sampler = KeySampler::new(KeyDist::PAPER_ZIPF, KEYS);
            let mut rng = FastRng::new(0xC0_04 + c);
            let mut max_seen = 0u64;
            let mut pending = Vec::with_capacity(256);
            let mut sent = 0u64;
            while sent < per_client {
                let n = 256.min((per_client - sent) as usize);
                for _ in 0..n {
                    let key = sampler.sample(&mut rng);
                    pending.push(client.fetch_add(key, 1).expect("service running"));
                }
                for f in pending.drain(..) {
                    let reading = f.wait().expect("accepted ops execute");
                    max_seen = max_seen.max(reading.added().expect("FetchAdd replies Added"));
                }
                sent += n as u64;
            }
            max_seen
        }));
    }
    let max_reading = clients
        .into_iter()
        .map(|c| c.join().expect("client panicked"))
        .max()
        .unwrap_or(0);
    let elapsed = start.elapsed();

    // Every accepted bump must have landed exactly once.
    let mut h = MapHandle::new(&*map);
    let sum: u64 = (0..KEYS).map(|k| h.get(k).copied().unwrap_or(0)).sum();
    drop(h);
    assert_eq!(
        sum,
        per_client * CLIENTS as u64,
        "counter total must equal the number of accepted FetchAdds"
    );

    let stats = service.shutdown();
    let agg = stats.aggregate();
    let resize = map.resize_stats();
    println!(
        "  {} ops in {:.2?} ({:.2} Mops/s end-to-end), hottest counter at {max_reading}",
        agg.ops,
        elapsed,
        agg.ops as f64 / elapsed.as_secs_f64() / 1e6,
    );
    println!(
        "  latency (1-in-8 sample) p50 < {:?} ns, p99 < {:?} ns; mean batch {:.1}, adaptive target peaked at {}",
        agg.latency_ns.quantile_upper_bound(0.5).unwrap_or(0),
        agg.latency_ns.quantile_upper_bound(0.99).unwrap_or(0),
        agg.mean_batch(),
        agg.batch_target_max,
    );
    println!(
        "  elastic table: {} buckets now, {} grow migrations, {} buckets moved mid-traffic",
        map.buckets(),
        resize.grows,
        resize.buckets_moved,
    );
    println!("  counter sum checks out: {sum} == {}", agg.ops);
}
