//! A multi-tenant key-value platform: thousands of keyspaces behind one
//! namespace-routed service front-end.
//!
//! Where `service_kv` serves a single map, this example drives the
//! tenant directory end to end:
//!
//! * **clients** draw `(namespace, key)` pairs from a Zipf-over-Zipf
//!   [`TenantSampler`] — a few tenants carry most of the traffic, and
//!   within each a few keys are hot — over ≥ 4096 namespaces;
//! * **tenant tables** are created lazily by the first operation that
//!   touches a namespace, shrink back toward a one-bucket floor while
//!   idle, and are **retired through EBR** once empty — the directory
//!   breathes with the traffic, so the long cold tail costs (almost)
//!   nothing;
//! * a small **per-namespace quota** makes the hottest tenants overflow,
//!   demonstrating admission-time `Busy` rejections that hand the
//!   operation back to the caller.
//!
//! ```text
//! cargo run --release --example namespace_kv [total_requests]
//! ```
//!
//! Defaults: 400k requests. CI smoke runs it with a small request count.

use std::sync::Arc;
use std::time::Instant;

use csds::core::hashtable::LazyHashTable;
use csds::core::GuardedMap;
use csds::prelude::*;
use csds::workload::{FastRng, OpMix, TenantSampler};

const CLIENTS: usize = 2;
const CORES: usize = 2;
const BATCH: usize = 32;
const NAMESPACES: u64 = 4096;
const KEYS_PER_TENANT: u64 = 1 << 12;
const QUOTA: usize = 256;

#[derive(Default)]
struct ClientReport {
    hits: u64,
    misses: u64,
    inserted: u64,
    removed: u64,
    quota_rejected: u64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let total: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(400_000);

    // The default namespace (id 0) is an ordinary map; every other
    // keyspace lives in the directory and is born lazily.
    let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(64));
    let service = Service::start(
        map,
        ServiceConfig {
            cores: CORES,
            ring_capacity: 1024,
            max_batch: 64,
            namespace_quota: QUOTA,
        },
    );
    println!(
        "{NAMESPACES} namespaces x {KEYS_PER_TENANT} keys (zipf over zipf, s=0.8 both levels), \
         quota {QUOTA} entries/tenant; {CLIENTS} clients -> {CORES} core workers"
    );

    let per_client = (total / CLIENTS as u64).max(1);
    let start = Instant::now();
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let client = service.client();
        clients.push(std::thread::spawn(move || {
            run_client(client, c as u64, per_client)
        }));
    }
    let mut totals = ClientReport::default();
    for t in clients {
        let r = t.join().unwrap();
        totals.hits += r.hits;
        totals.misses += r.misses;
        totals.inserted += r.inserted;
        totals.removed += r.removed;
        totals.quota_rejected += r.quota_rejected;
    }
    let elapsed = start.elapsed();
    let counts = service.namespace_counts();
    let stats = service.shutdown();

    let requests = per_client * CLIENTS as u64;
    let executed = requests - totals.quota_rejected;
    println!("== namespace_kv report ==");
    println!(
        "requests: {requests} ({:.2} Mops/s end-to-end), hit rate {:.1}%, \
         {} inserted, {} removed, {} rejected at quota",
        requests as f64 / elapsed.as_secs_f64() / 1e6,
        100.0 * totals.hits as f64 / (totals.hits + totals.misses).max(1) as f64,
        totals.inserted,
        totals.removed,
        totals.quota_rejected,
    );
    println!(
        "namespaces: {} created, {} retired while serving, {} live at shutdown",
        counts.created, counts.retired, counts.live,
    );
    for (i, core) in stats.per_core.iter().enumerate() {
        println!(
            "core {i}: {} ops ({} tenant-routed) in {} batches (mean {:.1}), \
             owned {} namespaces at exit, latency (1-in-8 sample) p99 < {} ns",
            core.ops,
            core.ns_ops,
            core.batches,
            core.mean_batch(),
            core.owned_namespaces,
            core.latency_ns.quantile_upper_bound(0.99).unwrap_or(0),
        );
    }
    // The directory must demonstrably breathe: tenants were created, some
    // were retired while the service ran, and not everything died.
    assert!(
        counts.created > counts.retired && counts.retired > 0,
        "expected created > retired > 0, got {counts:?}"
    );
    assert_eq!(
        stats.aggregate().ops,
        executed,
        "every accepted request must execute exactly once"
    );
}

fn run_client(client: ServiceClient<u64>, id: u64, ops: u64) -> ClientReport {
    let sampler = TenantSampler::zipf_over_zipf(NAMESPACES, KEYS_PER_TENANT);
    let mix = OpMix::updates(40); // heavy churn: tenants empty out and revive
    let mut rng = FastRng::new(0x4A11 ^ (id + 1).wrapping_mul(0x9E3779B97F4A7C15));
    let mut report = ClientReport::default();
    let mut pending = Vec::with_capacity(BATCH);
    let mut submitted = 0u64;
    while submitted < ops {
        let n = BATCH.min((ops - submitted) as usize);
        for _ in 0..n {
            let (ns, key) = sampler.sample(&mut rng);
            let op = match mix.sample(&mut rng) {
                csds::workload::Op::Insert => OpKind::Insert(ns ^ key),
                csds::workload::Op::Remove => OpKind::Remove,
                _ => OpKind::Get,
            };
            // Quota overflow on a hot tenant is expected traffic shaping,
            // not an error: the op comes back untouched and the client
            // moves on (a real front-end would shed or retry later).
            match client.namespace(ns).try_submit(key, op) {
                Ok(c) => pending.push(c),
                Err(r) if r.reason == ServiceError::Busy => report.quota_rejected += 1,
                Err(r) => panic!("unexpected rejection: {:?}", r.reason),
            }
        }
        for f in pending.drain(..) {
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
