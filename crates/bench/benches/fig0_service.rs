//! **Figure 0s** (not in the paper) — the async service front-end.
//!
//! The question the ROADMAP's service scenario asks: what does putting a
//! request queue between clients and the structure cost (or buy) next to
//! the paper's closed loop, where every thread hammers the map directly?
//!
//! Two configurations over the same elastic hash table at matched size:
//!
//! * `closed_loop/handles_Nt` — N worker threads, one [`MapHandle`] each,
//!   issuing operations back-to-back (the paper's methodology; the repo's
//!   fastest path).
//! * `service/batched_Nc` — a `csds_service` pool of N core workers; one
//!   client thread submits pipelined batches of 64 operations and awaits
//!   the completions. Each operation crosses two thread boundaries (ring
//!   in, oneshot out), so per-op cost includes queueing and wakeups — the
//!   honest price of the open-loop shape. Core workers repin once per
//!   drained batch.
//!
//! Per-core service statistics (batches drained, mean batch size, p99
//! latency bound) are printed after the group so batch amortization is
//! visible, not just end-to-end throughput.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use csds_bench::{tune, BenchMap};
use csds_harness::{prefill, service_op, AlgoKind};
use csds_service::{NamespaceId, ServiceClient, ServiceConfig, DEFAULT_NAMESPACE};
use csds_workload::{FastRng, KeyDist, KeySampler, OpMix, TenantSampler};

/// Stationary population; key range is twice this (paper §3.3).
const SIZE: usize = 4096;
const UPDATE_PCT: u32 = 10;
const BATCH: usize = 64;

/// One client pipelining batches of [`BATCH`] operations: every request is
/// submitted before any reply is awaited. `sample` draws each request's
/// namespace and key, so a multi-tenant batch mixes hot and cold tenants.
fn run_client(
    client: &ServiceClient<u64>,
    total_ops: u64,
    mut rng: FastRng,
    sample: impl Fn(&mut FastRng) -> (NamespaceId, u64),
) -> Duration {
    let mix = OpMix::updates(UPDATE_PCT);
    let mut pending = Vec::with_capacity(BATCH);
    let mut done = 0u64;
    let start = Instant::now();
    while done < total_ops {
        let n = BATCH.min((total_ops - done) as usize);
        for _ in 0..n {
            let (ns, key) = sample(&mut rng);
            let op = service_op(mix.sample(&mut rng), key);
            let submitted = client.namespace(ns).submit(key, op);
            pending.push(submitted.expect("service is running"));
        }
        for f in pending.drain(..) {
            black_box(f.wait().expect("accepted ops execute"));
        }
        done += n as u64;
    }
    start.elapsed()
}

fn closed_loop_vs_service(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_service");
    tune(&mut g);
    for threads in [1usize, 2, 4] {
        let bm = BenchMap::new(AlgoKind::ElasticHashTable, SIZE);
        g.bench_function(format!("closed_loop/handles_{threads}t"), move |b| {
            b.iter_custom(|iters| bm.run(iters, threads, UPDATE_PCT))
        });
    }
    let mut services = Vec::new();
    for cores in [1usize, 2, 4] {
        let svc = AlgoKind::ElasticHashTable.make_service(
            SIZE * 2,
            ServiceConfig {
                cores,
                ring_capacity: 1024,
                max_batch: BATCH,
                ..ServiceConfig::default()
            },
        );
        prefill(svc.map().as_ref(), SIZE, SIZE as u64 * 2, 0xB0B5EED);
        let client = svc.client();
        g.bench_function(format!("service/batched_{cores}c"), move |b| {
            let sampler = KeySampler::new(KeyDist::Uniform, SIZE as u64 * 2);
            b.iter_custom(|iters| {
                run_client(&client, iters, FastRng::new(0x5E41 ^ iters), |rng| {
                    (DEFAULT_NAMESPACE, sampler.sample(rng))
                })
            })
        });
        services.push((cores, svc));
    }
    // The multi-tenant face: the same pipelined client, but every op
    // carries a namespace drawn Zipf over 1 / 64 / 4096 hot tenants. The
    // 1-namespace case is the round-trip baseline; the others price the
    // directory hop, cold-tenant creation, and idle retirement.
    let mut tenant_services = Vec::new();
    for namespaces in [1u64, 64, 4096] {
        let svc = AlgoKind::ElasticHashTable.make_service(
            SIZE * 2,
            ServiceConfig {
                cores: 2,
                ring_capacity: 1024,
                max_batch: BATCH,
                ..ServiceConfig::default()
            },
        );
        let client = svc.client();
        g.bench_function(format!("service/tenants_{namespaces}ns"), move |b| {
            let sampler = TenantSampler::zipf_over_zipf(namespaces, SIZE as u64 * 2);
            b.iter_custom(|iters| {
                let rng = FastRng::new(0x7E4A ^ iters ^ namespaces);
                run_client(&client, iters, rng, |rng| sampler.sample(rng))
            })
        });
        tenant_services.push((namespaces, svc));
    }
    g.finish();
    for (namespaces, svc) in tenant_services {
        let counts = svc.namespace_counts();
        let total = svc.shutdown().aggregate();
        println!(
            "    tenants {namespaces}ns (all samples): {} ops ({} tenant-routed) in {} batches \
             (mean {:.1}), namespaces created {} / retired {}, latency (1-in-8 sample) p99 < {} ns",
            total.ops,
            total.ns_ops,
            total.batches,
            total.mean_batch(),
            counts.created,
            counts.retired,
            total.latency_ns.quantile_upper_bound(0.99).unwrap_or(0),
        );
    }
    for (cores, svc) in services {
        let total = svc.shutdown().aggregate();
        println!(
            "    service {cores}c (all samples): {} ops in {} batches \
             (mean {:.1}, max {} / depth max {}), latency (1-in-8 sample) p50 < {} ns, \
             p99 < {} ns",
            total.ops,
            total.batches,
            total.mean_batch(),
            total.max_batch,
            total.max_depth,
            total.latency_ns.quantile_upper_bound(0.50).unwrap_or(0),
            total.latency_ns.quantile_upper_bound(0.99).unwrap_or(0),
        );
    }
}

criterion_group!(benches, closed_loop_vs_service);
criterion_main!(benches);
