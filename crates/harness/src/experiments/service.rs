//! Service-path experiment: end-to-end throughput **and latency** through
//! the `csds_service` front-end, for the basic and compound vocabularies.
//!
//! This is the report-side wiring for the service's per-core
//! [`csds_service::CoreStats`] histograms: alongside throughput it prints
//! the p50/p99 submission-to-completion latency upper bounds (log₂-bucket
//! quantiles from [`csds_metrics::LogHistogram`]), the mean drained batch,
//! and the deepest adaptive drain target the workers reached.

use std::sync::Arc;

use csds_service::ServiceConfig;
use csds_workload::{FastRng, KeyDist, KeySampler, OpMix, TenantSampler};

use crate::factory::AlgoKind;
use crate::report::{mops, Table};
use crate::runner::service_op;
use crate::Scale;

/// Format a nanosecond upper bound compactly (`<2us`, `<512ns`, …).
fn fmt_ns_bound(ns: Option<u64>) -> String {
    match ns {
        None => "-".to_string(),
        Some(n) if n >= 1_000_000_000 => format!("<{}s", n / 1_000_000_000),
        Some(n) if n >= 1_000_000 => format!("<{}ms", n / 1_000_000),
        Some(n) if n >= 1_000 => format!("<{}us", n / 1_000),
        Some(n) => format!("<{n}ns"),
    }
}

/// Drive `total` operations of `mix` through a fresh service over `algo`
/// and return `(elapsed_secs, aggregate stats)`.
fn drive(algo: AlgoKind, mix: OpMix, cores: usize, total: u64) -> (f64, csds_service::CoreStats) {
    const KEY_RANGE: u64 = 2048;
    const BATCH: usize = 64;
    let svc = algo.make_service(
        KEY_RANGE as usize,
        ServiceConfig {
            cores,
            ..ServiceConfig::default()
        },
    );
    let client = svc.client();
    let sampler = KeySampler::new(KeyDist::Uniform, KEY_RANGE);
    let mut rng = FastRng::new(0x5E41_11CE);
    // Prefill half the key range so reads and CASes hit.
    let warm = Arc::clone(svc.map());
    for k in 0..KEY_RANGE / 2 {
        let _ = csds_core::ConcurrentMap::insert(warm.as_ref(), k, k);
    }
    let start = std::time::Instant::now();
    let mut batch = Vec::with_capacity(BATCH);
    let mut done = 0u64;
    while done < total {
        let n = BATCH.min((total - done) as usize);
        for _ in 0..n {
            let key = sampler.sample(&mut rng);
            let op = service_op(mix.sample(&mut rng), key);
            batch.push((key, op));
        }
        let pending = client.submit_batch(batch.drain(..)).expect("running");
        for f in pending {
            let _ = f.wait().expect("accepted ops execute");
        }
        done += n as u64;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = svc.shutdown();
    (elapsed, stats.aggregate())
}

/// The `service` experiment: see the module docs.
pub fn service(scale: Scale) {
    let total: u64 = if scale.quick { 30_000 } else { 400_000 };
    let mut table = Table::new(
        "Service front-end: throughput + latency (basic and compound mixes)",
        &[
            "structure",
            "mix",
            "cores",
            "Mops/s",
            "lat p50",
            "lat p99",
            "mean batch",
            "max target",
        ],
    );
    let mixes: [(&str, OpMix); 3] = [
        ("10% updates", OpMix::updates(10)),
        ("upsert-heavy", OpMix::mix_rmw_upsert_heavy()),
        ("counter", OpMix::mix_rmw_counter()),
    ];
    for algo in [AlgoKind::LazyHashTable, AlgoKind::ElasticHashTable] {
        for (mix_name, mix) in mixes.iter() {
            for cores in [1usize, 2] {
                let (elapsed, agg) = drive(algo, *mix, cores, total);
                table.row(vec![
                    algo.name().to_string(),
                    mix_name.to_string(),
                    cores.to_string(),
                    mops(total as f64 / elapsed / 1e6),
                    fmt_ns_bound(agg.latency_ns.quantile_upper_bound(0.5)),
                    fmt_ns_bound(agg.latency_ns.quantile_upper_bound(0.99)),
                    format!("{:.1}", agg.mean_batch()),
                    agg.batch_target_max.to_string(),
                ]);
            }
        }
    }
    table.print();
    println!(
        "# latency columns are log2-bucket upper bounds of the service's \
         submission-to-completion histograms, which time a 1-in-8 sample of \
         the requests ({total} ops per row, closed loop, one client thread, \
         batch 64)"
    );

    // The multi-tenant face of the same front-end: Zipf-over-Zipf traffic
    // across 1 / 64 / 4096 hot namespaces, elastic table, 2 cores. The
    // 1-namespace row is the round-trip baseline; created/retired show the
    // directory breathing under the long cold tail.
    let tenant_total = total / 4;
    let mut tenants = Table::new(
        "Multi-tenant service: namespace-routed throughput (zipf-over-zipf, 10% updates)",
        &[
            "namespaces",
            "Mops/s",
            "lat p50",
            "lat p99",
            "ns created",
            "ns retired",
            "tenant ops",
        ],
    );
    for namespaces in [1u64, 64, 4096] {
        let (elapsed, agg, counts) = drive_tenants(namespaces, tenant_total);
        tenants.row(vec![
            namespaces.to_string(),
            mops(tenant_total as f64 / elapsed / 1e6),
            fmt_ns_bound(agg.latency_ns.quantile_upper_bound(0.5)),
            fmt_ns_bound(agg.latency_ns.quantile_upper_bound(0.99)),
            counts.created.to_string(),
            counts.retired.to_string(),
            agg.ns_ops.to_string(),
        ]);
    }
    tenants.print();
    println!(
        "# {tenant_total} ops per row through an elastic-table service (2 cores); \
         namespace ids and per-tenant keys both Zipf(s=0.8)"
    );
}

/// Drive `total` Zipf-over-Zipf tenant operations through a two-core
/// elastic-table service; returns `(elapsed_secs, aggregate stats,
/// namespace counts)`.
fn drive_tenants(
    namespaces: u64,
    total: u64,
) -> (f64, csds_service::CoreStats, csds_service::NamespaceCounts) {
    const KEY_RANGE: u64 = 2048;
    const BATCH: usize = 64;
    let svc = AlgoKind::ElasticHashTable.make_service(
        KEY_RANGE as usize,
        ServiceConfig {
            cores: 2,
            ring_capacity: 1024,
            max_batch: BATCH,
            ..ServiceConfig::default()
        },
    );
    let client = svc.client();
    let mix = OpMix::updates(10);
    let sampler = TenantSampler::zipf_over_zipf(namespaces, KEY_RANGE);
    let mut rng = FastRng::new(0x7E4A_4711 ^ namespaces);
    let start = std::time::Instant::now();
    let mut pending = Vec::with_capacity(BATCH);
    let mut done = 0u64;
    while done < total {
        let n = BATCH.min((total - done) as usize);
        for _ in 0..n {
            let (ns, key) = sampler.sample(&mut rng);
            let op = service_op(mix.sample(&mut rng), key);
            pending.push(client.namespace(ns).submit(key, op).expect("running"));
        }
        for f in pending.drain(..) {
            let _ = f.wait().expect("accepted ops execute");
        }
        done += n as u64;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let counts = svc.namespace_counts();
    let stats = svc.shutdown();
    (elapsed, stats.aggregate(), counts)
}
