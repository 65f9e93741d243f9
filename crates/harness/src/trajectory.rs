//! The recorded bench trajectory (`repro bench [--json]`).
//!
//! A fixed, PR-over-PR comparable matrix of map runs: the four structures
//! that carry the optimistic protocol × {read-only, mixed-update}
//! workloads × {1, 4} threads. Each cell reports per-thread ns/op,
//! aggregate Mops/s and the optimistic counters, so a committed snapshot
//! (`BENCH_<pr>.json`) records both the speed and *why* (validation-failure
//! and fallback rates) for later sessions to diff against. The mix is
//! get/insert/remove, so only coupling-ht — whose reads validate — counts
//! attempts here; the other three validate in `rmw_in` alone.
//!
//! The JSON is hand-rolled — the workspace deliberately has no serde — and
//! kept to one object per line under `"results"` so snapshots diff cleanly.

use std::time::{Duration, Instant};

use crate::factory::{AlgoKind, PqKind};
use crate::runner::{run_map_avg, service_op, MapRunConfig, PqRunConfig};
use csds_service::ServiceConfig;
use csds_workload::{FastRng, OpMix, PqOpMix, TenantSampler};

/// Stationary size of every structure in the trajectory (matches the
/// `fig0_*` benches: 1024 elements, key range 2×).
pub const BENCH_SIZE: usize = 1024;

/// One cell of the trajectory matrix.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Algorithm short name ([`AlgoKind::name`]).
    pub algo: &'static str,
    /// Workload label (`read` = 0 % updates, `update` = 50 %).
    pub workload: &'static str,
    /// Worker thread count.
    pub threads: usize,
    /// Completed operations across all threads.
    pub total_ops: u64,
    /// Per-thread nanoseconds per operation (`elapsed · threads / ops`).
    pub ns_per_op: f64,
    /// Aggregate throughput in Mops/s.
    pub mops: f64,
    /// Optimistic snapshot attempts across the run.
    pub optimistic_attempts: u64,
    /// Validation failures (torn snapshots) across the run.
    pub optimistic_failures: u64,
    /// Retry-budget exhaustions that fell back to the pessimistic path.
    pub optimistic_fallbacks: u64,
}

/// The structures whose read/RMW paths carry the optimistic protocol.
pub fn trajectory_algos() -> [AlgoKind; 4] {
    [
        AlgoKind::LazyHashTable,
        AlgoKind::CouplingHashTable,
        AlgoKind::ElasticHashTable,
        AlgoKind::BstTk,
    ]
}

/// Run the full matrix at the given per-cell duration and repetition count.
pub fn run_trajectory(duration: Duration, reps: usize) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    for algo in trajectory_algos() {
        for (workload, update_pct) in [("read", 0u32), ("update", 50u32)] {
            for threads in [1usize, 4] {
                let cfg =
                    MapRunConfig::paper_default(algo, BENCH_SIZE, update_pct, threads, duration);
                let r = run_map_avg(&cfg, reps);
                rows.push(BenchRow {
                    algo: algo.name(),
                    workload,
                    threads,
                    total_ops: r.total_ops,
                    ns_per_op: r.elapsed.as_nanos() as f64 * threads as f64
                        / r.total_ops.max(1) as f64,
                    mops: r.throughput_mops(),
                    optimistic_attempts: r.stats.optimistic_attempts,
                    optimistic_failures: r.stats.optimistic_failures,
                    optimistic_fallbacks: r.stats.optimistic_fallbacks,
                });
            }
        }
    }
    rows
}

/// One multi-tenant service point: Zipf-over-Zipf traffic through the
/// namespace-routed front-end at a given hot-namespace count.
#[derive(Clone, Debug)]
pub struct TenantBenchRow {
    /// Hot namespaces the client's traffic spans.
    pub namespaces: u64,
    /// Completed operations.
    pub total_ops: u64,
    /// Client-observed nanoseconds per operation (single client thread).
    pub ns_per_op: f64,
    /// Aggregate throughput in Mops/s.
    pub mops: f64,
    /// Tenants lazily created during the run.
    pub namespaces_created: u64,
    /// Tenants retired by idle sweeps during the run.
    pub namespaces_retired: u64,
}

/// Hot-namespace counts of the recorded multi-tenant points.
pub const TENANT_POINTS: [u64; 3] = [1, 64, 4096];

/// Run the multi-tenant service points: one client thread pipelines
/// batched Zipf-over-Zipf traffic (10 % updates) into a two-core service
/// over the elastic table, for `duration` per point. The 1-namespace row
/// is the single-tenant round-trip baseline the 64- and 4096-namespace
/// rows are judged against.
pub fn run_tenant_points(duration: Duration) -> Vec<TenantBenchRow> {
    const BATCH: usize = 64;
    let mix = OpMix::updates(10);
    TENANT_POINTS
        .iter()
        .map(|&namespaces| {
            let svc = AlgoKind::ElasticHashTable.make_service(
                BENCH_SIZE * 2,
                ServiceConfig {
                    cores: 2,
                    ring_capacity: 1024,
                    max_batch: BATCH,
                    ..ServiceConfig::default()
                },
            );
            let client = svc.client();
            let sampler = TenantSampler::zipf_over_zipf(namespaces, BENCH_SIZE as u64 * 2);
            let mut rng = FastRng::new(0x07E4_A117 ^ namespaces);
            let mut pending = Vec::with_capacity(BATCH);
            let mut total_ops = 0u64;
            let start = Instant::now();
            while start.elapsed() < duration {
                for _ in 0..BATCH {
                    let (ns, key) = sampler.sample(&mut rng);
                    let op = service_op(mix.sample(&mut rng), key);
                    pending.push(client.namespace(ns).submit(key, op).expect("running"));
                }
                for f in pending.drain(..) {
                    let _ = f.wait().expect("accepted ops execute");
                }
                total_ops += BATCH as u64;
            }
            let elapsed = start.elapsed().as_secs_f64();
            let counts = svc.namespace_counts();
            svc.shutdown();
            TenantBenchRow {
                namespaces,
                total_ops,
                ns_per_op: elapsed * 1e9 / total_ops.max(1) as f64,
                mops: total_ops as f64 / elapsed / 1e6,
                namespaces_created: counts.created,
                namespaces_retired: counts.retired,
            }
        })
        .collect()
}

/// One priority-queue point of the trajectory: a [`PqKind`] × mix ×
/// thread-count cell, with the head-contention counter that explains the
/// scaling (every pop-min fights over the same head run).
#[derive(Clone, Debug)]
pub struct PqBenchRow {
    /// Queue short name ([`PqKind::name`]).
    pub algo: &'static str,
    /// Workload label (`push-heavy`, `pop-heavy`, `mixed`).
    pub workload: &'static str,
    /// Worker thread count.
    pub threads: usize,
    /// Completed operations across all threads.
    pub total_ops: u64,
    /// Per-thread nanoseconds per operation.
    pub ns_per_op: f64,
    /// Aggregate throughput in Mops/s.
    pub mops: f64,
    /// Pushes that took effect.
    pub pq_pushes: u64,
    /// Pop-mins that returned an element.
    pub pq_pops: u64,
    /// Failed head-claim attempts across contended pops.
    pub pq_pop_contention: u64,
}

/// Run the priority-queue points: both [`PqKind`]s × the three
/// [`PqOpMix`] presets × {1, 4} threads, `duration` per cell.
pub fn run_pq_points(duration: Duration) -> Vec<PqBenchRow> {
    let mut rows = Vec::new();
    for kind in PqKind::all() {
        for (workload, mix) in [
            ("push-heavy", PqOpMix::push_heavy()),
            ("pop-heavy", PqOpMix::pop_heavy()),
            ("mixed", PqOpMix::mixed()),
        ] {
            for threads in [1usize, 4] {
                let r = PqRunConfig {
                    kind: *kind,
                    prefill: BENCH_SIZE,
                    key_range: BENCH_SIZE as u64 * 2,
                    mix,
                    threads,
                    duration,
                    seed: 0xBEEF ^ threads as u64,
                }
                .run();
                rows.push(PqBenchRow {
                    algo: kind.name(),
                    workload,
                    threads,
                    total_ops: r.total_ops,
                    ns_per_op: r.elapsed.as_nanos() as f64 * threads as f64
                        / r.total_ops.max(1) as f64,
                    mops: r.throughput_mops(),
                    pq_pushes: r.stats.pq_pushes,
                    pq_pops: r.stats.pq_pops,
                    pq_pop_contention: r.stats.pq_pop_contention,
                });
            }
        }
    }
    rows
}

/// Render the matrix as the hand-rolled JSON snapshot format.
///
/// Schema `v3` is `v2` without the per-row `"optimistic"` flag (the toggle
/// it recorded is gone); every other key keeps its meaning, so older
/// snapshots still diff against new ones section by section — a lazy-ht or
/// bst-tk row continues their `"optimistic": false` series, a coupling-ht
/// or elastic-ht row the `true` series.
pub fn to_json(
    rows: &[BenchRow],
    tenants: &[TenantBenchRow],
    pq: &[PqBenchRow],
    scale_label: &str,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"csds-bench-trajectory-v3\",\n");
    s.push_str(&format!("  \"scale\": \"{scale_label}\",\n"));
    s.push_str(&format!("  \"size\": {BENCH_SIZE},\n"));
    s.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"algo\": \"{}\", \"workload\": \"{}\", \"threads\": {}, \
             \"total_ops\": {}, \"ns_per_op\": {:.1}, \
             \"mops\": {:.3}, \"optimistic_attempts\": {}, \
             \"optimistic_failures\": {}, \"optimistic_fallbacks\": {}}}{}\n",
            r.algo,
            r.workload,
            r.threads,
            r.total_ops,
            r.ns_per_op,
            r.mops,
            r.optimistic_attempts,
            r.optimistic_failures,
            r.optimistic_fallbacks,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    if tenants.is_empty() && pq.is_empty() {
        s.push_str("  ]\n}\n");
        return s;
    }
    s.push_str("  ],\n");
    if !tenants.is_empty() {
        s.push_str("  \"service_tenants\": [\n");
        for (i, t) in tenants.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"namespaces\": {}, \"total_ops\": {}, \"ns_per_op\": {:.1}, \
                 \"mops\": {:.3}, \"namespaces_created\": {}, \
                 \"namespaces_retired\": {}}}{}\n",
                t.namespaces,
                t.total_ops,
                t.ns_per_op,
                t.mops,
                t.namespaces_created,
                t.namespaces_retired,
                if i + 1 == tenants.len() { "" } else { "," },
            ));
        }
        if pq.is_empty() {
            s.push_str("  ]\n}\n");
            return s;
        }
        s.push_str("  ],\n");
    }
    s.push_str("  \"pq\": [\n");
    for (i, p) in pq.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"algo\": \"{}\", \"workload\": \"{}\", \"threads\": {}, \
             \"total_ops\": {}, \"ns_per_op\": {:.1}, \"mops\": {:.3}, \
             \"pq_pushes\": {}, \"pq_pops\": {}, \"pq_pop_contention\": {}}}{}\n",
            p.algo,
            p.workload,
            p.threads,
            p.total_ops,
            p.ns_per_op,
            p.mops,
            p.pq_pushes,
            p.pq_pops,
            p.pq_pop_contention,
            if i + 1 == pq.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Render the matrix as a fixed-width table for terminal consumption.
pub fn render_table(rows: &[BenchRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<12} {:<7} {:>7} {:>9} {:>8} {:>9} {:>8} {:>9}\n",
        "algo", "mix", "threads", "ns/op", "Mops/s", "attempts", "torn", "fallbacks"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:<7} {:>7} {:>9.1} {:>8.3} {:>9} {:>8} {:>9}\n",
            r.algo,
            r.workload,
            r.threads,
            r.ns_per_op,
            r.mops,
            r.optimistic_attempts,
            r.optimistic_failures,
            r.optimistic_fallbacks,
        ));
    }
    s
}

/// Render the priority-queue points as a fixed-width table.
pub fn render_pq_table(pq: &[PqBenchRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<16} {:<11} {:>7} {:>10} {:>9} {:>8} {:>9} {:>9} {:>10}\n",
        "queue", "mix", "threads", "ops", "ns/op", "Mops/s", "pushes", "pops", "contention"
    ));
    for p in pq {
        s.push_str(&format!(
            "{:<16} {:<11} {:>7} {:>10} {:>9.1} {:>8.3} {:>9} {:>9} {:>10}\n",
            p.algo,
            p.workload,
            p.threads,
            p.total_ops,
            p.ns_per_op,
            p.mops,
            p.pq_pushes,
            p.pq_pops,
            p.pq_pop_contention,
        ));
    }
    s
}

/// Render the multi-tenant points as a fixed-width table.
pub fn render_tenant_table(tenants: &[TenantBenchRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<12} {:>10} {:>9} {:>8} {:>8} {:>8}\n",
        "namespaces", "ops", "ns/op", "Mops/s", "created", "retired"
    ));
    for t in tenants {
        s.push_str(&format!(
            "{:<12} {:>10} {:>9.1} {:>8.3} {:>8} {:>8}\n",
            t.namespaces,
            t.total_ops,
            t.ns_per_op,
            t.mops,
            t.namespaces_created,
            t.namespaces_retired,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_row() -> BenchRow {
        BenchRow {
            algo: "lazy-ht",
            workload: "read",
            threads: 1,
            total_ops: 1_000,
            ns_per_op: 23.25,
            mops: 43.01,
            optimistic_attempts: 1_000,
            optimistic_failures: 2,
            optimistic_fallbacks: 0,
        }
    }

    fn fake_tenant_row() -> TenantBenchRow {
        TenantBenchRow {
            namespaces: 64,
            total_ops: 2_048,
            ns_per_op: 410.0,
            mops: 2.44,
            namespaces_created: 64,
            namespaces_retired: 12,
        }
    }

    fn fake_pq_row() -> PqBenchRow {
        PqBenchRow {
            algo: "lotanshavit-pq",
            workload: "pop-heavy",
            threads: 4,
            total_ops: 9_000,
            ns_per_op: 180.5,
            mops: 5.54,
            pq_pushes: 2_700,
            pq_pops: 5_400,
            pq_pop_contention: 37,
        }
    }

    #[test]
    fn json_snapshot_is_balanced_and_carries_every_field() {
        let rows = vec![fake_row(), fake_row()];
        let j = to_json(&rows, &[], &[], "quick");
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"schema\"",
            "\"scale\": \"quick\"",
            "\"algo\": \"lazy-ht\"",
            "\"ns_per_op\": 23.2",
            "\"optimistic_fallbacks\": 0",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
        // Exactly one separating comma between the two result objects.
        assert_eq!(j.matches("}},\n").count() + j.matches("},\n").count(), 1);
    }

    #[test]
    fn json_snapshot_carries_the_tenant_section() {
        let j = to_json(
            &[fake_row()],
            &[fake_tenant_row(), fake_tenant_row()],
            &[],
            "quick",
        );
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"service_tenants\"",
            "\"namespaces\": 64",
            "\"namespaces_created\": 64",
            "\"namespaces_retired\": 12",
            "\"ns_per_op\": 410.0",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }

    #[test]
    fn json_snapshot_carries_the_pq_section_in_every_combination() {
        // All three optional-section combinations stay balanced JSON.
        for (tenants, pq) in [
            (vec![], vec![fake_pq_row(), fake_pq_row()]),
            (vec![fake_tenant_row()], vec![fake_pq_row()]),
            (vec![fake_tenant_row()], vec![]),
        ] {
            let j = to_json(&[fake_row()], &tenants, &pq, "quick");
            assert_eq!(
                j.matches('{').count(),
                j.matches('}').count(),
                "unbalanced braces:\n{j}"
            );
            assert_eq!(j.matches('[').count(), j.matches(']').count());
            assert!(j.contains("csds-bench-trajectory-v3"));
            if !pq.is_empty() {
                for key in [
                    "\"pq\"",
                    "\"algo\": \"lotanshavit-pq\"",
                    "\"workload\": \"pop-heavy\"",
                    "\"pq_pushes\": 2700",
                    "\"pq_pops\": 5400",
                    "\"pq_pop_contention\": 37",
                ] {
                    assert!(j.contains(key), "missing {key} in:\n{j}");
                }
            }
        }
    }

    #[test]
    fn pq_table_renders_one_line_per_row_plus_header() {
        let t = render_pq_table(&[fake_pq_row(), fake_pq_row()]);
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("lotanshavit-pq"));
    }

    #[test]
    fn tenant_table_renders_one_line_per_row_plus_header() {
        let t = render_tenant_table(&[fake_tenant_row()]);
        assert_eq!(t.lines().count(), 2);
        assert!(t.contains("64"));
    }

    #[test]
    fn table_renders_one_line_per_row_plus_header() {
        let rows = vec![fake_row(), fake_row(), fake_row()];
        let t = render_table(&rows);
        assert_eq!(t.lines().count(), 4);
        assert!(t.contains("lazy-ht"));
    }
}
