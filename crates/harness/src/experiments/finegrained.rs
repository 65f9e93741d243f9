//! Fine-grained practical-wait-freedom metrics: Figures 5–9 and the §5.1
//! per-request outlier and lock-coupling studies.

use csds_metrics::DelayPolicy;
use csds_workload::KeyDist;

use crate::experiments::coarse::{SIZES, UPDATE_PCTS};
use crate::factory::{AlgoKind, Family};
use crate::report::{pct, Table};
use crate::runner::{run_map_avg, MapRunConfig};
use crate::Scale;

/// **Figure 5** — fraction of time threads spend waiting for locks across
/// the evaluation grid. Paper: under 2 % everywhere, mostly far below; the
/// BST is exactly 0 (trylocks restart instead of waiting).
pub fn fig5(scale: Scale) {
    let threads = scale.default_threads();
    let mut table = Table::new(
        format!("Fig. 5 - fraction of time waiting for locks, {threads} threads"),
        &["structure", "size", "upd%", "wait fraction", "waited ops"],
    );
    for family in Family::all() {
        for size in SIZES {
            for pct_u in UPDATE_PCTS {
                let cfg = MapRunConfig::paper_default(
                    family.best_blocking(),
                    size,
                    pct_u,
                    threads,
                    scale.duration(),
                );
                let r = run_map_avg(&cfg, scale.reps());
                table.row(vec![
                    family.label().into(),
                    size.to_string(),
                    pct_u.to_string(),
                    pct(r.wait_fraction()),
                    pct(r.waited_op_share()),
                ]);
            }
        }
    }
    table.print();
    println!("paper: <2% in all configurations; BST exactly 0 (trylock restarts)");
    println!(
        "waited ops: share of operations that waited for a lock at least once; unlike the\n\
         time fraction, a waiter that is descheduled counts once however long it is away"
    );
}

/// **Figure 6** — fraction of operations that restart at least once.
/// Paper: well below 1 % everywhere; exactly 0 for the hash table
/// (per-bucket locks leave nothing to validate).
pub fn fig6(scale: Scale) {
    let threads = scale.default_threads();
    let mut table = Table::new(
        format!("Fig. 6 - fraction of requests restarted, {threads} threads"),
        &["structure", "size", "upd%", "restarted fraction"],
    );
    for family in Family::all() {
        for size in SIZES {
            for pct_u in UPDATE_PCTS {
                let cfg = MapRunConfig::paper_default(
                    family.best_blocking(),
                    size,
                    pct_u,
                    threads,
                    scale.duration(),
                );
                let r = run_map_avg(&cfg, scale.reps());
                table.row(vec![
                    family.label().into(),
                    size.to_string(),
                    pct_u.to_string(),
                    pct(r.restart_fraction()),
                ]);
            }
        }
    }
    table.print();
    println!("paper: << 1% everywhere; exactly 0 for the hash table");
}

/// **§5.1 outliers** — per-request distribution on a 512-element lazy list
/// with 40 threads and 10 % updates. Paper: 0.01 % of requests waited, none
/// longer than 6 µs; of 26 M ops, 2900 restarted once, 9 twice, none more.
pub fn outliers(scale: Scale) {
    let cfg = MapRunConfig::paper_default(
        AlgoKind::LazyList,
        512,
        10,
        40,
        scale.duration().max(std::time::Duration::from_millis(500)),
    );
    let r = run_map_avg(&cfg, scale.reps());
    let mut table = Table::new(
        "Sec. 5.1 - per-request outliers (lazy list, 512 elements, 40 threads, 10% upd)",
        &["metric", "value"],
    );
    table.row(vec!["operations completed".into(), r.total_ops.to_string()]);
    table.row(vec![
        "requests that waited for a lock".into(),
        format!("{} ({})", r.stats.ops_waited, pct(r.waited_op_share())),
    ]);
    table.row(vec![
        "max single lock wait".into(),
        format!("{:.1} us", r.stats.max_wait_ns as f64 / 1000.0),
    ]);
    for k in 1..6 {
        table.row(vec![
            format!("ops restarted exactly {k}x"),
            r.stats.restart_hist[k].to_string(),
        ]);
    }
    let beyond: u64 = r.stats.restart_hist[6..].iter().sum();
    table.row(vec!["ops restarted 6+ times".into(), beyond.to_string()]);
    table.print();
    if r.stats.wait_hist.count() > 0 {
        let mut hist = Table::new(
            "lock-wait distribution (log2 buckets)",
            &["wait (ns)", "count"],
        );
        for (lo, hi, count) in r.stats.wait_hist.nonzero_buckets() {
            hist.row(vec![format!("[{lo}, {hi})"), count.to_string()]);
        }
        hist.print();
        if let Some(p99) = r.stats.wait_hist.quantile_upper_bound(0.99) {
            println!("p99 wait < {p99} ns");
        }
    }
    println!("paper: 0.01% waited, max 6us; 2900 once / 9 twice / 0 beyond out of 26M");
}

/// **§5.1 lock-coupling** — the naive blocking list is *not* practically
/// wait-free: with 20 threads and 1 % updates it waits ≈10 % of the time,
/// versus (near) zero for the lazy list.
pub fn coupling(scale: Scale) {
    let threads = scale.default_threads();
    let mut table = Table::new(
        format!("Sec. 5.1 - lock-coupling vs lazy list, {threads} threads, 1% updates"),
        &["algorithm", "size", "wait fraction", "throughput (Mops/s)"],
    );
    for algo in [AlgoKind::CouplingList, AlgoKind::LazyList] {
        for size in [512usize, 2048] {
            let cfg = MapRunConfig::paper_default(algo, size, 1, threads, scale.duration());
            let r = run_map_avg(&cfg, scale.reps());
            table.row(vec![
                algo.name().into(),
                size.to_string(),
                pct(r.wait_fraction()),
                crate::report::mops(r.throughput_mops()),
            ]);
        }
    }
    table.print();
    println!("paper: coupling waits ~10% regardless of size; lazy list ~0");
    println!(
        "here: coupling *reads* validate a version and take no locks, so the wait fraction \
         shown is the writers' (plus the few reads that fell back to the locked walk)"
    );
}

/// **Figure 7** — Zipfian workload (s = 0.8), 2048 elements, 20 threads,
/// 10 % updates. Paper: waits ≤1 %, restarts ≤0.30 % — slightly above the
/// uniform case but still practically wait-free.
pub fn fig7(scale: Scale) {
    let threads = scale.default_threads();
    let mut table = Table::new(
        format!("Fig. 7 - Zipfian s=0.8, 2048 elements, {threads} threads, 10% updates"),
        &[
            "structure",
            "wait fraction",
            "waited ops",
            "restarted fraction",
        ],
    );
    for family in Family::all() {
        let mut cfg = MapRunConfig::paper_default(
            family.best_blocking(),
            2048,
            10,
            threads,
            scale.duration(),
        );
        cfg.dist = KeyDist::PAPER_ZIPF;
        let r = run_map_avg(&cfg, scale.reps());
        table.row(vec![
            family.label().into(),
            pct(r.wait_fraction()),
            pct(r.waited_op_share()),
            pct(r.restart_fraction()),
        ]);
    }
    table.print();
    println!("paper: waits <= 1%, restarts <= 0.30% across all four structures");
}

/// **Figure 8** — extreme contention: 40 threads, 25 % updates, sizes 16 to
/// 512. Paper: at size 16 the list waits ~30 % / restarts 20 %; all metrics
/// decay steeply (roughly exponentially) with size — by 512, negligible.
pub fn fig8(scale: Scale) {
    let sizes = [16usize, 32, 64, 128, 256, 512];
    for family in Family::all() {
        let mut table = Table::new(
            format!(
                "Fig. 8 - {} under extreme contention (40 threads, 25% updates)",
                family.label()
            ),
            &[
                "size",
                "wait fraction",
                "waited ops",
                "restarted >=1",
                "restarted >3",
            ],
        );
        for size in sizes {
            let cfg =
                MapRunConfig::paper_default(family.best_blocking(), size, 25, 40, scale.duration());
            let r = run_map_avg(&cfg, scale.reps());
            table.row(vec![
                size.to_string(),
                pct(r.wait_fraction()),
                pct(r.waited_op_share()),
                pct(r.restart_fraction()),
                pct(r.repeated_restart_fraction()),
            ]);
        }
        table.print();
    }
    println!(
        "paper: size 16 stretches practical wait-freedom (list: ~30% wait, 20% restart,\n\
         1.8% repeated); by size 32 waits are ~1% and metrics keep decaying with size"
    );
}

/// **Figure 9** — unresponsive threads: every 10th critical section stalls
/// its holder 1–100 µs (I/O, page fault, …). 2048 elements, 20 threads,
/// 10 % updates. Paper: waits stay ≤1 %, restarts ≤0.015 %.
pub fn fig9(scale: Scale) {
    let threads = scale.default_threads();
    let mut table = Table::new(
        format!("Fig. 9 - delayed lock holders (1-100us every 10th CS), {threads} threads"),
        &[
            "structure",
            "wait fraction",
            "waited ops",
            "restarted fraction",
            "delays injected",
        ],
    );
    for family in Family::all() {
        let mut cfg = MapRunConfig::paper_default(
            family.best_blocking(),
            2048,
            10,
            threads,
            scale.duration(),
        );
        cfg.delay = Some(DelayPolicy::paper_unresponsive(0xDE11A));
        let r = run_map_avg(&cfg, scale.reps());
        table.row(vec![
            family.label().into(),
            pct(r.wait_fraction()),
            pct(r.waited_op_share()),
            pct(r.restart_fraction()),
            r.stats.injected_delays.to_string(),
        ]);
    }
    table.print();
    println!("paper: waits <= 1% (BST: counts trylock-retry time), restarts <= 0.015%");
}
