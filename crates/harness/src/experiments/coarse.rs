//! Coarse-grained metrics: Figures 1 (with 2), 3 and 4.

use crate::factory::{AlgoKind, Family};
use crate::report::{mops, Table};
use crate::runner::{run_map_avg, MapRunConfig};
use crate::Scale;

/// The paper's evaluation grid (§3.3).
pub(crate) const SIZES: [usize; 3] = [512, 2048, 8192];
pub(crate) const UPDATE_PCTS: [u32; 3] = [1, 10, 50];

/// **Figure 1** — throughput of blocking (lazy), lock-free (Harris) and
/// wait-free (Timnat-style) linked lists; 1024 elements, 10 % updates,
/// increasing thread counts. The paper's shape: wait-free ≈ 50 % of the
/// other two, blocking ≈ lock-free. Then **Figure 2**'s read-only
/// comparison of direct pointers (lazy) and interposed links (wait-free).
pub fn fig1(scale: Scale) {
    let algos = [
        AlgoKind::LazyList,
        AlgoKind::HarrisList,
        AlgoKind::WaitFreeList,
    ];
    let mut table = Table::new(
        "Fig. 1 - linked list throughput (Mops/s), 1024 elements, 10% updates",
        &[
            "threads",
            "blocking(lazy)",
            "lock-free(harris)",
            "wait-free",
            "wf/blocking",
        ],
    );
    for &threads in &scale.thread_curve() {
        let mut row = vec![threads.to_string()];
        let mut tp = Vec::new();
        for algo in algos {
            let cfg = MapRunConfig::paper_default(algo, 1024, 10, threads, scale.duration());
            let r = run_map_avg(&cfg, scale.reps());
            tp.push(r.throughput_mops());
            row.push(mops(r.throughput_mops()));
        }
        row.push(format!("{:.2}", tp[2] / tp[0].max(1e-12)));
        table.row(row);
    }
    table.print();
    println!(
        "paper: wait-free throughput is ~50% of blocking/lock-free for lists\n\
         (footnote 2: ~67% for load-factor-1 hash tables)"
    );

    // Fig. 2's explanation of that gap: the wait-free list interposes a
    // link object between nodes, so a read-only traversal pays two
    // dereferences per hop where the lazy list pays one.
    let mut fig2 = Table::new(
        "Fig. 2 - read-only traversal (Mops/s), 1 thread, 0% updates",
        &["size", "direct(lazy)", "interposed(wait-free)", "wf/direct"],
    );
    for size in [256usize, 1024] {
        let tp = [AlgoKind::LazyList, AlgoKind::WaitFreeList].map(|algo| {
            let cfg = MapRunConfig::paper_default(algo, size, 0, 1, scale.duration());
            run_map_avg(&cfg, scale.reps()).throughput_mops()
        });
        fig2.row(vec![
            size.to_string(),
            mops(tp[0]),
            mops(tp[1]),
            format!("{:.2}", tp[1] / tp[0].max(1e-12)),
        ]);
    }
    fig2.print();
    println!("paper: the interposed node -> link -> node layout explains the ~2x gap");
}

/// **Figure 3** — throughput scalability of the best blocking structure per
/// family across sizes and update ratios. Paper's shape: no collapse as
/// threads increase; hash table ≫ BST ≈ skiplist ≫ list; bigger structures
/// and more updates cost throughput.
pub fn fig3(scale: Scale) {
    for size in SIZES {
        for pct in UPDATE_PCTS {
            let mut table = Table::new(
                format!("Fig. 3 - throughput (Mops/s), {size} elements, {pct}% updates"),
                &["threads", "linked list", "skip list", "hash table", "BST"],
            );
            for &threads in &scale.thread_curve() {
                let mut row = vec![threads.to_string()];
                for family in Family::all() {
                    let cfg = MapRunConfig::paper_default(
                        family.best_blocking(),
                        size,
                        pct,
                        threads,
                        scale.duration(),
                    );
                    let r = run_map_avg(&cfg, scale.reps());
                    row.push(mops(r.throughput_mops()));
                }
                table.row(row);
            }
            table.print();
        }
    }
    println!(
        "paper: throughput does not collapse with added threads; ordering\n\
         hash table > BST ~ skip list > linked list at every size/mix"
    );
}

/// **Figure 4** — per-thread throughput and its standard deviation
/// (fairness). The paper reports a stddev of ≈0.2 % of the mean.
pub fn fig4(scale: Scale) {
    let threads = scale.default_threads();
    let mut table = Table::new(
        format!("Fig. 4 - per-thread throughput (ops/s) and stddev, {threads} threads"),
        &[
            "structure",
            "size",
            "upd%",
            "mean/thread",
            "stddev",
            "stddev/mean",
        ],
    );
    for family in Family::all() {
        for size in SIZES {
            for pct in UPDATE_PCTS {
                let cfg = MapRunConfig::paper_default(
                    family.best_blocking(),
                    size,
                    pct,
                    threads,
                    scale.duration(),
                );
                let r = run_map_avg(&cfg, scale.reps());
                let mean = r.per_thread_mean();
                let std = r.per_thread_std();
                table.row(vec![
                    family.label().into(),
                    size.to_string(),
                    pct.to_string(),
                    format!("{mean:.0}"),
                    format!("{std:.0}"),
                    format!("{:.2}%", 100.0 * std / mean.max(1e-9)),
                ]);
            }
        }
    }
    table.print();
    println!("paper: stddev ~0.2% of the per-thread mean => high fairness");
}
