//! HTM lock elision under multiprogramming — the paper's §5.4 scenario as
//! a runnable demo.
//!
//! Spawns far more threads than cores so lock holders get descheduled, then
//! runs the same skiplist workload twice: once with plain locks, once with
//! (emulated-TSX) elided locks, and prints the Table 2/3-style metrics:
//! fallback fraction and throughput ratio.
//!
//! ```text
//! cargo run --release --example htm_elision
//! ```

use std::time::Duration;

use csds::harness::{AlgoKind, MapRunConfig};

fn main() {
    const SIZE: usize = 1024;
    const THREADS: usize = 32; // paper: 8 threads per physical core
    const WINDOW: Duration = Duration::from_millis(600);

    println!(
        "multiprogramming: {THREADS} threads on {} core(s)\n",
        num_cpus()
    );

    for update_pct in [20u32, 50, 100] {
        let base = MapRunConfig::paper_default(
            AlgoKind::HerlihySkipList,
            SIZE,
            update_pct,
            THREADS,
            WINDOW,
        );
        let elided = MapRunConfig {
            algo: AlgoKind::HerlihySkipListElided,
            ..base.clone()
        };

        let r_base = base.run();
        let r_elided = elided.run();

        println!("skiplist, {update_pct}% updates:");
        println!(
            "  locks   : {:>8.3} Mops/s, wait fraction {:.3}%",
            r_base.throughput_mops(),
            100.0 * r_base.wait_fraction()
        );
        println!(
            "  elided  : {:>8.3} Mops/s, fallback fraction {:.4} ({} commits, {} fallbacks, {} interrupt-aborts)",
            r_elided.throughput_mops(),
            r_elided.fallback_fraction(),
            r_elided.stats.elide_commits,
            r_elided.stats.elide_fallbacks,
            r_elided.stats.elide_aborts_interrupt,
        );
        println!(
            "  speedup : {:.2}x (paper Table 3 reports the skip list gaining the most)\n",
            r_elided.throughput_mops() / r_base.throughput_mops().max(1e-12)
        );
    }
}

fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
