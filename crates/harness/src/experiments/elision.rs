//! HTM lock-elision experiments: Tables 2 and 3 (paper §5.4).
//!
//! The paper ran these on a 4-core/8-thread Haswell with 8 threads per
//! physical core (32 total) to force frequent context switches; we use 32
//! threads as well — on a smaller host the multiprogramming ratio is even
//! higher, which only strengthens the scenario the experiment is about
//! (lock holders being descheduled).

use crate::factory::Family;
use crate::report::{pct, ratio, Table};
use crate::runner::{run_map_avg, MapRunConfig};
use crate::Scale;

/// Paper Table 2/3 configuration: 1024 elements, 32 threads.
const ELISION_SIZE: usize = 1024;
const ELISION_THREADS: usize = 32;
const ELISION_UPDATES: [u32; 3] = [20, 50, 100];

/// **Table 2** — fraction of critical sections that fail to elide the lock
/// and fall back to real acquisition. Paper: well below 1 % except the
/// skiplist (multiple locks per update ⇒ biggest speculative footprint):
/// list/HT ≈ 0.001–0.002, skiplist ≈ 0.011–0.014, BST ≈ 0.000–0.001.
///
/// A second table splits the speculative attempts of the same runs by
/// abort cause: a conflict (a named lock held at commit, or a changed read)
/// or an interrupt (the attempt outlived the scheduling quantum).
pub fn table2(scale: Scale) {
    let headers = ["upd%", "linked list", "skip list", "hash table", "BST"];
    let mut table = Table::new(
        format!(
            "Table 2 - elision fallback fraction ({ELISION_THREADS} threads, {ELISION_SIZE} elements)"
        ),
        &headers,
    );
    let mut aborts = Table::new(
        "Abort causes per speculative attempt (conflict / interrupt), same runs",
        &headers,
    );
    for pct_u in ELISION_UPDATES {
        let mut row = vec![pct_u.to_string()];
        let mut abort_row = row.clone();
        for family in Family::all() {
            let cfg = MapRunConfig::paper_default(
                family.best_blocking_elided(),
                ELISION_SIZE,
                pct_u,
                ELISION_THREADS,
                scale.duration(),
            );
            let r = run_map_avg(&cfg, scale.reps());
            row.push(pct(r.fallback_fraction()));
            let s = &r.stats;
            let per_attempt = |n: u64| pct(n as f64 / s.elide_attempts.max(1) as f64);
            abort_row.push(format!(
                "{} / {}",
                per_attempt(s.elide_aborts_conflict),
                per_attempt(s.elide_aborts_interrupt)
            ));
        }
        table.row(row);
        aborts.row(abort_row);
    }
    table.print();
    println!(
        "paper: 0.001-0.002 (list/HT), 0.011-0.014 (skip list, worst: multiple\n\
         locks per update), 0.000-0.001 (BST) - fractions, not percent"
    );
    aborts.print();
}

/// **Table 3** — throughput of the elided variant relative to the default
/// locking variant under multiprogramming. Paper: >1 everywhere; modest
/// for the list (1.1–2.3×), dramatic for the skiplist (10–53×), 2.5–3×
/// for hash table and BST.
pub fn table3(scale: Scale) {
    let mut table = Table::new(
        format!(
            "Table 3 - elided/default throughput ratio ({ELISION_THREADS} threads, {ELISION_SIZE} elements)"
        ),
        &["upd%", "linked list", "skip list", "hash table", "BST"],
    );
    for pct_u in ELISION_UPDATES {
        let mut row = vec![pct_u.to_string()];
        for family in Family::all() {
            let base_cfg = MapRunConfig::paper_default(
                family.best_blocking(),
                ELISION_SIZE,
                pct_u,
                ELISION_THREADS,
                scale.duration(),
            );
            let elided_cfg = MapRunConfig {
                algo: family.best_blocking_elided(),
                ..base_cfg.clone()
            };
            let base = run_map_avg(&base_cfg, scale.reps());
            let elided = run_map_avg(&elided_cfg, scale.reps());
            row.push(ratio(
                elided.throughput_mops() / base.throughput_mops().max(1e-12),
            ));
        }
        table.row(row);
    }
    table.print();
    println!(
        "paper: improvements everywhere under multiprogramming; skip list largest\n\
         (1.1-2.3x list, 10-53x skip list, 2.5-3.1x hash table, 2.2-2.7x BST)"
    );
}
