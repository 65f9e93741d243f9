//! HTM lock-elision experiments: Tables 2 and 3 (paper §5.4).
//!
//! The paper ran these on a 4-core/8-thread Haswell with 8 threads per
//! physical core (32 total) to force frequent context switches; we use 32
//! threads as well — on a smaller host the multiprogramming ratio is even
//! higher, which only strengthens the scenario the experiment is about
//! (lock holders being descheduled).

use csds_analysis as model_eqs;
use csds_core::ELISION_RETRIES;

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
/// Each update rate gets a model row beside the measured one: §6.4's
/// fallback probability for the list and the hash table (the paper models
/// neither the skip list nor the BST). A measured cell more than 2× off
/// its model is marked `*`.
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
        let mut model_row = vec![format!("{pct_u} model")];
        for family in Family::all() {
            let cfg = MapRunConfig::paper_default(
                family.best_blocking_elided(),
                ELISION_SIZE,
                pct_u,
                ELISION_THREADS,
                scale.duration(),
            );
            let r = run_map_avg(&cfg, scale.reps());
            let measured = r.fallback_fraction();
            let model = fallback_model(family, pct_u);
            let off = model.is_some_and(|m| measured > 2.0 * m || m > 2.0 * measured);
            row.push(format!("{}{}", pct(measured), if off { " *" } else { "" }));
            model_row.push(model.map_or_else(|| "no model".into(), pct));
            let s = &r.stats;
            let per_attempt = |n: u64| pct(n as f64 / s.elide_attempts.max(1) as f64);
            abort_row.push(format!(
                "{} / {}",
                per_attempt(s.elide_aborts_conflict),
                per_attempt(s.elide_aborts_interrupt)
            ));
        }
        table.row(row);
        table.row(model_row);
        aborts.row(abort_row);
    }
    table.print();
    println!(
        "model: sec. 6.4's p_lock = p_conflict^{ELISION_RETRIES}; * marks a measurement more than 2x off it\n\
         paper: 0.001-0.002 (list/HT), 0.011-0.014 (skip list, worst: multiple\n\
         locks per update), 0.000-0.001 (BST) - fractions, not percent"
    );
    aborts.print();
}

/// Paper §6.4's probability that a critical section of `family` falls back
/// to locking at `update_pct` % updates, with the durations the `model`
/// experiment assumes for §6.4: the list's write phase is ~10 % of an
/// update that costs 1.1 reads, the hash table's update costs 2 reads and
/// is all write phase. `None` for the skip list and the BST.
fn fallback_model(family: Family, update_pct: u32) -> Option<f64> {
    let (t, n) = (ELISION_THREADS as u64, ELISION_SIZE as u64);
    let u = f64::from(update_pct) / 100.0;
    let p_conflict = match family {
        Family::List => {
            let f_u = model_eqs::update_time_fraction(u, 1.1, 1.0);
            let f_w = model_eqs::write_phase_fraction(f_u, 0.1, 1.0);
            model_eqs::conflict_probability(t, f_w, |k| {
                model_eqs::birthday_linked_list_tsx(k, n, t)
            })
        }
        Family::HashTable => {
            let f_w = model_eqs::update_time_fraction(u, 2.0, 1.0);
            model_eqs::conflict_probability(t, f_w, |k| model_eqs::birthday_hash_table_tsx(k, n, t))
        }
        Family::SkipList | Family::Bst => return None,
    };
    Some(model_eqs::fallback_probability(p_conflict, ELISION_RETRIES))
}

/// **Table 3** — throughput of the elided variant relative to the default
/// locking variant under multiprogramming. Paper: >1 everywhere; modest
/// for the list (1.1–2.3×), dramatic for the skiplist (10–53×), 2.5–3×
/// for hash table and BST.
///
/// Each cell runs the default and the elided variant alternately, in
/// `max(reps, 3)` pairs with one seed per pair, and prints the median of
/// the per-pair ratios with their min–max.
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
            let mut ratios: Vec<f64> = (0..scale.reps().max(3) as u64)
                .map(|i| {
                    let base = MapRunConfig {
                        seed: base_cfg.seed.wrapping_add(i * 0x1234_5678),
                        ..base_cfg.clone()
                    };
                    let elided = MapRunConfig {
                        algo: family.best_blocking_elided(),
                        ..base.clone()
                    };
                    let base = base.run().throughput_mops();
                    elided.run().throughput_mops() / base.max(1e-12)
                })
                .collect();
            ratios.sort_by(f64::total_cmp);
            row.push(format!(
                "{} ({:.2}-{:.2})",
                ratio(ratios[ratios.len() / 2]),
                ratios[0],
                ratios[ratios.len() - 1]
            ));
        }
        table.row(row);
    }
    table.print();
    println!(
        "cells: median elided/default ratio of alternating pairs (min-max)\n\
         paper: improvements everywhere under multiprogramming; skip list largest\n\
         (1.1-2.3x list, 10-53x skip list, 2.5-3.1x hash table, 2.2-2.7x BST)"
    );
}
