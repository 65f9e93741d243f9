//! §6 — the birthday-paradox model: reproduce the paper's numeric examples
//! and confront the model with measured conflict rates.

use csds_analysis as model_eqs;
use csds_workload::{KeyDist, KeySampler};

use crate::factory::AlgoKind;
use crate::report::{pct, Table};
use crate::runner::{run_map_avg, MapRunConfig};
use crate::Scale;

/// **§6** — print every numeric example from the paper next to this
/// implementation's model output, then validate the model's *shape* against
/// measured restart/wait rates from short runs.
pub fn model(scale: Scale) {
    let mut table = Table::new(
        "Sec. 6 - birthday-paradox model: paper's examples vs this implementation",
        &["example", "paper", "model here"],
    );
    // 6.1 hash table: n=1024 buckets, t=20, u=10%.
    let p_ht = model_eqs::hash_table_example(1024, 20, 0.10);
    table.row(vec![
        "6.1 hash table p_conflict".into(),
        "0.58%".into(),
        pct(p_ht),
    ]);
    // 6.2 linked list: n=512, t=40, u=20%.
    let p_ll = model_eqs::linked_list_example(512, 40, 0.20);
    table.row(vec![
        "6.2 linked list p_conflict".into(),
        "0.21%".into(),
        pct(p_ll),
    ]);
    // 6.3 Zipf s=0.8 on the same list.
    let probs = KeySampler::new(KeyDist::PAPER_ZIPF, 512).probabilities();
    let p_zipf = model_eqs::linked_list_zipf_example(512, 40, 0.20, &probs);
    table.row(vec![
        "6.3 zipf list p_conflict".into(),
        "0.47%".into(),
        pct(p_zipf),
    ]);
    // 6.4 TSX fallback probabilities.
    let f_u = model_eqs::update_time_fraction(0.10, 2.0, 1.0);
    let p_ht_tsx = model_eqs::conflict_probability(20, f_u, |k| {
        model_eqs::birthday_hash_table_tsx(k, 1024, 20)
    });
    table.row(vec![
        "6.4 hash table p_lock (5 retries)".into(),
        "0.0005%".into(),
        pct(model_eqs::fallback_probability(p_ht_tsx, 5)),
    ]);
    let f_u = model_eqs::update_time_fraction(0.20, 1.1, 1.0);
    let f_w = model_eqs::write_phase_fraction(f_u, 0.1, 1.0);
    let p_ll_tsx = model_eqs::conflict_probability(40, f_w, |k| {
        model_eqs::birthday_linked_list_tsx(k, 512, 40)
    });
    table.row(vec![
        "6.4 list tx-retry probability".into(),
        "16%".into(),
        pct(p_ll_tsx),
    ]);
    table.row(vec![
        "6.4 list p_lock (5 retries)".into(),
        "0.001%".into(),
        pct(model_eqs::fallback_probability(p_ll_tsx, 5)),
    ]);
    table.print();

    // Model vs measurement: the measured fraction of *restarted updates*
    // should track the modeled conflict probability's shape across sizes.
    let mut mvm = Table::new(
        "Sec. 6 - model vs measured (lazy list, 40 threads, 20% updates)",
        &[
            "size",
            "model p_conflict",
            "measured restart frac",
            "measured wait frac",
            "measured waited ops",
        ],
    );
    for size in [64usize, 128, 256, 512] {
        let p_model = model_eqs::linked_list_example(size as u64, 40, 0.20);
        let cfg = MapRunConfig::paper_default(AlgoKind::LazyList, size, 20, 40, scale.duration());
        let r = run_map_avg(&cfg, scale.reps());
        mvm.row(vec![
            size.to_string(),
            pct(p_model),
            pct(r.restart_fraction()),
            pct(r.wait_fraction()),
            pct(r.waited_op_share()),
        ]);
    }
    mvm.print();
    println!(
        "expected shape: both the modeled conflict probability and the measured\n\
         restart/wait fractions decay steeply as the structure grows"
    );
}
