//! Same seed, same inputs, same work: through the single-thread entry point
//! the operation counts, the successful inserts and removes, and the
//! instrumentation counters repeat exactly.
//!
//! One test per file on purpose: the reclamation epoch is process-wide, so
//! a concurrently running test would perturb the `ebr` counts.

use csds_benchmark::workloads::deterministic_map_run;

#[test]
fn fixed_op_count_runs_repeat_exactly() {
    const OPS: u64 = 200_000;
    for name in ["lib_hash_read10", "lib_hash_update50", "lib_tree_zipf20"] {
        let a = deterministic_map_run(name, 42, OPS);
        let b = deterministic_map_run(name, 42, OPS);
        assert_eq!(a, b, "{name}: two runs with one seed differ");
        assert_eq!(a.wrong, 0, "{name}");
        assert_eq!(a.counters[0], ("ops", OPS), "{name}");
        assert!(a.inserted > 0 && a.removed > 0, "{name}: no updates");
        let other = deterministic_map_run(name, 43, OPS);
        assert_ne!(
            (a.inserted, a.removed),
            (other.inserted, other.removed),
            "{name}: the seed does not reach the samplers"
        );
    }
}
