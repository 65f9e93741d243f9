//! Regression model for the elastic hash table's mid-migration `len_in`
//! double-count: while a shard migration is in flight, `migrate_bucket`
//! publishes clones into the new table *before* freezing the old bucket, so
//! a count that followed both tables naively would see a mid-move key
//! twice. The fix counts by authority (old un-`MOVED` buckets, plus new
//! entries whose old bucket is `MOVED`); this model re-checks it against
//! every explored interleaving of a migrating updater and a counter.

use csds_core::GuardedMap;
use csds_ebr::pin;
use csds_elastic::{ElasticConfig, ElasticHashTable};
use csds_modelcheck::{thread, Model};
use std::sync::Arc;

#[test]
fn len_in_never_double_counts_mid_migration() {
    let report = Model::new()
        // CHESS-style bound keeps the table model tractable; the
        // double-count needed only one untimely switch to manifest.
        .preemption_bound(2)
        .max_steps(50_000)
        .max_executions(30_000)
        .run(|| {
            let t = Arc::new(ElasticHashTable::with_config(ElasticConfig {
                shards: 1,
                initial_buckets: 2,
                min_buckets: 2,
                // Keep the migration in flight as long as possible.
                migration_quantum: 1,
                counter_cells: 1,
            }));
            {
                // Single-threaded prefix: pass load factor 1 so a grow
                // (and its piecemeal migration) is in progress.
                let g = pin();
                for k in 0..3u64 {
                    assert!(t.insert_in(k, k, &g));
                }
            }
            let t2 = Arc::clone(&t);
            let updater = thread::spawn(move || {
                let g = pin();
                // Drives the in-flight migration one quantum further and
                // adds a fourth key.
                assert!(t2.insert_in(3, 3, &g));
            });
            {
                let g = pin();
                let n = t.len_in(&g);
                assert!(
                    n == 3 || n == 4,
                    "len_in mid-migration returned {n} (double-counted or lost)"
                );
            }
            updater.join().unwrap();
            let g = pin();
            assert_eq!(t.len_in(&g), 4, "post-quiescence count wrong");
        });
    assert!(
        report.failure.is_none(),
        "len_in regression: {:?}",
        report.failure
    );
    assert!(report.executions > 1);
    assert_eq!(report.truncated, 0, "step budget too small for the model");
}
