//! Interleaving models of the bucket chain's replace rule
//! (`csds_core::hashtable::chain`), which both blocking hash tables share:
//! a replaced node is unlinked and left unmarked, so a lock-free reader
//! that reached it returns its value and linearizes before the replace.
//!
//! In each model a `get_in` races an `upsert_in` of a present key. The
//! reader must return the old or the new value in every schedule, never
//! `None`, and across the schedules both values must show up, so the race
//! is real. The reader takes no lock and the writer waits on nobody, so no
//! thread spins and every schedule runs to its end (`truncated == 0`). On:
//!
//! * (a) `LazyHashTable` in lock mode: `rmw_in`'s snapshot round takes the
//!   bucket lock at its version (`try_lock_version`);
//! * (b) `LazyHashTable` in elision mode: the write commits as a
//!   transaction. The region's quantum is long enough that no schedule
//!   aborts on the wall clock, so only the order of steps decides;
//! * (c) `ElasticHashTable`, quiescent: the chain's snapshot round;
//! * (d) `ElasticHashTable` mid-migration, with `elastic_len.rs`'s
//!   configuration: the update helps the drain, the reader follows the
//!   old bucket until it is `MOVED`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use csds_core::hashtable::LazyHashTable;
use csds_core::GuardedMap;
use csds_ebr::pin;
use csds_elastic::{ElasticConfig, ElasticHashTable};
use csds_htm::TxRegion;
use csds_modelcheck::{thread, Model, Report};

/// The raced key's value before and after the upsert.
const OLD: u64 = 1;
const NEW: u64 = 2;

/// Schedules one model may explore; exploration must end well before it.
const MAX_EXECUTIONS: u64 = 100_000;

/// Race a reader of `key` against an upsert of it on the map `setup` builds
/// (with `key` present at `OLD`); check every schedule and return the
/// report.
fn replace_race<M, F>(name: &str, model: Model, key: u64, setup: F) -> Report
where
    M: GuardedMap<u64> + Send + Sync + 'static,
    F: Fn() -> M + Send + Sync + 'static,
{
    let seen = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
    let seen2 = Arc::clone(&seen);
    let report = model.max_executions(MAX_EXECUTIONS).run(move || {
        let m = Arc::new(setup());
        let m2 = Arc::clone(&m);
        let writer = thread::spawn(move || {
            let g = pin();
            assert_eq!(m2.upsert_in(key, NEW, &g), Some(OLD), "upsert lost the key");
        });
        let got = m.get_in(key, &pin()).copied();
        match got {
            Some(OLD) => seen2[0].store(true, Ordering::Relaxed),
            Some(NEW) => seen2[1].store(true, Ordering::Relaxed),
            other => panic!("a read racing a replace returned {other:?}"),
        }
        writer.join().unwrap();
        assert_eq!(m.get_in(key, &pin()).copied(), Some(NEW));
    });
    println!(
        "{name}: {} executions, {} truncated",
        report.executions, report.truncated
    );
    assert!(
        report.failure.is_none(),
        "{name}: {:?}",
        report.failure.as_ref().map(|f| (&f.message, &f.trace))
    );
    assert_eq!(report.truncated, 0, "{name}: step budget too small");
    assert!(
        report.executions < MAX_EXECUTIONS,
        "{name}: execution budget exhausted before the schedule space was drained"
    );
    assert!(
        seen[0].load(Ordering::Relaxed) && seen[1].load(Ordering::Relaxed),
        "{name}: the reader never saw both values, so the race never happened"
    );
    report
}

/// A one-bucket lazy table holding keys 1 and 2, so the raced key 1 sits
/// behind a predecessor.
fn lazy(region: Option<TxRegion>) -> LazyHashTable<u64> {
    let t = LazyHashTable::with_capacity_and_region(1, region);
    let g = pin();
    assert!(t.insert_in(1, OLD, &g));
    assert!(t.insert_in(2, OLD, &g));
    t
}

/// Model (a).
#[test]
fn lazy_ht_reads_old_or_new_across_a_locked_replace() {
    replace_race("lazy-ht locks", Model::new().max_steps(5_000), 1, || {
        lazy(None)
    });
}

/// Model (b).
#[test]
fn lazy_ht_reads_old_or_new_across_an_elided_replace() {
    replace_race("lazy-ht elision", Model::new().max_steps(5_000), 1, || {
        lazy(Some(TxRegion::with_quantum(Duration::from_secs(300))))
    });
}

/// Model (c).
#[test]
fn elastic_reads_old_or_new_across_a_quiescent_replace() {
    let model = Model::new().max_steps(5_000);
    replace_race("elastic quiescent", model, 1, || {
        let t = ElasticHashTable::with_config(ElasticConfig {
            shards: 1,
            initial_buckets: 1,
            min_buckets: 1,
            migration_quantum: 1,
            counter_cells: 1,
        });
        let g = pin();
        assert!(t.insert_in(1, OLD, &g));
        assert!(t.insert_in(2, OLD, &g));
        t
    });
}

/// Model (d). The writer's drain step clones a whole old bucket into the
/// new table, so its schedules run longer; the space is still small enough
/// to explore with no preemption bound.
#[test]
fn elastic_reads_old_or_new_across_a_replace_mid_migration() {
    let model = Model::new().max_steps(50_000);
    replace_race("elastic mid-migration", model, 3, || {
        let t = ElasticHashTable::with_config(ElasticConfig {
            shards: 1,
            initial_buckets: 2,
            min_buckets: 2,
            migration_quantum: 1,
            counter_cells: 1,
        });
        let g = pin();
        // The 8th insert's occupancy check (every 8th update) sees 8 keys
        // in 2 buckets and installs a grow; nothing drains until the next
        // update, the raced upsert.
        for k in 0..8 {
            assert!(t.insert_in(k, OLD, &g));
        }
        let stats = t.resize_stats();
        assert_eq!((stats.migrations_started, stats.buckets_moved), (1, 0));
        t
    });
}
