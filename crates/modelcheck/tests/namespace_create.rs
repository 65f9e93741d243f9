//! Model of the service front-end's lazy namespace creation.
//!
//! The protocol under test (`csds_service`'s `TenantRouter::resolve`):
//! the first operation on a namespace looks the tenant table up in the
//! directory, and on a miss allocates a fresh table and publishes it with
//! a lock-free insert. In production the namespace-hash routing gives each
//! namespace one owning worker, so the create race cannot happen — but
//! correctness must not depend on the routing policy, so the loser of a
//! racing create has to drop its own table and adopt the winner's (the
//! loser's allocation dies; in the full retire path the directory node
//! carries the last `Arc`, so tables are freed through EBR). This model
//! runs two racing first-ops over every explored interleaving and checks
//! the invariants: exactly one creator wins, the directory holds exactly
//! one table, and **neither racer's operation is lost** — both keys land
//! in the surviving table.

use csds_core::GuardedMap;
use csds_ebr::pin;
use csds_elastic::ElasticHashTable;
use csds_modelcheck::{thread, Model};
use std::sync::Arc;

type Directory = ElasticHashTable<Arc<ElasticHashTable<u64>>>;

/// The service's resolve step: cache miss → directory lookup → lazy
/// create, losing cleanly if someone else published first. Returns the
/// table to operate on and whether this caller created it.
fn resolve(dir: &Directory, ns: u64) -> (Arc<ElasticHashTable<u64>>, bool) {
    let g = pin();
    if let Some(t) = dir.get_in(ns, &g) {
        return (Arc::clone(t), false);
    }
    let fresh = Arc::new(ElasticHashTable::tenant());
    if dir.insert_in(ns, Arc::clone(&fresh), &g) {
        (fresh, true)
    } else {
        // Lost the publish race: drop `fresh`, adopt the winner's table.
        (
            Arc::clone(dir.get_in(ns, &g).expect("a racing creator published")),
            false,
        )
    }
}

#[test]
fn racing_first_ops_create_one_table_and_lose_no_op() {
    let report = Model::new()
        // CHESS-style bound: the lost-op shape needs one untimely switch
        // between the loser's failed insert and its re-lookup.
        .preemption_bound(2)
        .max_steps(50_000)
        .max_executions(30_000)
        .run(|| {
            let dir: Arc<Directory> = Arc::new(ElasticHashTable::tenant());
            let d2 = Arc::clone(&dir);
            let racer = thread::spawn(move || {
                let (table, created) = resolve(&d2, 7);
                let g = pin();
                assert!(table.insert_in(1, 11, &g), "racer's key already present");
                created
            });
            let (table, created) = resolve(&dir, 7);
            {
                let g = pin();
                assert!(table.insert_in(2, 22, &g), "main key already present");
            }
            let racer_created = racer.join().unwrap();
            assert!(
                created ^ racer_created,
                "exactly one racer must win the create (main {created}, racer {racer_created})"
            );
            assert_eq!(dir.occupancy(), 1, "directory holds more than one table");
            let g = pin();
            let t = dir.get_in(7, &g).expect("namespace exists after the race");
            assert_eq!(
                t.get_in(1, &g).copied(),
                Some(11),
                "racer's op lost in the creation race"
            );
            assert_eq!(
                t.get_in(2, &g).copied(),
                Some(22),
                "main op lost in the creation race"
            );
            assert_eq!(t.len_in(&g), 2);
        });
    assert!(
        report.failure.is_none(),
        "lazy namespace creation regression: {:?}",
        report.failure
    );
    // Unlike the lock-free models, this one cannot demand `truncated == 0`
    // (and therefore `complete`): racing creators contend on one directory
    // bucket's *blocking* lock, so the checker legitimately finds schedules
    // where the lock holder is stalled forever and the peer spins — the
    // paper's blocking-vs-practically-wait-free distinction, seen from
    // inside the model. Those schedules are cut by the step budget; every
    // schedule that terminates must still pass, and the execution budget
    // must not be what ended exploration (the DFS frontier drains first).
    assert!(
        report.executions > report.truncated + 1,
        "too few complete schedules explored ({} executions, {} truncated)",
        report.executions,
        report.truncated
    );
    assert!(
        report.executions < 30_000,
        "execution budget exhausted before the schedule space was drained"
    );
}
