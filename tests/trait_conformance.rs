//! Every algorithm in the library, exercised through the harness's trait
//! object against a sequential model — through both call paths: the
//! pin-per-op `ConcurrentMap` traits and the guard-reuse `MapHandle`
//! sessions.

mod common;

use csds::core::{ConcurrentMap, MAX_USER_KEY};
use csds::harness::AlgoKind;

#[test]
fn all_algorithms_match_btreemap_sequentially() {
    for algo in AlgoKind::all() {
        let map = algo.make(128);
        common::model_check(map.as_ref(), 2_500, 96, 0xA11C0DE);
    }
}

#[test]
fn all_algorithms_match_btreemap_through_handles() {
    // The repin path must agree with the sequential model exactly like the
    // pin-per-op path does.
    for algo in AlgoKind::all() {
        let map = algo.make(128);
        common::model_check_handle(map.as_ref(), 2_500, 96, 0x5E55_10AA);
    }
}

#[test]
fn all_algorithms_concurrent_net_effect_through_handles() {
    use std::sync::Arc;
    for algo in AlgoKind::all() {
        let map = Arc::new(algo.make(64));
        common::net_effect_handle(map, 3, 1_500, 32);
    }
}

#[test]
fn all_algorithms_match_btreemap_on_the_compound_vocabulary() {
    // upsert / CAS / closure RMW through the pin-per-op trait object.
    for algo in AlgoKind::all() {
        let map = algo.make(128);
        common::compound_model_check(map.as_ref(), 2_500, 96, 0xC0_FF_EE);
    }
}

#[test]
fn all_algorithms_match_btreemap_on_the_compound_vocabulary_through_handles() {
    // The same vocabulary through a MapHandle session, plus the generic
    // `update` / `get_or_insert_with` wrappers.
    for algo in AlgoKind::all() {
        let map = algo.make(128);
        common::compound_model_check_handle(map.as_ref(), 2_500, 96, 0xBEE5);
    }
}

#[test]
fn all_algorithms_closure_rmw_is_atomic_under_contention() {
    // A counter served by fetch-add RMWs: any lost update (a non-atomic
    // read-modify-write window) makes the final sum come up short.
    use std::sync::Arc;
    for algo in AlgoKind::all() {
        let map = Arc::new(algo.make(16));
        common::concurrent_counter_sum(map, 4, 2_000, 8);
    }
}

#[test]
fn all_algorithms_cas_loops_converge_under_contention() {
    // Optimistic CAS increment loops: every one of N*M increments must
    // land exactly once even when every retry races every other thread.
    use std::sync::Arc;
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 500;
    for algo in AlgoKind::all() {
        let map = Arc::new(algo.make(16));
        assert!(map.insert(7, 0), "{}", algo.name());
        let mut workers = Vec::new();
        for _ in 0..THREADS {
            let map = Arc::clone(&map);
            workers.push(std::thread::spawn(move || {
                let mut h = csds::core::MapHandle::new(map.as_ref().as_ref());
                for _ in 0..PER_THREAD {
                    loop {
                        let cur = *h.get(7).expect("counter stays present");
                        if h.compare_swap(7, &cur, cur + 1).swapped() {
                            break;
                        }
                    }
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(
            map.get(7),
            Some(THREADS as u64 * PER_THREAD),
            "{}: CAS increments lost",
            algo.name()
        );
    }
}

/// The four structures that carry the optimistic version-validated fast
/// paths (seqlock reads, validate-then-lock RMW).
const OPTIMISTIC_ALGOS: [AlgoKind; 4] = [
    AlgoKind::LazyHashTable,
    AlgoKind::CouplingHashTable,
    AlgoKind::ElasticHashTable,
    AlgoKind::BstTk,
];

#[test]
fn optimistic_structures_conform_through_both_call_paths() {
    // The validated unsynchronized parses must match the sequential model
    // through both call paths and the full compound vocabulary.
    for algo in OPTIMISTIC_ALGOS {
        let map = algo.make(128);
        common::model_check(map.as_ref(), 2_500, 96, 0x0B71);
        let map = algo.make(128);
        common::compound_model_check(map.as_ref(), 2_500, 96, 0xFA57);
        let map = algo.make(128);
        common::compound_model_check_handle(map.as_ref(), 2_500, 96, 0x5EC);
    }
}

#[test]
fn optimistic_rmw_stays_atomic_under_contention() {
    // The validate-then-lock fetch-add must lose no updates, whichever of
    // its two arms (validated parse, locked fallback) serves a given call.
    use std::sync::Arc;
    for algo in OPTIMISTIC_ALGOS {
        let map = Arc::new(algo.make(16));
        common::concurrent_counter_sum(map, 4, 2_000, 8);
    }
}

#[test]
fn all_algorithms_handle_empty_and_full_edges() {
    for algo in AlgoKind::all() {
        let map = algo.make(16);
        let name = algo.name();
        // Empty-structure queries.
        assert_eq!(map.get(3), None, "{name}");
        assert_eq!(map.remove(3), None, "{name}");
        assert!(map.is_empty(), "{name}");
        // Fill a dense range, drain it completely, refill.
        for k in 0..32 {
            assert!(map.insert(k, k * 7), "{name} insert {k}");
        }
        assert_eq!(map.len(), 32, "{name}");
        for k in 0..32 {
            assert_eq!(map.get(k), Some(k * 7), "{name} get {k}");
        }
        for k in 0..32 {
            assert_eq!(map.remove(k), Some(k * 7), "{name} remove {k}");
        }
        assert!(map.is_empty(), "{name} after drain");
        for k in (0..32).rev() {
            assert!(map.insert(k, k), "{name} reinsert {k}");
        }
        assert_eq!(map.len(), 32, "{name} after refill");
    }
}

#[test]
fn is_empty_overrides_agree_with_len_through_churn() {
    // Regression for the O(n) `is_empty_in` default: the early-exit
    // overrides (hash tables, elastic table, skiplists, lists, BST) must
    // agree with `len_in == 0` at every point of an insert/remove/upsert
    // churn, through both the guard-scoped and the pin-per-op paths.
    for algo in AlgoKind::all() {
        let map = algo.make(32);
        let name = algo.name();
        let mut rng = common::rng_stream(0xE4417 ^ 0xB00);
        let guard = csds::ebr::pin();
        assert!(map.is_empty_in(&guard), "{name}: fresh map");
        for i in 0..600u64 {
            let key = rng() % 24;
            match rng() % 4 {
                0 => {
                    map.insert_in(key, key, &guard);
                }
                1 => {
                    map.remove_in(key, &guard);
                }
                2 => {
                    map.upsert_in(key, key + 1, &guard);
                }
                _ => {
                    map.remove_in(rng() % 24, &guard);
                }
            }
            assert_eq!(
                map.is_empty_in(&guard),
                map.len_in(&guard) == 0,
                "{name}: is_empty_in vs len_in at op {i}"
            );
        }
        for k in 0..24 {
            map.remove_in(k, &guard);
        }
        assert!(map.is_empty_in(&guard), "{name}: after full drain");
        assert!(map.is_empty(), "{name}: pin-per-op path after drain");
    }
}

#[test]
fn documented_key_range_round_trips_on_every_structure() {
    // The documented user key range is 0 ..= u64::MAX - 2; its extremes
    // must round-trip through every structure and both call paths.
    let boundary = [0u64, 1, MAX_USER_KEY - 1, MAX_USER_KEY];
    for algo in AlgoKind::all() {
        let name = algo.name();
        let map = algo.make(16);
        for (i, &k) in boundary.iter().enumerate() {
            assert!(map.insert(k, i as u64), "{name} insert {k}");
        }
        let mut h = csds::core::MapHandle::new(map.as_ref());
        for (i, &k) in boundary.iter().enumerate() {
            assert_eq!(h.get(k), Some(&(i as u64)), "{name} get {k}");
        }
        drop(h);
        for (i, &k) in boundary.iter().enumerate() {
            assert_eq!(map.remove(k), Some(i as u64), "{name} remove {k}");
        }
        assert!(map.is_empty(), "{name}");
    }
}

#[test]
fn reserved_keys_are_rejected_at_the_boundary() {
    // u64::MAX and u64::MAX - 1 are internal sentinels, rejected with a
    // hard assert at every entry point in every build profile — the
    // sentinel-encoded structures through the key encoding, the hash
    // tables and BST through an explicit boundary check.
    for algo in AlgoKind::all() {
        for reserved in [u64::MAX, u64::MAX - 1] {
            let map = algo.make(16);
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map.insert(reserved, 1);
            }))
            .is_err();
            assert!(
                panicked,
                "{}: reserved key {reserved:#x} must be rejected",
                algo.name()
            );
        }
    }
}

#[test]
fn a_panicking_rmw_closure_leaves_every_structure_usable() {
    // On the locked paths the closure runs inside a critical section, so a
    // panic in it must unwind through the structure's lock guards. A
    // closure allowed `after` calls panics on call `after + 1`: after 0 it
    // panics at once; after 1 it first asks for a write and panics when
    // re-run, which is how the lock-coupling structures reach their
    // hand-over-hand section (their first call is a lockless decision arm).
    // A leaked lock shows as a hang, so the follow-up operations run on a
    // helper thread that the test waits for with a timeout.
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;
    const PRESENT: u64 = 1;
    const ABSENT: u64 = 2;
    for &algo in AlgoKind::all() {
        let name = algo.name();
        let map = Arc::new(algo.make(16));
        assert!(map.insert(PRESENT, 10), "{name}");
        for after in [0, 1] {
            for key in [PRESENT, ABSENT] {
                let len = map.len();
                let mut calls = 0;
                let out = catch_unwind(AssertUnwindSafe(|| {
                    map.rmw(key, &mut |_| {
                        calls += 1;
                        if calls > after {
                            panic!("rmw closure panics on call {calls}");
                        }
                        Some(99)
                    })
                }));
                if let Ok(out) = out {
                    // One call sufficed, and its write was applied: undo it.
                    assert_eq!(out.1, Some(99), "{name}: key {key}");
                    if key == PRESENT {
                        assert_eq!(map.upsert(PRESENT, 10), Some(99), "{name}");
                    } else {
                        assert_eq!(map.remove(ABSENT), Some(99), "{name}");
                    }
                    continue;
                }
                let (done, wait) = mpsc::channel();
                let shared = Arc::clone(&map);
                let helper = std::thread::spawn(move || {
                    let len = shared.len();
                    shared.insert(key, 7);
                    shared.remove(key);
                    shared.rmw(key, &mut |_| Some(8));
                    shared.remove(key);
                    let _ = done.send(len);
                });
                let len_after = wait
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| {
                        panic!(
                            "{name}: key {key} hangs after an rmw closure panicked on call {}",
                            after + 1
                        )
                    });
                helper.join().expect("helper finished its operations");
                assert_eq!(
                    len_after, len,
                    "{name}: a panicking rmw on key {key} moved len"
                );
                if key == PRESENT {
                    assert!(map.insert(PRESENT, 10), "{name}");
                }
            }
        }
        assert_eq!(map.len(), 1, "{name}");
        assert_eq!(map.get(PRESENT), Some(10), "{name}");
    }
}

#[test]
fn elastic_conformance_survives_growth_through_both_call_paths() {
    // AlgoKind::all() already sweeps ElasticHashTable through every test in
    // this file at a stationary size; this one drives both call paths
    // across a 16× growth so the model comparison runs concurrently with
    // migrations. make(16) starts the table at 16 buckets; 1 000 distinct
    // keys force repeated doubling on every shard.
    let map = AlgoKind::ElasticHashTable.make(16);
    // Pin-per-op path while growing.
    for k in 0..500u64 {
        assert!(map.insert(k, k * 11), "insert {k}");
    }
    // Handle (repin) path while growing further.
    let mut h = csds::core::MapHandle::new(map.as_ref());
    for k in 500..1000u64 {
        assert!(h.insert(k, k * 11), "handle insert {k}");
    }
    for k in 0..1000u64 {
        assert_eq!(h.get(k), Some(&(k * 11)), "handle get {k} after growth");
    }
    drop(h);
    for k in 0..1000u64 {
        assert_eq!(map.get(k), Some(k * 11), "get {k} after growth");
        assert_eq!(map.remove(k), Some(k * 11), "remove {k}");
    }
    assert!(map.is_empty());
}

#[test]
fn values_are_independent_of_keys() {
    // Structures must not assume value == key (the harness does that, the
    // library must not).
    for algo in AlgoKind::all() {
        let map = algo.make(16);
        assert!(map.insert(5, 999));
        assert!(map.insert(6, 0));
        assert_eq!(map.get(5), Some(999), "{}", algo.name());
        assert_eq!(map.remove(6), Some(0), "{}", algo.name());
    }
}
