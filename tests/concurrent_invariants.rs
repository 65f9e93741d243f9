//! Concurrent net-effect invariants for every algorithm, plus targeted
//! high-contention scenarios (paper §5.3's extreme configuration).

mod common;

use std::sync::Arc;

use csds::core::ConcurrentMap;
use csds::harness::AlgoKind;

#[test]
fn net_effect_holds_for_every_algorithm() {
    for algo in AlgoKind::all() {
        let map = Arc::new(algo.make(64));
        common::net_effect(map, 4, 2_000, 48);
    }
}

#[test]
fn extreme_contention_tiny_structure() {
    // Paper §5.3: 16 elements out of 32 keys, high update ratio, many
    // threads — correctness must hold even where practical wait-freedom
    // frays.
    for algo in [
        AlgoKind::LazyList,
        AlgoKind::HerlihySkipList,
        AlgoKind::LazyHashTable,
        AlgoKind::BstTk,
        AlgoKind::HarrisList,
        AlgoKind::WaitFreeList,
    ] {
        let map = Arc::new(algo.make(32));
        common::net_effect(map, 8, 2_000, 8);
    }
}

#[test]
fn elision_variants_under_contention() {
    // Three keys and long overlapping runs make speculative commits race
    // the locked write phases of exhausted speculation on the same node.
    // That is where a fallback that validated before entering the region
    // double-unlinked (and double-freed) a node a speculator had removed.
    for algo in [
        AlgoKind::LazyListElided,
        AlgoKind::HerlihySkipListElided,
        AlgoKind::LazyHashTableElided,
        AlgoKind::BstTkElided,
    ] {
        let map = Arc::new(algo.make(32));
        common::net_effect(map, 6, 400_000, 3);
    }
}

#[test]
fn elastic_net_effect_with_migration_forced_every_few_ops() {
    // Tiny shards, a one-bucket floor and a one-bucket migration quantum:
    // at this scale the grow/shrink thresholds trip every handful of
    // updates, so most operations run with a migration in flight. The
    // net-effect invariant must hold anyway, and the table must have
    // actually resized in both directions.
    use csds::core::{ConcurrentMap, MapHandle};
    use csds::elastic::{ElasticConfig, ElasticHashTable};
    use csds_sync::atomic::{AtomicU64, Ordering};

    const THREADS: usize = 4;
    const OPS: u64 = 6_000;
    const RANGE: u64 = 96;
    let map = Arc::new(ElasticHashTable::<u64>::with_config(ElasticConfig {
        shards: 2,
        initial_buckets: 2,
        min_buckets: 2,
        migration_quantum: 1,
        counter_cells: 2,
    }));
    let ins: Arc<Vec<AtomicU64>> = Arc::new((0..RANGE).map(|_| AtomicU64::new(0)).collect());
    let rem: Arc<Vec<AtomicU64>> = Arc::new((0..RANGE).map(|_| AtomicU64::new(0)).collect());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let map = Arc::clone(&map);
        let ins = Arc::clone(&ins);
        let rem = Arc::clone(&rem);
        handles.push(std::thread::spawn(move || {
            // Handle path: one reusable guard per worker, repinned per op,
            // exactly the harness's hot-loop configuration.
            let mut h = MapHandle::new(&*map);
            let mut rng =
                common::rng_stream(0xE1A5 ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            for i in 0..OPS {
                let key = rng() % RANGE;
                // Alternate insert- and remove-heavy blocks so the
                // population repeatedly crosses both thresholds.
                let grow_block = (i / 250) % 2 == 0;
                let roll = rng() % 10;
                if if grow_block { roll < 6 } else { roll < 2 } {
                    if h.insert(key, key) {
                        ins[key as usize].fetch_add(1, Ordering::Relaxed);
                    }
                } else if roll < 8 {
                    if h.remove(key).is_some() {
                        rem[key as usize].fetch_add(1, Ordering::Relaxed);
                    }
                } else if let Some(&v) = h.get(key) {
                    assert_eq!(v, key, "value corruption at {key}");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut expected = 0usize;
    for k in 0..RANGE as usize {
        let net = ins[k].load(Ordering::Relaxed) as i64 - rem[k].load(Ordering::Relaxed) as i64;
        assert!((0..=1).contains(&net), "key {k}: net {net}");
        assert_eq!(map.get(k as u64).is_some(), net == 1, "key {k}");
        expected += net as usize;
    }
    assert_eq!(map.len(), expected);
    let stats = map.resize_stats();
    assert!(
        stats.migrations_started >= 2,
        "migration was supposed to be forced throughout: {stats:?}"
    );
    assert!(stats.buckets_moved > 0);
    assert_eq!(
        stats.migrations_completed, stats.tables_retired,
        "every drained table must be retired exactly once"
    );
}

#[test]
fn mixed_readers_and_writers_see_no_torn_values() {
    // Writers flip keys between two exact values; readers must only ever
    // observe one of them.
    let map = Arc::new(AlgoKind::HerlihySkipList.make(64));
    for k in 0..32u64 {
        map.insert(k, k * 1000);
    }
    let stop = Arc::new(csds_sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..2u64 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = common::rng_stream(w + 1);
            while !stop.load(csds_sync::atomic::Ordering::Relaxed) {
                let k = rng() % 32;
                map.remove(k);
                map.insert(k, k * 1000);
            }
        }));
    }
    for _ in 0..2 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = common::rng_stream(0x5EED);
            for _ in 0..30_000 {
                let k = rng() % 32;
                if let Some(v) = map.get(k) {
                    assert_eq!(v, k * 1000, "torn value at key {k}");
                }
            }
            stop.store(true, csds_sync::atomic::Ordering::Relaxed);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
