//! Shared drivers for the cross-crate integration tests.

// Each test binary compiles this module separately and uses a subset of it.
#![allow(dead_code)]

use csds_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::collections::BTreeMap;
use std::sync::Arc;

use csds::core::{ConcurrentMap, GuardedMap, MapHandle};

/// Deterministic xorshift stream for test workloads.
pub fn rng_stream(mut state: u64) -> impl FnMut() -> u64 {
    if state == 0 {
        state = 0x9E3779B97F4A7C15;
    }
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Sequential comparison against `BTreeMap` through the trait object the
/// harness uses.
pub fn model_check(map: &dyn GuardedMap<u64>, ops: u64, key_range: u64, seed: u64) {
    let mut model = BTreeMap::new();
    let mut rng = rng_stream(seed);
    for i in 0..ops {
        let key = rng() % key_range;
        match rng() % 3 {
            0 => {
                let expected = !model.contains_key(&key);
                assert_eq!(map.insert(key, i), expected, "insert({key}) at {i}");
                if expected {
                    model.insert(key, i);
                }
            }
            1 => {
                assert_eq!(map.remove(key), model.remove(&key), "remove({key}) at {i}");
            }
            _ => {
                assert_eq!(map.get(key), model.get(&key).copied(), "get({key}) at {i}");
            }
        }
    }
    assert_eq!(map.len(), model.len());
}

/// Sequential comparison against `BTreeMap` through a [`MapHandle`]
/// session (the guard-reuse / repin path), proving it agrees with the
/// pin-per-op trait path exercised by [`model_check`].
pub fn model_check_handle(map: &dyn GuardedMap<u64>, ops: u64, key_range: u64, seed: u64) {
    let mut h = MapHandle::new(map);
    let mut model = BTreeMap::new();
    let mut rng = rng_stream(seed);
    for i in 0..ops {
        let key = rng() % key_range;
        match rng() % 3 {
            0 => {
                let expected = !model.contains_key(&key);
                assert_eq!(h.insert(key, i), expected, "insert({key}) at {i}");
                if expected {
                    model.insert(key, i);
                }
            }
            1 => {
                assert_eq!(h.remove(key), model.remove(&key), "remove({key}) at {i}");
            }
            _ => {
                assert_eq!(
                    h.get(key).copied(),
                    model.get(&key).copied(),
                    "get({key}) at {i}"
                );
            }
        }
    }
    assert_eq!(h.len(), model.len());
    assert_eq!(h.ops(), ops + 1, "handle op accounting");
}

/// Sequential comparison against `BTreeMap` over the **compound
/// vocabulary** (upsert / CAS / closure RMW / get-or-insert) through the
/// pin-per-op trait object, also asserting `is_empty` stays consistent
/// with `len` throughout.
pub fn compound_model_check(map: &dyn GuardedMap<u64>, ops: u64, key_range: u64, seed: u64) {
    use csds::core::CasOutcome;
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = rng_stream(seed);
    for i in 0..ops {
        let key = rng() % key_range;
        let v = rng() % 8;
        match rng() % 6 {
            0 => {
                let expected = !model.contains_key(&key);
                assert_eq!(map.insert(key, v), expected, "insert({key}) at {i}");
                if expected {
                    model.insert(key, v);
                }
            }
            1 => {
                assert_eq!(map.remove(key), model.remove(&key), "remove({key}) at {i}");
            }
            2 => {
                assert_eq!(
                    map.upsert(key, v),
                    model.insert(key, v),
                    "upsert({key}) at {i}"
                );
            }
            3 => {
                let expected_val = rng() % 8;
                let got = map.compare_swap(key, &expected_val, v);
                let want = match model.get(&key) {
                    Some(&cur) if cur == expected_val => {
                        model.insert(key, v);
                        CasOutcome::Swapped(cur)
                    }
                    Some(&cur) => CasOutcome::Mismatch(cur),
                    None => CasOutcome::Absent,
                };
                assert_eq!(got, want, "compare_swap({key}) at {i}");
            }
            4 => {
                // Closure RMW through the object-safe root: fetch-add.
                let (prev, cur, applied) = map.rmw(key, &mut |c| Some(c.copied().unwrap_or(0) + 1));
                let mprev = model.get(&key).copied();
                let mnew = mprev.unwrap_or(0) + 1;
                model.insert(key, mnew);
                assert_eq!(prev, mprev, "rmw prev({key}) at {i}");
                assert_eq!(cur, Some(mnew), "rmw cur({key}) at {i}");
                assert!(applied, "rmw applied({key}) at {i}");
            }
            _ => {
                assert_eq!(map.get(key), model.get(&key).copied(), "get({key}) at {i}");
            }
        }
        if i % 64 == 0 {
            assert_eq!(map.is_empty(), model.is_empty(), "is_empty at {i}");
        }
    }
    assert_eq!(map.len(), model.len());
    for (&k, &v) in &model {
        assert_eq!(map.get(k), Some(v), "final content at {k}");
    }
}

/// The compound-vocabulary model comparison through a [`MapHandle`]
/// session (guard-reuse path). Update and get-or-insert shapes run through
/// the object-safe `rmw` root (the generic `update` / `get_or_insert_with`
/// wrappers, which need a sized map type, are covered by `csds_core`'s
/// unit tests).
pub fn compound_model_check_handle<M: csds::core::GuardedMap<u64> + ?Sized>(
    map: &M,
    ops: u64,
    key_range: u64,
    seed: u64,
) {
    use csds::core::CasOutcome;
    let mut h = MapHandle::new(map);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = rng_stream(seed);
    for i in 0..ops {
        let key = rng() % key_range;
        let v = rng() % 8;
        match rng() % 7 {
            0 => {
                let expected = !model.contains_key(&key);
                assert_eq!(h.insert(key, v), expected, "insert({key}) at {i}");
                if expected {
                    model.insert(key, v);
                }
            }
            1 => {
                assert_eq!(h.remove(key), model.remove(&key), "remove({key}) at {i}");
            }
            2 => {
                assert_eq!(
                    h.upsert(key, v),
                    model.insert(key, v),
                    "upsert({key}) at {i}"
                );
            }
            3 => {
                let expected_val = rng() % 8;
                let got = h.compare_swap(key, &expected_val, v);
                let want = match model.get(&key) {
                    Some(&cur) if cur == expected_val => {
                        model.insert(key, v);
                        CasOutcome::Swapped(cur)
                    }
                    Some(&cur) => CasOutcome::Mismatch(cur),
                    None => CasOutcome::Absent,
                };
                assert_eq!(got, want, "compare_swap({key}) at {i}");
            }
            4 => {
                // The update shape (existing keys only) through `rmw`.
                let got = h.rmw(key, &mut |c| c.map(|v| v.wrapping_mul(3))).prev;
                let want = model.get(&key).copied();
                if let Some(cur) = want {
                    model.insert(key, cur.wrapping_mul(3));
                }
                assert_eq!(got, want, "update({key}) at {i}");
            }
            5 => {
                // The get-or-insert shape through `rmw`.
                let got = h
                    .rmw(key, &mut |c| if c.is_none() { Some(v) } else { None })
                    .cur
                    .copied();
                let want = *model.entry(key).or_insert(v);
                assert_eq!(got, Some(want), "get_or_insert({key}) at {i}");
            }
            _ => {
                assert_eq!(
                    h.get(key).copied(),
                    model.get(&key).copied(),
                    "get({key}) at {i}"
                );
            }
        }
    }
    assert_eq!(h.len(), model.len());
    for (&k, &v) in &model {
        assert_eq!(h.get(k).copied(), Some(v), "final content at {k}");
    }
}

/// Concurrent atomicity of the closure RMW: `threads` workers each bump
/// `per_thread` counters spread over `keys`; a single lost update makes the
/// final sum come up short.
pub fn concurrent_counter_sum(
    map: Arc<Box<dyn GuardedMap<u64>>>,
    threads: usize,
    per_thread: u64,
    keys: u64,
) {
    let mut workers = Vec::new();
    for t in 0..threads {
        let map = Arc::clone(&map);
        workers.push(std::thread::spawn(move || {
            let mut h = MapHandle::new(map.as_ref().as_ref());
            let mut rng = rng_stream(0xC0FFEE ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            for _ in 0..per_thread {
                let key = rng() % keys;
                let out = h.rmw(key, &mut |c| Some(c.copied().unwrap_or(0) + 1));
                assert!(out.applied);
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    let mut verifier = MapHandle::new(map.as_ref().as_ref());
    let total: u64 = (0..keys)
        .map(|k| verifier.get(k).copied().unwrap_or(0))
        .sum();
    assert_eq!(
        total,
        threads as u64 * per_thread,
        "lost updates: the closure RMW must be atomic"
    );
}

/// Spin until the driver raises `start`. The net-effect drivers spawn
/// every worker before any begins, so the workers' operations overlap
/// instead of running one thread after another while the rest are still
/// being spawned.
fn await_start(start: &AtomicBool) {
    while !start.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
}

/// Concurrent net-effect invariant through one [`MapHandle`] per worker
/// thread (the harness's hot-loop configuration).
pub fn net_effect_handle(
    map: Arc<Box<dyn GuardedMap<u64>>>,
    threads: usize,
    ops_per_thread: u64,
    key_range: u64,
) {
    let ins: Arc<Vec<AtomicU64>> = Arc::new((0..key_range).map(|_| AtomicU64::new(0)).collect());
    let rem: Arc<Vec<AtomicU64>> = Arc::new((0..key_range).map(|_| AtomicU64::new(0)).collect());
    let start = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..threads {
        let map = Arc::clone(&map);
        let ins = Arc::clone(&ins);
        let rem = Arc::clone(&rem);
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            await_start(&start);
            let mut h = MapHandle::new(map.as_ref().as_ref());
            let mut rng = rng_stream(0xFACE ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            for _ in 0..ops_per_thread {
                let key = rng() % key_range;
                match rng() % 3 {
                    0 => {
                        if h.insert(key, key) {
                            ins[key as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    1 => {
                        if h.remove(key).is_some() {
                            rem[key as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    _ => {
                        if let Some(&v) = h.get(key) {
                            assert_eq!(v, key, "value corruption at {key}");
                        }
                    }
                }
            }
        }));
    }
    start.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    let mut verifier = MapHandle::new(map.as_ref().as_ref());
    let mut expected = 0usize;
    for k in 0..key_range as usize {
        let net = ins[k].load(Ordering::Relaxed) as i64 - rem[k].load(Ordering::Relaxed) as i64;
        assert!((0..=1).contains(&net), "key {k}: net {net}");
        assert_eq!(verifier.get(k as u64).is_some(), net == 1, "key {k}");
        expected += net as usize;
    }
    assert_eq!(verifier.len(), expected);
}

/// Concurrent net-effect invariant through trait objects.
pub fn net_effect(
    map: Arc<Box<dyn GuardedMap<u64>>>,
    threads: usize,
    ops_per_thread: u64,
    key_range: u64,
) {
    let ins: Arc<Vec<AtomicU64>> = Arc::new((0..key_range).map(|_| AtomicU64::new(0)).collect());
    let rem: Arc<Vec<AtomicU64>> = Arc::new((0..key_range).map(|_| AtomicU64::new(0)).collect());
    let start = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..threads {
        let map = Arc::clone(&map);
        let ins = Arc::clone(&ins);
        let rem = Arc::clone(&rem);
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            await_start(&start);
            let mut rng = rng_stream(0xBEEF ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            for _ in 0..ops_per_thread {
                let key = rng() % key_range;
                match rng() % 3 {
                    0 => {
                        if map.insert(key, key) {
                            ins[key as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    1 => {
                        if map.remove(key).is_some() {
                            rem[key as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    _ => {
                        if let Some(v) = map.get(key) {
                            assert_eq!(v, key, "value corruption at {key}");
                        }
                    }
                }
            }
        }));
    }
    start.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    let mut expected = 0usize;
    for k in 0..key_range as usize {
        let net = ins[k].load(Ordering::Relaxed) as i64 - rem[k].load(Ordering::Relaxed) as i64;
        assert!((0..=1).contains(&net), "key {k}: net {net}");
        assert_eq!(map.get(k as u64).is_some(), net == 1, "key {k}");
        expected += net as usize;
    }
    assert_eq!(map.len(), expected);
}
