//! Single-thread probes of public functions: the rungs of the cost ladder
//! that can be timed from outside. They run after the traced window, on the
//! workload's own structure and key stream.

use std::hint::black_box;
use std::time::{Duration, Instant};

use csds_core::hashtable::LazyHashTable;
use csds_core::{ConcurrentMap, GuardedMap, MapHandle};
use csds_ebr::Shared;
use csds_elastic::ElasticHashTable;
use csds_sync::{MpscRing, OptikLock, RawMutex};
use csds_workload::{FastRng, KeyDist, KeySampler};

use crate::spans::now_ns;
use crate::stats::median;
use crate::workloads::{derive_seed, Layer, MapImpl, KEY_RANGE};

/// Calls per clock read; also the batch whose mean one "sample" of a
/// median probe is.
const BATCH: usize = 1024;

/// Mean nanoseconds per call of `f` over about `len`.
fn per_call(len: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..BATCH {
            f();
        }
        calls += BATCH as u64;
        let spent = start.elapsed();
        if spent >= len {
            return spent.as_nanos() as f64 / calls as f64;
        }
    }
}

/// Median over batches of 16 calls of the mean nanoseconds per call.
fn per_call_p50(len: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut batches = Vec::new();
    while start.elapsed() < len {
        let t = Instant::now();
        for _ in 0..16 {
            f();
        }
        batches.push(t.elapsed().as_nanos() as f64 / 16.0);
    }
    median(&batches)
}

/// Cost of the clock read every span boundary pays.
pub fn clock_ns(len: Duration) -> f64 {
    per_call(len, || {
        black_box(now_ns());
    })
}

/// A fixed cycle of keys from the workload's distribution, so the rungs
/// compare on identical keys and pay no sampling.
fn key_cycle(keys: &KeySampler, seed: u64) -> Vec<u64> {
    let mut rng = FastRng::new(derive_seed(seed, 99));
    (0..4096).map(|_| keys.sample(&mut rng)).collect()
}

/// The substrate every structure operation stands on.
pub fn substrate(len: Duration) -> Layer {
    let pin = per_call(len, || drop(black_box(csds_ebr::pin())));
    let mut guard = csds_ebr::pin();
    let repin = per_call(len, || {
        black_box(guard.repin());
    });
    // Retire a fresh allocation per call; the repin between calls is what
    // drives epoch advance and collection on a long-lived guard, so its
    // (separately probed) cost is included.
    let defer = per_call(len, || {
        guard.repin();
        // SAFETY: the box was just allocated by `Shared::boxed` and never
        // published, so no other thread can reach it; it is retired once.
        unsafe { guard.defer_drop(Shared::boxed(0u64)) };
    });
    drop(guard);
    let lock = OptikLock::new();
    let optik = per_call(len, || {
        lock.lock();
        lock.unlock();
    });
    let op_boundary = per_call(len, csds_metrics::op_boundary);
    vec![
        ("ebr.pin_ns", pin),
        ("ebr.repin_ns", repin),
        ("ebr.defer_ns", defer),
        ("sync.optik_lock_ns", optik),
        ("metrics.op_boundary_ns", op_boundary),
    ]
}

/// The same `get` through each way of calling a map, one rung per added
/// layer: the structure under one long-lived guard, the per-thread
/// session, and the pin-per-call trait.
pub fn map_rungs(map: &MapImpl, keys: &KeySampler, seed: u64, len: Duration) -> Layer {
    let cycle = key_cycle(keys, seed);
    let mut i = 0usize;
    let mut next = move || {
        i = (i + 1) & 4095;
        cycle[i]
    };
    let dynamic = map.as_dyn();
    let guard = csds_ebr::pin();
    let raw = per_call(len, || {
        black_box(dynamic.get_in(next(), &guard));
    });
    // Dynamic dispatch: the same call on the concrete type.
    let dispatch = match map {
        MapImpl::Hash(concrete) => {
            let direct = per_call(len, || {
                black_box(LazyHashTable::get_in(concrete, next(), &guard));
            });
            (raw - direct).max(0.0)
        }
        MapImpl::Tree(_) => 0.0,
    };
    drop(guard);
    let mut handle = MapHandle::new(dynamic);
    let session = per_call(len, || {
        black_box(handle.get(next()));
    });
    drop(handle);
    let pinned = per_call(len, || {
        black_box(ConcurrentMap::get(dynamic, next()));
    });
    vec![
        ("core.raw_get_ns", raw),
        ("harness.dyn_dispatch_ns", dispatch),
        ("core.handle_get_ns", session),
        ("core.pinned_get_ns", pinned),
    ]
}

/// What a service request stands on besides the substrate: the structure
/// operation it wraps and the ring it travels through.
pub fn service_rungs(map: &ElasticHashTable<u64>, seed: u64, len: Duration) -> Layer {
    let cycle = key_cycle(&KeySampler::new(KeyDist::Uniform, KEY_RANGE), seed);
    let mut i = 0usize;
    let mut handle = MapHandle::new(map as &dyn GuardedMap<u64>);
    let get = per_call_p50(len, || {
        i = (i + 1) & 4095;
        black_box(handle.get(cycle[i]));
    });
    drop(handle);
    let ring: MpscRing<u64> = MpscRing::with_capacity(1024);
    let through_ring = per_call(len, || {
        let _ = ring.try_push(black_box(7));
        black_box(ring.pop());
    });
    vec![("elastic.get_ns_p50", get), ("sync.ring_ns", through_ring)]
}
