//! **fig0_rmw** — the compound-operation vocabulary, measured two ways:
//!
//! * **native** — the structures' own `upsert_in` / `compare_swap_in` /
//!   `rmw_in` overrides (in-place under the bucket lock for the blocking
//!   tables, value-pointer CAS in the lock-free structures);
//! * **composed** — the same logical operation expressed as a retry loop
//!   over the basic vocabulary (`get`/`insert`/`remove`), the only option
//!   before this vocabulary existed. The composition is also *not* atomic
//!   (a concurrent reader can catch the remove+insert window), so the
//!   native column is both the faster and the only correct one — the
//!   numbers quantify what the atomicity costs (or saves).
//!
//! Mixes: upsert-heavy (50 % upsert / 50 % get), CAS-heavy (40 % CAS /
//! 10 % updates / 50 % get), and a pure fetch-add counter.
//!
//! Plus one single-arm group, **decision**: the read-only RMW (the closure
//! inspects and declines) on the four structures that carry the optimistic
//! protocol. Lazy-ht, coupling-ht and elastic-ht answer it with a version
//! validation and no lock at all; bst-tk with its plain parse.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use csds_bench::{tune, BenchMap};
use csds_core::{GuardedMap, MapHandle};
use csds_harness::{apply_map_op, run_timed, thread_seed, AlgoKind, Stop};
use csds_workload::{FastRng, KeyDist, KeySampler, Op, OpMix};

const SIZE: usize = 1024;

/// The pre-vocabulary emulation of a compound operation over
/// `get`/`insert`/`remove` (basic operations pass through unchanged).
fn composed_op(h: &mut MapHandle<'_, u64>, op: Op, key: u64) {
    match op {
        // insert-else-(remove; insert), with a visible absence window.
        Op::Upsert => loop {
            if h.insert(key, key) {
                break;
            }
            let _ = h.remove(key);
        },
        // get-compare-(remove; insert).
        Op::Cas => {
            if h.get(key).copied() == Some(key) && h.remove(key).is_some() {
                let _ = h.insert(key, key);
            }
        }
        Op::FetchAdd => {
            let cur = h.remove(key).unwrap_or(0);
            let _ = h.insert(key, cur + 1);
        }
        basic => apply_map_op(h, basic, key),
    }
}

/// Run `total_ops` of `mix` over `key_range` split across `threads`, one
/// handle per worker; `native` selects the native compound calls,
/// otherwise compositions over the basic vocabulary.
fn run_mix(
    map: &(dyn GuardedMap<u64> + 'static),
    key_range: u64,
    mix: OpMix,
    native: bool,
    threads: usize,
    total_ops: u64,
) -> Duration {
    let sampler = KeySampler::new(KeyDist::Uniform, key_range);
    run_timed(threads, Stop::Ops(total_ops), |t| {
        let mut rng = FastRng::new(thread_seed(0x5EED, t));
        let mut h = MapHandle::new(map);
        let sampler = &sampler;
        move || {
            let key = sampler.sample(&mut rng);
            let op = mix.sample(&mut rng);
            if native {
                apply_map_op(&mut h, op, key);
            } else {
                composed_op(&mut h, op, key);
            }
        }
    })
    .elapsed
}

fn algos() -> [(&'static str, AlgoKind); 4] {
    [
        ("lazy_ht", AlgoKind::LazyHashTable),
        ("elastic_ht", AlgoKind::ElasticHashTable),
        ("lockfree_ht", AlgoKind::LockFreeHashTable),
        ("herlihy_skiplist", AlgoKind::HerlihySkipList),
    ]
}

fn upsert_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_rmw_upsert_heavy_1024");
    tune(&mut g);
    for (label, algo) in algos() {
        let map = BenchMap::new(algo, SIZE);
        for (path, native) in [("native", true), ("composed", false)] {
            g.bench_function(format!("{label}/{path}/t1"), |b| {
                b.iter_custom(|iters| {
                    run_mix(
                        map.map(),
                        SIZE as u64 * 2,
                        OpMix::mix_rmw_upsert_heavy(),
                        native,
                        1,
                        iters,
                    )
                });
            });
        }
    }
    g.finish();
}

fn cas_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_rmw_cas_heavy_1024");
    tune(&mut g);
    for (label, algo) in algos() {
        let map = BenchMap::new(algo, SIZE);
        for (path, native) in [("native", true), ("composed", false)] {
            g.bench_function(format!("{label}/{path}/t1"), |b| {
                b.iter_custom(|iters| {
                    run_mix(
                        map.map(),
                        SIZE as u64 * 2,
                        OpMix::mix_rmw_cas_heavy(),
                        native,
                        1,
                        iters,
                    )
                });
            });
        }
    }
    g.finish();
}

fn counter(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_rmw_counter_64keys");
    tune(&mut g);
    // A hot counter population: 64 keys, pure fetch-add.
    for (label, algo) in [
        ("lazy_ht", AlgoKind::LazyHashTable),
        ("elastic_ht", AlgoKind::ElasticHashTable),
    ] {
        let key_range = 64u64;
        let map = algo.make(key_range as usize);
        for (path, native) in [("native", true), ("composed", false)] {
            for threads in [1usize, 4] {
                g.bench_function(format!("{label}/{path}/t{threads}"), |b| {
                    b.iter_custom(|iters| {
                        run_mix(
                            &*map,
                            key_range,
                            OpMix::mix_rmw_counter(),
                            native,
                            threads,
                            iters,
                        )
                    });
                });
            }
        }
    }
    g.finish();
}

fn decision(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_rmw_decision_1024");
    tune(&mut g);
    let sampler = KeySampler::new(KeyDist::Uniform, SIZE as u64 * 2);
    for (label, algo) in [
        ("lazy_ht", AlgoKind::LazyHashTable),
        ("coupling_ht", AlgoKind::CouplingHashTable),
        ("elastic_ht", AlgoKind::ElasticHashTable),
        ("bst_tk", AlgoKind::BstTk),
    ] {
        let map = BenchMap::new(algo, SIZE);
        for threads in [1usize, 4] {
            g.bench_function(format!("{label}/t{threads}"), |b| {
                b.iter_custom(|iters| {
                    run_timed(threads, Stop::Ops(iters), |t| {
                        let mut rng = FastRng::new(thread_seed(0x5EED, t));
                        let mut h = MapHandle::new(map.map());
                        let sampler = &sampler;
                        move || {
                            let out = h.rmw(sampler.sample(&mut rng), &mut |c| {
                                black_box(c.copied());
                                None
                            });
                            black_box(out.applied);
                        }
                    })
                    .elapsed
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, upsert_heavy, cas_heavy, counter, decision);
criterion_main!(benches);
