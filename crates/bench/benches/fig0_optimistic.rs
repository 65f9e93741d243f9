//! **fig0_optimistic** — the optimistic version-validated fast paths,
//! A/B-measured against the locked baseline on the same binary.
//!
//! Three axes per structure:
//!
//! * **read** — pure `get` over the standard 1024-element population
//!   (seqlock-style snapshot/validate vs the pre-PR locked or unvalidated
//!   path);
//! * **rmw-decision** — read-only RMW (the closure inspects and declines)
//!   over the same population: the optimistic path answers with a version
//!   validation and no lock at all, the locked path pays a full
//!   lock/unlock per call;
//! * **rmw-counter** — pure fetch-add over a hot 64-key population
//!   (validate-then-lock `rmw_in`: unsynchronized parse certified wholesale
//!   by `try_lock_version` vs lock-first — the uncontended write cost is
//!   expected at parity, both paths pay one CAS, alloc and retire);
//!
//! each uncontended (t1) and contended (t4), with the fast paths toggled
//! through [`csds_sync::with_optimistic_fast_paths`] so both columns run
//! the very same build. The structures measured are the four that carry
//! the protocol: the lazy hash table, the lock-coupling table (list-level
//! version word), the elastic table (bucket version under `MOVED`
//! authority) and BST-TK (edge-version-validated descent).

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use csds_bench::{tune, BenchMap};
use csds_core::{GuardedMap, MapHandle};
use csds_harness::{apply_map_op, run_timed, thread_seed, AlgoKind, Stop};
use csds_workload::{FastRng, KeyDist, KeySampler, Op};

const SIZE: usize = 1024;

fn algos() -> [(&'static str, AlgoKind); 4] {
    [
        ("lazy_ht", AlgoKind::LazyHashTable),
        ("coupling_ht", AlgoKind::CouplingHashTable),
        ("elastic_ht", AlgoKind::ElasticHashTable),
        ("bst_tk", AlgoKind::BstTk),
    ]
}

/// `total_ops` runs of `one_op(handle, key)` over uniform keys in
/// `key_range`, split across `threads` (one handle per worker).
fn run_ops(
    map: &(dyn GuardedMap<u64> + 'static),
    key_range: u64,
    threads: usize,
    total_ops: u64,
    one_op: impl Fn(&mut MapHandle<'_, u64>, u64) + Sync,
) -> Duration {
    let sampler = KeySampler::new(KeyDist::Uniform, key_range);
    run_timed(threads, Stop::Ops(total_ops), |t| {
        let mut rng = FastRng::new(thread_seed(0x5EED, t));
        let mut h = MapHandle::new(map);
        let (sampler, one_op) = (&sampler, &one_op);
        move || one_op(&mut h, sampler.sample(&mut rng))
    })
    .elapsed
}

/// Pure `get`.
fn read_op(h: &mut MapHandle<'_, u64>, key: u64) {
    apply_map_op(h, Op::Get, key);
}

/// Fetch-add (validate-then-lock `rmw_in`).
fn counter_op(h: &mut MapHandle<'_, u64>, key: u64) {
    apply_map_op(h, Op::FetchAdd, key);
}

/// Read-only RMW decision (closure inspects and declines). The optimistic
/// path answers these with a version validation and **no lock at all**;
/// the locked path pays a full lock/unlock per call.
fn decision_op(h: &mut MapHandle<'_, u64>, key: u64) {
    black_box(
        h.rmw(key, &mut |c| {
            black_box(c.copied());
            None
        })
        .applied,
    );
}

fn reads(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_optimistic_read_1024");
    tune(&mut g);
    for (label, algo) in algos() {
        let map = BenchMap::new(algo, SIZE);
        for (path, enabled) in [("optimistic", true), ("locked", false)] {
            for threads in [1usize, 4] {
                g.bench_function(format!("{label}/{path}/t{threads}"), |b| {
                    b.iter_custom(|iters| {
                        csds_sync::with_optimistic_fast_paths(enabled, || {
                            run_ops(map.map(), SIZE as u64 * 2, threads, iters, read_op)
                        })
                    });
                });
            }
        }
    }
    g.finish();
}

fn rmw_decision(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_optimistic_rmw_decision_1024");
    tune(&mut g);
    for (label, algo) in algos() {
        let map = BenchMap::new(algo, SIZE);
        for (path, enabled) in [("optimistic", true), ("locked", false)] {
            for threads in [1usize, 4] {
                g.bench_function(format!("{label}/{path}/t{threads}"), |b| {
                    b.iter_custom(|iters| {
                        csds_sync::with_optimistic_fast_paths(enabled, || {
                            run_ops(map.map(), SIZE as u64 * 2, threads, iters, decision_op)
                        })
                    });
                });
            }
        }
    }
    g.finish();
}

fn rmw_counter(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_optimistic_rmw_counter_64keys");
    tune(&mut g);
    for (label, algo) in algos() {
        let key_range = 64u64;
        let map = algo.make(key_range as usize);
        for (path, enabled) in [("optimistic", true), ("locked", false)] {
            for threads in [1usize, 4] {
                g.bench_function(format!("{label}/{path}/t{threads}"), |b| {
                    b.iter_custom(|iters| {
                        csds_sync::with_optimistic_fast_paths(enabled, || {
                            run_ops(&*map, key_range, threads, iters, counter_op)
                        })
                    });
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, reads, rmw_decision, rmw_counter);
criterion_main!(benches);
