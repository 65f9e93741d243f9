//! **Figure 0e** (not in the paper) — the elastic sharded hash table.
//!
//! Three questions, matching the acceptance bar for the elastic subsystem:
//!
//! * `steady`: at a matched, stationary capacity, what does elasticity cost
//!   next to the paper's fixed-capacity `LazyHashTable`? (Target: reads
//!   within ~1.3×.)
//! * `grow`: ns/op while the table is actively growing 2⁴ → ≥ 2¹⁰ buckets
//!   under insert traffic (migration work is amortized into the updates;
//!   the bench asserts the growth actually happened and that readers never
//!   took a lock).
//! * `churn`: a full [`ChurnSchedule`] cycle — grow, steady, shrink,
//!   steady — with migration statistics printed at the end.

use csds_sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use csds_bench::{tune, BenchMap};
use csds_core::{ConcurrentMap, MapHandle};
use csds_elastic::{ElasticConfig, ElasticHashTable};
use csds_harness::{apply_map_op, run_timed, thread_seed, AlgoKind, Stop};
use csds_workload::{ChurnSchedule, FastRng, KeySampler, OpMix};

const THREADS: usize = 2;

/// Steady-state comparison at matched capacity: the elastic table holds its
/// constructed size (no thresholds crossed), so any delta against the
/// fixed-capacity table is pure subsystem overhead (shard selection, the
/// `prev`-null check, occupancy accounting).
fn steady_state(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_elastic_steady_4096elems");
    tune(&mut g);
    for (mix_label, update_pct) in [("read", 0u32), ("mixed10", 10u32)] {
        for algo in [AlgoKind::LazyHashTable, AlgoKind::ElasticHashTable] {
            let bm = BenchMap::new(algo, 4096);
            g.bench_function(format!("{mix_label}/{}", algo.name()), move |b| {
                b.iter_custom(|iters| bm.run(iters, THREADS, update_pct))
            });
        }
    }
    g.finish();
}

/// ns/op for reads racing a forced growth: writers push the population up
/// (2⁴ → ≥ 2¹⁰ buckets) while a reader thread runs clone-free `get_in`
/// through a handle; we measure the reader. Readers take no locks by
/// construction — `get_in` consults old-then-new through atomic loads only —
/// so the interesting number is how much chasing a migrating table costs.
fn reads_during_growth(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_elastic_grow");
    tune(&mut g);
    g.bench_function("reads_while_growing_16_to_1024_buckets", |b| {
        b.iter_custom(|iters| {
            let table = Arc::new(ElasticHashTable::<u64>::with_config(ElasticConfig {
                initial_buckets: 16,
                min_buckets: 16,
                ..ElasticConfig::default()
            }));
            assert!(table.buckets() >= 16);
            let stop = Arc::new(csds_sync::atomic::AtomicBool::new(false));
            let barrier = Arc::new(Barrier::new(2));
            // Writer: monotone inserts, the pure growth workload.
            let writer = {
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut h = MapHandle::new(&*table);
                    barrier.wait();
                    let mut k = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        h.insert(k, k);
                        k += 1;
                    }
                    k
                })
            };
            table.insert(0, 0);
            let mut h = MapHandle::new(&*table);
            let mut rng = FastRng::new(0xE1A5);
            barrier.wait();
            let start = Instant::now();
            for _ in 0..iters {
                // Keys mostly behind the growth frontier, so hits dominate.
                black_box(h.get(rng.bounded(4096)));
            }
            let elapsed = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            let inserted = writer.join().unwrap();
            drop(h);
            let grown = table.buckets();
            assert!(
                inserted < 4096 || grown >= 1024,
                "{inserted} inserts grew the table to only {grown} buckets"
            );
            elapsed
        })
    });
    g.finish();
}

/// One full churn cycle under a phase schedule: every thread derives the
/// phase from its own op counter, so grow and shrink phases line up and the
/// population (and the table) breathes.
fn churn_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_elastic_churn");
    tune(&mut g);
    let table = Arc::new(ElasticHashTable::<u64>::with_config(ElasticConfig {
        initial_buckets: 16,
        min_buckets: 16,
        ..ElasticConfig::default()
    }));
    let table_for_bench = Arc::clone(&table);
    g.bench_function("grow_steady_shrink_cycle", move |b| {
        let table = &table_for_bench;
        b.iter_custom(|iters| {
            // Drain-dominant shrink phase (2× the grow ops): successful
            // removes thin out as the population empties, so the phase
            // needs the extra attempts to actually pull occupancy under
            // the shrink threshold each cycle.
            let schedule = ChurnSchedule::new(4_000, 1_000, 8_000);
            let steady = OpMix::updates(10);
            let sampler = KeySampler::new(csds_workload::KeyDist::Uniform, 1 << 12);
            run_timed(THREADS, Stop::Ops(iters), |t| {
                let mut h = MapHandle::new(&**table);
                let mut rng = FastRng::new(thread_seed(0xC0DE, t));
                let sampler = &sampler;
                let mut i = 0u64;
                move || {
                    let key = sampler.sample(&mut rng);
                    apply_map_op(&mut h, schedule.sample(i, steady, &mut rng), key);
                    i += 1;
                }
            })
            .elapsed
        });
    });
    g.finish();
    let stats = table.resize_stats();
    println!(
        "    churn stats (all samples): {} migrations started, {} completed ({} grows, \
         {} shrinks), {} buckets / {} entries moved, {} tables retired, {} buckets now",
        stats.migrations_started,
        stats.migrations_completed,
        stats.grows,
        stats.shrinks,
        stats.buckets_moved,
        stats.entries_moved,
        stats.tables_retired,
        table.buckets(),
    );
}

criterion_group!(benches, steady_state, reads_during_growth, churn_cycle);
criterion_main!(benches);
