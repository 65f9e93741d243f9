//! **Figure 10** — hotspot objects (queue/stack): blocking implementations
//! serialize completely, so per-op cost grows with the thread count, while
//! the lock-free counterparts degrade more gracefully. The wait fractions
//! are printed by `repro run fig10`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use csds_core::{ConcurrentPool, GuardedPool};
use csds_harness::{run_timed, PoolKind, Stop};

fn run_pool_ops(pool: &dyn GuardedPool<u64>, total_ops: u64, threads: usize) -> Duration {
    run_timed(threads, Stop::Ops(total_ops), |t| {
        let mut i = t as u64;
        move || {
            i += 1;
            // Alternate push/pop, and keep the pool from draining empty.
            if i % 2 == 0 || pool.pop().is_none() {
                pool.push(i);
            }
        }
    })
    .elapsed
}

fn fig10(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_hotspot_5050_pushpop");
    csds_bench::tune(&mut g);
    for (label, kind) in [
        ("two_lock_queue", PoolKind::TwoLockQueue),
        ("locked_stack", PoolKind::LockedStack),
        ("ms_queue", PoolKind::MsQueue),
        ("treiber_stack", PoolKind::TreiberStack),
    ] {
        let pool = kind.make();
        for i in 0..1024u64 {
            pool.push(i);
        }
        for threads in [1usize, 4, 8] {
            g.bench_function(format!("{label}/t{threads}"), |b| {
                b.iter_custom(|iters| run_pool_ops(&*pool, iters, threads));
            });
        }
    }
    g.finish();
}

criterion_group!(benches, fig10);
criterion_main!(benches);
