//! Design-choice ablations:
//!
//! * **lock kind** — the lazy list with TAS vs ticket vs MCS node locks;
//!   the paper (§3.2) observed "no benefits from more complex locks" for
//!   CSDSs because per-lock contention is tiny;
//! * **elision retry budget** — the §6.4 model assumes 5 speculative
//!   retries before falling back; sweep the budget on a contended counter;
//! * **wait-free helping overhead** — the wait-free list with 1 vs many
//!   announced-slot scans is implicit in its design; we measure updates vs
//!   reads split to expose the helping cost on the update path.

use csds_sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use csds_bench::{tune, BenchMap};
use csds_core::list::{LazyList, LazyListMcs, LazyListTicket};
use csds_core::GuardedMap;
use csds_harness::AlgoKind;
use csds_htm::{attempt_elision, Elided, SpecStep, TxRegion};

fn lock_kind(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_lock_kind_lazy_list_512elems_20pct");
    tune(&mut g);
    let maps: Vec<(&str, Box<dyn GuardedMap<u64>>)> = vec![
        ("tas", Box::new(LazyList::<u64>::new())),
        ("ticket", Box::new(LazyListTicket::<u64>::new())),
        ("mcs", Box::new(LazyListMcs::<u64>::new())),
    ];
    for (label, map) in maps {
        let map = BenchMap::over(map, 512);
        g.bench_function(label, |b| {
            b.iter_custom(|iters| map.run_pin_per_op(iters, 4, 20));
        });
    }
    g.finish();
}

fn elision_retry_budget(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_elision_retry_budget");
    tune(&mut g);
    for retries in [1u32, 5, 16] {
        g.bench_function(format!("retries_{retries}"), |b| {
            b.iter_custom(|iters| {
                let region = Arc::new(TxRegion::new());
                let counter = Arc::new(AtomicUsize::new(0));
                let threads = 4;
                let per = iters.div_ceil(threads as u64);
                let start = Instant::now();
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let region = Arc::clone(&region);
                        let counter = Arc::clone(&counter);
                        std::thread::spawn(move || {
                            for _ in 0..per {
                                loop {
                                    match attempt_elision(&region, retries, |tx| {
                                        let v = tx.read(&counter);
                                        tx.write(&counter, v + 1);
                                        SpecStep::Commit(())
                                    }) {
                                        Elided::Committed(()) => break,
                                        Elided::Invalid => {}
                                        Elided::FellBack => {
                                            let _fb = region.enter_fallback();
                                            counter
                                                .fetch_add(1, csds_sync::atomic::Ordering::Relaxed);
                                            break;
                                        }
                                    }
                                }
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                start.elapsed()
            });
        });
    }
    g.finish();
}

fn waitfree_update_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_waitfree_helping_cost_512elems");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(600));
    let map = BenchMap::new(AlgoKind::WaitFreeList, 512);
    // Reads traverse without helping; updates publish + help: the gap is
    // the announce/help machinery's price.
    g.bench_function("reads_only", |b| {
        b.iter_custom(|iters| map.run(iters, 2, 0))
    });
    g.bench_function("updates_only", |b| {
        b.iter_custom(|iters| map.run(iters, 2, 100))
    });
    g.finish();
}

criterion_group!(
    benches,
    lock_kind,
    elision_retry_budget,
    waitfree_update_cost
);
criterion_main!(benches);
