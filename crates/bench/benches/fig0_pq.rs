//! **fig0_pq** — the priority-queue family: blocking (Pugh tower delete
//! under locks) vs lock-free (Lotan–Shavit mark-CAS claim), over the same
//! skiplist substrate.
//!
//! Three mixes per queue — push-heavy (60/30/10 push/pop/peek), pop-heavy
//! (30/60/10) and mixed (45/45/10) — each uncontended (t1) and contended
//! (t4). Every pop-min targets the head run regardless of mix, so unlike
//! the map benches the contention here does not thin out with key range:
//! the pop share is the contention dial, and the pop-heavy/t4 cells are
//! where the two designs' claims diverge (lock-hold time vs CAS-retry
//! churn on the same cache line).

use criterion::{criterion_group, criterion_main, Criterion};
use csds_bench::tune;
use csds_harness::{pq_worker, prefill_pq, run_timed, thread_seed, PqKind, Stop};
use csds_workload::PqOpMix;

const SIZE: usize = 1024;
const KEY_RANGE: u64 = SIZE as u64 * 2;

fn pq(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_pq_1024");
    tune(&mut g);
    for kind in PqKind::all() {
        for (mix_label, mix) in [
            ("push-heavy", PqOpMix::push_heavy()),
            ("pop-heavy", PqOpMix::pop_heavy()),
            ("mixed", PqOpMix::mixed()),
        ] {
            for threads in [1usize, 4] {
                // Fresh prefilled queue per cell so a draining mix in one
                // cell cannot starve the next.
                let pq = kind.make();
                prefill_pq(&*pq, SIZE, KEY_RANGE, 0xB0B5EED);
                g.bench_function(format!("{}/{mix_label}/t{threads}", kind.name()), |b| {
                    // `iters` ops of the mix, one `PqHandle` session per worker.
                    b.iter_custom(|iters| {
                        run_timed(threads, Stop::Ops(iters), |t| {
                            pq_worker(&*pq, mix, KEY_RANGE, thread_seed(0x5EED, t))
                        })
                        .elapsed
                    })
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, pq);
criterion_main!(benches);
