//! Beyond CSDSs (paper §7): queue, stack and priority-queue hotspot
//! behavior, Figure 10.

use csds_workload::PqOpMix;

use crate::factory::PqKind;
use crate::report::{mops, pct, Table};
use crate::runner::{
    pq_worker, prefill_pq, run_avg, run_timed, thread_seed, PoolKind, PoolRunConfig, RunResult,
};
use crate::Scale;

/// Prefilled size of every Fig. 10 object.
const PREFILL: usize = 1024;
/// Priority space of the priority queues (the paper's 2× rule).
const PQ_KEY_RANGE: u64 = 2 * PREFILL as u64;
/// Seed of every Fig. 10 cell's first repetition.
const SEED: u64 = 0xF16;

/// **Figure 10** — fraction of time spent waiting for locks in a blocking
/// queue and stack, 50 % push / 50 % pop, 1024 prefilled nodes, increasing
/// thread counts. Paper: the fraction "quickly approaches 1" — these
/// objects are *not* practically wait-free. Lock-free counterparts are run
/// alongside as the §7 recommendation.
///
/// A priority queue's pop-min is the same kind of hotspot: every pop
/// targets the head run. The second table runs the blocking Pugh queue
/// and the lock-free Lotan–Shavit queue (45/45/10 push/pop/peek over
/// twice the prefilled priority range) at the same thread counts.
///
/// Every cell averages `scale.reps()` runs.
pub fn fig10(scale: Scale) {
    let mut table = Table::new(
        "Fig. 10 - queue/stack wait fraction (50/50 push-pop, 1024 prefilled)",
        &[
            "threads",
            "queue wait",
            "stack wait",
            "queue waited ops",
            "stack waited ops",
            "queue Mops/s",
            "stack Mops/s",
            "ms-queue Mops/s",
            "treiber Mops/s",
        ],
    );
    let mut pq_table = Table::new(
        "Fig. 10 - priority-queue wait fraction (45/45/10 push/pop/peek, 1024 prefilled)",
        &[
            "threads",
            "pugh-pq wait",
            "pugh-pq waited ops",
            "pugh-pq Mops/s",
            "lotan-shavit Mops/s",
        ],
    );
    let threads_list: Vec<usize> = if scale.quick {
        vec![2, 4, 8, 16, 20]
    } else {
        vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    };
    for threads in threads_list {
        let run = |kind: PoolKind| -> RunResult {
            run_avg(scale.reps(), SEED, |seed| {
                PoolRunConfig {
                    kind,
                    prefill: PREFILL,
                    threads,
                    duration: scale.duration(),
                    seed,
                }
                .run()
            })
        };
        let q = run(PoolKind::TwoLockQueue);
        let s = run(PoolKind::LockedStack);
        let mq = run(PoolKind::MsQueue);
        let ts = run(PoolKind::TreiberStack);
        table.row(vec![
            threads.to_string(),
            pct(q.wait_fraction()),
            pct(s.wait_fraction()),
            pct(q.waited_op_share()),
            pct(s.waited_op_share()),
            mops(q.throughput_mops()),
            mops(s.throughput_mops()),
            mops(mq.throughput_mops()),
            mops(ts.throughput_mops()),
        ]);
        let pq_run = |kind: PqKind| -> RunResult {
            run_avg(scale.reps(), SEED, |seed| {
                let pq = kind.make();
                prefill_pq(&*pq, PREFILL, PQ_KEY_RANGE, seed);
                run_timed(threads, scale.duration(), |t| {
                    pq_worker(&*pq, PqOpMix::mixed(), PQ_KEY_RANGE, thread_seed(seed, t))
                })
            })
        };
        let pugh = pq_run(PqKind::PughPq);
        let ls = pq_run(PqKind::LotanShavitPq);
        pq_table.row(vec![
            threads.to_string(),
            pct(pugh.wait_fraction()),
            pct(pugh.waited_op_share()),
            mops(pugh.throughput_mops()),
            mops(ls.throughput_mops()),
        ]);
    }
    table.print();
    pq_table.print();
    println!(
        "paper: wait fraction approaches 1 with threads - blocking hotspot objects\n\
         are not practically wait-free; use lock-free designs there (sec. 7)"
    );
}
