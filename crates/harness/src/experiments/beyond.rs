//! Beyond CSDSs (paper §7): queue and stack hotspot behavior, Figure 10.

use crate::report::{mops, pct, Table};
use crate::runner::{PoolKind, PoolRunConfig, RunResult};
use crate::Scale;

/// **Figure 10** — fraction of time spent waiting for locks in a blocking
/// queue and stack, 50 % push / 50 % pop, 1024 prefilled nodes, increasing
/// thread counts. Paper: the fraction "quickly approaches 1" — these
/// objects are *not* practically wait-free. Lock-free counterparts are run
/// alongside as the §7 recommendation.
pub fn fig10(scale: Scale) {
    let mut table = Table::new(
        "Fig. 10 - queue/stack wait fraction (50/50 push-pop, 1024 prefilled)",
        &[
            "threads",
            "queue wait",
            "stack wait",
            "queue Mops/s",
            "stack Mops/s",
            "ms-queue Mops/s",
            "treiber Mops/s",
        ],
    );
    let threads_list: Vec<usize> = if scale.quick {
        vec![2, 4, 8, 16, 20]
    } else {
        vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    };
    for threads in threads_list {
        let run = |kind: PoolKind| -> RunResult {
            PoolRunConfig {
                kind,
                prefill: 1024,
                threads,
                duration: scale.duration(),
                seed: 0xF16,
            }
            .run()
        };
        let q = run(PoolKind::TwoLockQueue);
        let s = run(PoolKind::LockedStack);
        let mq = run(PoolKind::MsQueue);
        let ts = run(PoolKind::TreiberStack);
        table.row(vec![
            threads.to_string(),
            pct(q.wait_fraction()),
            pct(s.wait_fraction()),
            mops(q.throughput_mops()),
            mops(s.throughput_mops()),
            mops(mq.throughput_mops()),
            mops(ts.throughput_mops()),
        ]);
    }
    table.print();
    println!(
        "paper: wait fraction approaches 1 with threads - blocking hotspot objects\n\
         are not practically wait-free; use lock-free designs there (sec. 7)"
    );
}
