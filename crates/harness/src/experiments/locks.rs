//! Lock choice (paper §3.2): the lazy list with each per-node lock kind.

use csds_core::list::LazyList;
use csds_sync::{McsLock, RawMutex, TasLock, TicketLock};
use csds_workload::{KeyDist, KeySampler};

use crate::report::{mops, pct, ratio, Table};
use crate::runner::{map_worker, prefill, run_timed, thread_seed, RunResult};
use crate::Scale;

const SIZE: usize = 1024;
const KEY_RANGE: u64 = 2 * SIZE as u64;
const UPDATE_PCT: u32 = 10;
const SEED: u64 = 0x10C5;

/// One `LazyList<u64, L>` cell: a fresh prefilled list per repetition,
/// driven through one handle session per worker.
fn lazy_list_run<L: RawMutex + 'static>(threads: usize, scale: Scale) -> RunResult {
    let sampler = KeySampler::new(KeyDist::Uniform, KEY_RANGE);
    let reps = (0..scale.reps())
        .map(|i| {
            let seed = SEED.wrapping_add(i as u64 * 0x1234_5678);
            let list = LazyList::<u64, L>::new();
            prefill(&list, SIZE, KEY_RANGE, seed);
            run_timed(threads, scale.duration(), |t| {
                map_worker(&list, &sampler, UPDATE_PCT, thread_seed(seed, t))
            })
        })
        .collect();
    RunResult::merge_reps(reps)
}

/// **§3.2** — "no benefits from using more complex locks, such as MCS
/// locks, due to the low degree of contention for any particular lock".
/// The lazy list (1024 elements, 10 % updates) with test-and-set (the
/// paper's and the library's default), ticket and MCS node locks, at one
/// thread and at every hardware thread of the host.
pub fn locks(scale: Scale) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut threads_list = vec![1, cores];
    threads_list.dedup();
    let mut table = Table::new(
        "Sec. 3.2 - lazy list per-node lock kind, 1024 elements, 10% updates",
        &[
            "threads",
            "lock",
            "Mops/s",
            "vs tas",
            "wait fraction",
            "waited ops",
        ],
    );
    for threads in threads_list {
        let runs = [
            ("tas", lazy_list_run::<TasLock>(threads, scale)),
            ("ticket", lazy_list_run::<TicketLock>(threads, scale)),
            ("mcs", lazy_list_run::<McsLock>(threads, scale)),
        ];
        let tas = runs[0].1.throughput_mops().max(1e-12);
        for (lock, r) in runs {
            table.row(vec![
                threads.to_string(),
                lock.into(),
                mops(r.throughput_mops()),
                ratio(r.throughput_mops() / tas),
                pct(r.wait_fraction()),
                pct(r.waited_op_share()),
            ]);
        }
    }
    table.print();
    println!(
        "paper: no benefit from more complex locks such as MCS - a node lock is\n\
         rarely contended, so the simplest lock is the fastest"
    );
}
