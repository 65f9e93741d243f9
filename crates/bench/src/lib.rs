//! Shared helpers for the criterion benches (one bench target per paper
//! figure/table; see `benches/`).
//!
//! Criterion measures *time per iteration*; we define one iteration as one
//! map operation and split the requested iteration count across worker
//! threads with [`csds_harness::run_timed`], so throughput
//! comparisons between algorithms reproduce the paper's figures' shapes.
//!
//! Benches run the **handle** path by default (one `MapHandle` per worker,
//! fence-free repin between operations — the production configuration);
//! [`BenchMap::run_pin_per_op`] exposes the pin-per-op path so
//! `fig0_substrate` can measure the difference directly.

use std::time::Duration;

use csds_core::{GuardedMap, MapHandle};
use csds_harness::{apply_map_op, map_worker, prefill, run_timed, thread_seed, AlgoKind, Stop};
use csds_workload::{FastRng, KeyDist, KeySampler, OpMix};

/// An owned, prefilled structure ready to be hammered by a bench.
pub struct BenchMap {
    map: Box<dyn GuardedMap<u64>>,
    key_range: u64,
}

impl BenchMap {
    /// Build and prefill `algo` to `size` elements (key range 2×size).
    pub fn new(algo: AlgoKind, size: usize) -> Self {
        Self::over(algo.make(size * 2), size)
    }

    /// Prefill an already-built (empty) structure to `size` elements (key
    /// range 2×size) — for variants the [`AlgoKind`] factory does not list.
    pub fn over(map: Box<dyn GuardedMap<u64>>, size: usize) -> Self {
        let key_range = size as u64 * 2;
        prefill(&*map, size, key_range, 0xB0B5EED);
        BenchMap { map, key_range }
    }

    /// The prefilled structure, for benches that drive it with their own
    /// [`run_timed`] closure.
    pub fn map(&self) -> &(dyn GuardedMap<u64> + 'static) {
        &*self.map
    }

    /// Run `total_ops` operations (uniform keys) across `threads`, one
    /// `MapHandle` per worker.
    pub fn run(&self, total_ops: u64, threads: usize, update_pct: u32) -> Duration {
        self.run_dist(total_ops, threads, update_pct, KeyDist::Uniform)
    }

    /// Run with an explicit key distribution (handle path).
    pub fn run_dist(
        &self,
        total_ops: u64,
        threads: usize,
        update_pct: u32,
        dist: KeyDist,
    ) -> Duration {
        let sampler = KeySampler::new(dist, self.key_range);
        run_timed(threads, Stop::Ops(total_ops), |t| {
            let seed = thread_seed(0x5EED ^ total_ops, t);
            map_worker(&*self.map, &sampler, update_pct, seed)
        })
        .elapsed
    }

    /// Run with a full pin/unpin cycle around every operation — a fresh
    /// session per call, which is what the pin-per-op
    /// [`csds_core::ConcurrentMap`] wrappers do — for comparison against
    /// the handle path.
    pub fn run_pin_per_op(&self, total_ops: u64, threads: usize, update_pct: u32) -> Duration {
        let sampler = KeySampler::new(KeyDist::Uniform, self.key_range);
        let mix = OpMix::updates(update_pct);
        run_timed(threads, Stop::Ops(total_ops), |t| {
            let mut rng = FastRng::new(thread_seed(0x5EED ^ total_ops, t));
            let (map, sampler) = (&*self.map, &sampler);
            move || {
                let key = sampler.sample(&mut rng);
                apply_map_op(&mut MapHandle::new(map), mix.sample(&mut rng), key);
                csds_metrics::op_boundary();
            }
        })
        .elapsed
    }
}

/// Criterion group defaults tuned for a small CI host: minimum sample
/// count, sub-second measurement windows.
pub fn tune<M: criterion::measurement::Measurement>(group: &mut criterion::BenchmarkGroup<'_, M>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_map_prefills_and_runs() {
        let bm = BenchMap::new(AlgoKind::LazyHashTable, 128);
        let d = bm.run(10_000, 2, 10);
        assert!(d > Duration::ZERO);
        let d2 = bm.run_pin_per_op(10_000, 2, 10);
        assert!(d2 > Duration::ZERO);
    }
}
