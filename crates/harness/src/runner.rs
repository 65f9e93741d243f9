//! The measurement loop.
//!
//! Follows the paper's methodology (§3.3): the structure is prefilled to
//! its target size from a key space twice that size; worker threads
//! continuously issue requests drawn from the configured distribution and
//! operation mix; a run lasts a fixed duration; per-thread throughput and
//! the fine-grained delay metrics are collected at the end.
//!
//! There is exactly one spawn/barrier/loop/join body, [`run_timed`]; the
//! map and pool configurations, the priority-queue workers (and the
//! criterion benches' fixed-op-count runs) differ only in the per-thread
//! closure they hand it.

use csds_sync::atomic::{AtomicBool, Ordering};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use csds_core::queuestack::{LockedStack, MsQueue, TreiberStack, TwoLockQueue};
use csds_core::{ConcurrentMap, ConcurrentPool, GuardedMap, GuardedPool, MapHandle, PoolHandle};
use csds_metrics::{DelayPolicy, StatsSnapshot};
use csds_pq::{ConcurrentPq, GuardedPq, PqHandle};
use csds_service::{NamespaceId, OpKind, ServiceClient};
use csds_workload::{FastRng, KeyDist, KeySampler, Op, OpMix, PqOp, PqOpMix};

use crate::factory::AlgoKind;

/// Configuration of one map-structure run.
#[derive(Clone, Debug)]
pub struct MapRunConfig {
    /// Algorithm under test.
    pub algo: AlgoKind,
    /// Initial (and stationary) element count.
    pub size: usize,
    /// Key-space size; the paper uses `2 * size`.
    pub key_range: u64,
    /// Percentage of operations that are updates (half insert/half remove).
    pub update_pct: u32,
    /// Worker thread count.
    pub threads: usize,
    /// Measurement window.
    pub duration: Duration,
    /// Key distribution.
    pub dist: KeyDist,
    /// Optional lock-holder delay injection (paper §5.4).
    pub delay: Option<DelayPolicy>,
    /// Base seed (thread `i` derives its own stream).
    pub seed: u64,
}

impl MapRunConfig {
    /// The paper's default shape for a given algorithm/size/mix/threads:
    /// key range 2×size, uniform keys, no delays.
    pub fn paper_default(
        algo: AlgoKind,
        size: usize,
        update_pct: u32,
        threads: usize,
        duration: Duration,
    ) -> Self {
        MapRunConfig {
            algo,
            size,
            key_range: (size as u64) * 2,
            update_pct,
            threads,
            duration,
            dist: KeyDist::Uniform,
            delay: None,
            seed: 0xC0FFEE,
        }
    }
}

/// Result of one run: totals plus per-thread breakdowns.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Completed operations, all threads.
    pub total_ops: u64,
    /// Per-thread completed operations (fairness, Fig. 4).
    pub per_thread_ops: Vec<u64>,
    /// Merged instrumentation counters.
    pub stats: StatsSnapshot,
    /// Worker thread count.
    pub threads: usize,
    /// Actual measured wall-clock window.
    pub elapsed: Duration,
}

impl RunResult {
    /// Aggregate throughput in Mops/s.
    pub fn throughput_mops(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Mean per-thread throughput (ops/s).
    pub fn per_thread_mean(&self) -> f64 {
        self.total_ops as f64 / self.threads as f64 / self.elapsed.as_secs_f64()
    }

    /// Standard deviation of per-thread throughput (ops/s).
    pub fn per_thread_std(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        let mean = self.per_thread_mean();
        let var = self
            .per_thread_ops
            .iter()
            .map(|&o| {
                let t = o as f64 / secs;
                (t - mean) * (t - mean)
            })
            .sum::<f64>()
            / self.threads as f64;
        var.sqrt()
    }

    /// Fraction of total thread-time spent waiting for locks (Figs. 5/7/8/9/10).
    pub fn wait_fraction(&self) -> f64 {
        self.stats.wait_fraction(self.elapsed, self.threads)
    }

    /// Fraction of operations that waited for a lock at least once. Unlike
    /// [`wait_fraction`](Self::wait_fraction), a descheduled waiter counts
    /// once here however long it was away, so this share separates
    /// contention from preemption on an oversubscribed host.
    pub fn waited_op_share(&self) -> f64 {
        self.stats.ops_waited as f64 / self.stats.ops.max(1) as f64
    }

    /// Fraction of operations restarted at least once (Fig. 6).
    pub fn restart_fraction(&self) -> f64 {
        self.stats.restart_fraction()
    }

    /// Fraction of operations restarted more than three times (Fig. 8).
    pub fn repeated_restart_fraction(&self) -> f64 {
        self.stats.repeated_restart_fraction()
    }

    /// Fraction of elided critical sections that fell back to locking
    /// (Table 2).
    pub fn fallback_fraction(&self) -> f64 {
        self.stats.fallback_fraction()
    }

    /// Merge (average) several repetitions of the same configuration.
    pub fn merge_reps(mut reps: Vec<RunResult>) -> RunResult {
        assert!(!reps.is_empty());
        if reps.len() == 1 {
            return reps.pop().unwrap();
        }
        let n = reps.len() as u64;
        let mut out = reps.pop().unwrap();
        for r in reps {
            out.total_ops += r.total_ops;
            for (a, b) in out.per_thread_ops.iter_mut().zip(r.per_thread_ops) {
                *a += b;
            }
            out.stats.merge(&r.stats);
            out.elapsed += r.elapsed;
        }
        out.total_ops /= n;
        for a in out.per_thread_ops.iter_mut() {
            *a /= n;
        }
        out.elapsed /= n as u32;
        // StatsSnapshot fields stay summed, but every fraction we derive is
        // a ratio of summed numerators/denominators, i.e. the rep-weighted
        // mean — except wait_fraction, which divides by elapsed*threads, so
        // rescale the wait time to the averaged window.
        out.stats.lock_wait_ns /= n;
        out
    }
}

/// Prefill `map` to `size` distinct keys drawn uniformly from the range.
pub fn prefill(map: &(impl ConcurrentMap<u64> + ?Sized), size: usize, key_range: u64, seed: u64) {
    assert!(
        size as u64 <= key_range,
        "cannot fit {size} elements in range {key_range}"
    );
    let mut rng = FastRng::new(seed | 1);
    let mut n = 0;
    while n < size {
        let k = rng.bounded(key_range);
        if map.insert(k, k) {
            n += 1;
        }
    }
}

/// When the workers of a [`run_timed`] call stop.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After a wall-clock window (the paper's fixed-duration runs).
    After(Duration),
    /// After this many operations in total, split evenly across the threads
    /// (criterion's `iter_custom` contract: work proportional to the
    /// iteration count).
    Ops(u64),
}

/// The one timed driver: spawn `threads` workers, release them together,
/// run each worker's operation closure until `stop`, join, and merge the
/// per-thread counters.
///
/// `per_thread(t)` runs **on worker `t`** right after the start barrier and
/// returns the closure that performs one operation — so it is the place to
/// open the thread's (`!Send`) handle session and seed its generator. The
/// closure (and the session it owns) is dropped before the worker's final
/// counter snapshot, so no thread idles pinned. Workers may borrow from the
/// caller's stack (scoped threads). [`RunResult::elapsed`] spans the start
/// barrier to the last join.
pub fn run_timed<W: FnMut()>(
    threads: usize,
    stop: Stop,
    per_thread: impl Fn(usize) -> W + Sync,
) -> RunResult {
    let quota = match stop {
        Stop::After(_) => u64::MAX,
        Stop::Ops(total) => total.div_ceil(threads as u64),
    };
    let expired = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (expired, barrier, per_thread) = (&expired, &barrier, &per_thread);
                s.spawn(move || {
                    // Clear anything accumulated before the measured window.
                    let _ = csds_metrics::take_and_reset();
                    barrier.wait();
                    let mut op = per_thread(t);
                    let mut ops = 0u64;
                    while ops < quota && !expired.load(Ordering::Relaxed) {
                        op();
                        ops += 1;
                    }
                    drop(op); // close the session (unpin) before the thread idles
                    (ops, csds_metrics::take_and_reset())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        if let Stop::After(window) = stop {
            std::thread::sleep(window);
            expired.store(true, Ordering::Relaxed);
        }
        let mut per_thread_ops = Vec::with_capacity(threads);
        let mut stats = StatsSnapshot::default();
        for w in workers {
            let (ops, snap) = w.join().expect("worker panicked");
            per_thread_ops.push(ops);
            stats.merge(&snap);
        }
        RunResult {
            total_ops: per_thread_ops.iter().sum(),
            per_thread_ops,
            stats,
            threads,
            elapsed: start.elapsed(),
        }
    })
}

/// Thread `t`'s generator seed, derived from a run's base seed.
pub fn thread_seed(base: u64, t: usize) -> u64 {
    base ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Issue one workload operation through a [`MapHandle`] — the single
/// `Op` → map-call mapping every runner, bench and example shares. Values
/// are the key itself; `FetchAdd` is the counter bump (absent = 0).
#[inline]
pub fn apply_map_op<M: GuardedMap<u64> + ?Sized>(h: &mut MapHandle<'_, u64, M>, op: Op, key: u64) {
    match op {
        Op::Get => {
            black_box(h.get(key));
        }
        Op::Insert => {
            black_box(h.insert(key, key));
        }
        Op::Remove => {
            black_box(h.remove(key));
        }
        Op::Upsert => {
            black_box(h.upsert(key, key));
        }
        Op::Cas => {
            black_box(h.compare_swap(key, &key, key));
        }
        Op::FetchAdd => {
            black_box(
                h.rmw(key, &mut |cur| {
                    Some(cur.copied().unwrap_or(0).wrapping_add(1))
                })
                .applied,
            );
        }
    }
}

/// The same workload operation as a service request — the single `Op` →
/// [`OpKind`] mapping (values are the key itself, `FetchAdd` bumps by 1).
pub fn service_op(op: Op, key: u64) -> OpKind<u64> {
    match op {
        Op::Get => OpKind::Get,
        Op::Insert => OpKind::Insert(key),
        Op::Remove => OpKind::Remove,
        Op::Upsert => OpKind::Upsert(key),
        Op::Cas => OpKind::CompareSwap {
            expected: key,
            new: key,
        },
        Op::FetchAdd => OpKind::FetchAdd(1),
    }
}

/// One pipelining service client: submit `depth` requests, await their
/// replies in submission order, and repeat until `total` requests have
/// completed. `sample` draws each request's namespace, key and operation
/// (issued through [`service_op`]). Returns the time from the first submit
/// to the last reply.
pub fn pipeline(
    client: &ServiceClient<u64>,
    total: u64,
    depth: usize,
    mut sample: impl FnMut() -> (NamespaceId, u64, Op),
) -> Duration {
    let mut pending = Vec::with_capacity(depth);
    let mut done = 0u64;
    let start = Instant::now();
    while done < total {
        let n = depth.min((total - done) as usize);
        for _ in 0..n {
            let (ns, key, op) = sample();
            let submitted = client.namespace(ns).submit(key, service_op(op, key));
            pending.push(submitted.expect("service is running"));
        }
        for f in pending.drain(..) {
            black_box(f.wait().expect("accepted ops execute"));
        }
        done += n as u64;
    }
    start.elapsed()
}

/// A [`run_timed`] per-thread closure issuing `update_pct` % updates over
/// keys drawn from `sampler` through one [`MapHandle`] session on `map`
/// (with `op_boundary` after every operation).
pub fn map_worker<'a, M: GuardedMap<u64> + ?Sized>(
    map: &'a M,
    sampler: &'a KeySampler,
    update_pct: u32,
    seed: u64,
) -> impl FnMut() + 'a {
    let mix = OpMix::updates(update_pct);
    let mut rng = FastRng::new(seed);
    let mut handle = MapHandle::new(map);
    move || {
        let key = sampler.sample(&mut rng);
        apply_map_op(&mut handle, mix.sample(&mut rng), key);
        csds_metrics::op_boundary();
    }
}

impl MapRunConfig {
    /// Execute one timed run of this map workload: build and prefill the
    /// structure, then [`run_timed`] with one [`MapHandle`] session per
    /// worker — the hot loop runs on a reusable guard (fence-free
    /// `Guard::repin` between operations) instead of a pin/unpin per call.
    pub fn run(&self) -> RunResult {
        let map = self.algo.make(self.key_range as usize);
        prefill(&*map, self.size, self.key_range, self.seed);
        let sampler = KeySampler::new(self.dist, self.key_range);
        run_timed(self.threads, Stop::After(self.duration), |t| {
            let seed = thread_seed(self.seed, t);
            // Arm the delay injector with a per-thread seed (it dies with
            // the worker thread).
            csds_metrics::set_delay_policy(self.delay.map(|mut d| {
                d.seed ^= seed;
                d
            }));
            map_worker(&*map, &sampler, self.update_pct, seed)
        })
    }
}

/// Hotspot pool kinds for the §7 experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    /// Two-lock Michael–Scott queue (blocking).
    TwoLockQueue,
    /// Single-lock stack (blocking).
    LockedStack,
    /// Lock-free Michael–Scott queue.
    MsQueue,
    /// Treiber stack (lock-free).
    TreiberStack,
}

impl PoolKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PoolKind::TwoLockQueue => "two-lock-queue",
            PoolKind::LockedStack => "locked-stack",
            PoolKind::MsQueue => "ms-queue",
            PoolKind::TreiberStack => "treiber-stack",
        }
    }

    /// Instantiate behind the guard-scoped pool trait. A
    /// `dyn GuardedPool<u64>` also implements [`ConcurrentPool`] (blanket
    /// pin-per-op wrapper), so the one box serves both call paths.
    pub fn make(&self) -> Box<dyn GuardedPool<u64>> {
        match self {
            PoolKind::TwoLockQueue => Box::new(TwoLockQueue::new()),
            PoolKind::LockedStack => Box::new(LockedStack::new()),
            PoolKind::MsQueue => Box::new(MsQueue::new()),
            PoolKind::TreiberStack => Box::new(TreiberStack::new()),
        }
    }
}

/// Configuration of one queue/stack run (paper §7: 50 % push / 50 % pop,
/// 1024 prefilled nodes).
#[derive(Clone, Debug)]
pub struct PoolRunConfig {
    /// Structure under test.
    pub kind: PoolKind,
    /// Prefilled node count.
    pub prefill: usize,
    /// Worker thread count.
    pub threads: usize,
    /// Measurement window.
    pub duration: Duration,
    /// Base seed.
    pub seed: u64,
}

impl PoolRunConfig {
    /// Execute one timed run of this pool (queue/stack) workload (one
    /// [`PoolHandle`] per worker thread).
    pub fn run(&self) -> RunResult {
        let pool = self.kind.make();
        for i in 0..self.prefill {
            pool.push(i as u64);
        }
        run_timed(self.threads, Stop::After(self.duration), |t| {
            let mut rng = FastRng::new(thread_seed(self.seed, t));
            let mut handle = PoolHandle::new(&*pool);
            move || {
                if rng.bounded(2) == 0 {
                    let n = handle.ops();
                    handle.push(n);
                } else {
                    black_box(handle.pop());
                }
                csds_metrics::op_boundary();
            }
        })
    }
}

/// A [`run_timed`] per-thread closure issuing `mix` over priorities in
/// `[0, key_range)` through one [`PqHandle`] session on `pq` (with
/// `op_boundary` after every operation).
pub fn pq_worker<'a, Q: GuardedPq<u64> + ?Sized>(
    pq: &'a Q,
    mix: PqOpMix,
    key_range: u64,
    seed: u64,
) -> impl FnMut() + 'a {
    let mut rng = FastRng::new(seed);
    let mut handle = PqHandle::new(pq);
    move || {
        match mix.sample(&mut rng) {
            PqOp::Push => {
                black_box(handle.push(rng.bounded(key_range), 0));
            }
            PqOp::PopMin => {
                black_box(handle.pop_min().map(|(k, _)| k));
            }
            PqOp::PeekMin => {
                black_box(handle.peek_min().map(|(k, _)| k));
            }
        }
        csds_metrics::op_boundary();
    }
}

/// Prefill `pq` to `size` distinct priorities drawn uniformly from the range.
pub fn prefill_pq(pq: &(impl ConcurrentPq<u64> + ?Sized), size: usize, key_range: u64, seed: u64) {
    let mut rng = FastRng::new(seed | 1);
    let mut n = 0;
    while n < size {
        if pq.push(rng.bounded(key_range), 0) {
            n += 1;
        }
    }
}

/// Run `reps` repetitions and average (the paper averages 11 runs).
pub fn run_map_avg(cfg: &MapRunConfig, reps: usize) -> RunResult {
    let results: Vec<RunResult> = (0..reps)
        .map(|i| {
            let mut c = cfg.clone();
            c.seed = cfg.seed.wrapping_add(i as u64 * 0x1234_5678);
            c.run()
        })
        .collect();
    RunResult::merge_reps(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::PqKind;

    fn quick_cfg(algo: AlgoKind) -> MapRunConfig {
        MapRunConfig::paper_default(algo, 128, 10, 3, Duration::from_millis(60))
    }

    #[test]
    fn run_produces_operations_for_every_algo_family() {
        for algo in [
            AlgoKind::LazyList,
            AlgoKind::HerlihySkipList,
            AlgoKind::LazyHashTable,
            AlgoKind::BstTk,
        ] {
            let r = quick_cfg(algo).run();
            assert!(
                r.total_ops > 100,
                "{}: only {} ops",
                algo.name(),
                r.total_ops
            );
            assert_eq!(r.per_thread_ops.len(), 3);
            assert_eq!(r.stats.ops, r.total_ops, "{}", algo.name());
        }
    }

    #[test]
    fn prefill_reaches_target_size() {
        let map = AlgoKind::HarrisList.make(256);
        prefill(map.as_ref(), 100, 256, 42);
        assert_eq!(map.len(), 100);
    }

    #[test]
    fn size_stays_stationary() {
        // Equal insert/remove rates over 2× key range keep size ~stable.
        let cfg = MapRunConfig::paper_default(
            AlgoKind::LazyHashTable,
            256,
            50,
            4,
            Duration::from_millis(150),
        );
        let map = cfg.algo.make(cfg.key_range as usize);
        prefill(map.as_ref(), cfg.size, cfg.key_range, 7);
        // Mini-run against the same map, so its final size can be read.
        run_timed(cfg.threads, Stop::After(cfg.duration), |t| {
            let mut rng = FastRng::new(t as u64 + 1);
            let (map, range) = (&*map, cfg.key_range);
            move || {
                let k = rng.bounded(range);
                if rng.bounded(2) == 0 {
                    map.insert(k, k);
                } else {
                    map.remove(k);
                }
            }
        });
        let len = map.len();
        assert!(
            (len as i64 - cfg.size as i64).unsigned_abs() < cfg.size as u64 / 2,
            "size drifted to {len} (target {})",
            cfg.size
        );
    }

    #[test]
    fn pool_run_smoke() {
        let r = PoolRunConfig {
            kind: PoolKind::TwoLockQueue,
            prefill: 64,
            threads: 3,
            duration: Duration::from_millis(60),
            seed: 1,
        }
        .run();
        assert!(r.total_ops > 100);
        assert!(r.wait_fraction() >= 0.0);
    }

    #[test]
    fn pq_run_smoke() {
        const KEY_RANGE: u64 = 1 << 20;
        for kind in PqKind::all() {
            let pq = kind.make();
            prefill_pq(&*pq, 256, KEY_RANGE, 1);
            let r = run_timed(3, Stop::After(Duration::from_millis(60)), |t| {
                pq_worker(&*pq, PqOpMix::mixed(), KEY_RANGE, thread_seed(1, t))
            });
            assert!(r.total_ops > 100, "{}: {} ops", kind.name(), r.total_ops);
            assert!(
                r.stats.pq_pops > 0 && r.stats.pq_pushes > 0,
                "{}: pq counters silent",
                kind.name()
            );
        }
    }

    #[test]
    fn merge_reps_averages() {
        let mk = |ops: u64| RunResult {
            total_ops: ops,
            per_thread_ops: vec![ops],
            stats: StatsSnapshot::default(),
            threads: 1,
            elapsed: Duration::from_millis(100),
        };
        let m = RunResult::merge_reps(vec![mk(100), mk(300)]);
        assert_eq!(m.total_ops, 200);
        assert_eq!(m.elapsed, Duration::from_millis(100));
    }

    #[test]
    fn delay_injection_is_observed() {
        let mut cfg = quick_cfg(AlgoKind::LazyList);
        cfg.update_pct = 50;
        cfg.delay = Some(DelayPolicy {
            every: 5,
            min_ns: 1_000,
            max_ns: 5_000,
            seed: 3,
        });
        let r = cfg.run();
        assert!(r.stats.injected_delays > 0, "delay hook never fired");
    }
}
