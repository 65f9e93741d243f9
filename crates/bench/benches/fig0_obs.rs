//! **fig0_obs** — cost of the observability layer, A/B-measured between two
//! builds of the same binary:
//!
//! * **on** (default features): the production configuration — thread-local
//!   counters, the periodic seqlock registry publication inside
//!   `op_boundary` (one mask check per op, a slot write every 1024th), and
//!   the tracing check (tracing itself stays disarmed, as in production);
//! * **off** (`--features metrics-off`): every `csds_metrics` recording
//!   call compiles to a no-op, so the measured gap is the *entire* layer.
//!
//! Run both arms and compare:
//!
//! ```text
//! cargo bench -p csds_bench --bench fig0_obs
//! cargo bench -p csds_bench --bench fig0_obs --features metrics-off
//! ```
//!
//! Bench ids carry the arm (`…_on` / `…_off`) so criterion keeps separate
//! baselines. The measured loop is the harness hot path: one `MapHandle`
//! per worker, `op_boundary` after every operation. Axes: lazy-ht pure
//! reads (the ISSUE's ≤5 % budget) and the hot-key counter RMW, each
//! single-threaded and contended.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use csds_bench::{tune, BenchMap};
use csds_core::{GuardedMap, MapHandle};
use csds_harness::{run_timed, AlgoKind, Stop};
use csds_workload::FastRng;

/// Which A/B arm this binary was compiled as.
const MODE: &str = if cfg!(feature = "metrics-off") {
    "off"
} else {
    "on"
};

const SIZE: usize = 1024;
const HOT_KEYS: u64 = 64;

fn prefilled() -> BenchMap {
    BenchMap::new(AlgoKind::LazyHashTable, SIZE)
}

/// One observability-instrumented operation: the map op plus the
/// `op_boundary` the harness runner issues after every operation (that is
/// where the registry publication cadence lives).
#[inline]
fn one_op(h: &mut MapHandle<'_, u64, dyn GuardedMap<u64>>, rng: &mut FastRng, update_pct: u32) {
    let r = rng.next_u64();
    if (r % 100) < update_pct as u64 {
        let key = r % HOT_KEYS;
        black_box(h.rmw(key, &mut |cur| {
            Some(cur.copied().unwrap_or(0).wrapping_add(1))
        }));
    } else {
        let key = r % (SIZE as u64 * 2);
        black_box(h.get(key));
    }
    csds_metrics::op_boundary();
}

/// Split `total` instrumented ops across `threads`; returns the wall time
/// of the whole fan-out (criterion `iter_custom` contract).
fn run_threads(map: &BenchMap, threads: usize, total: u64, update_pct: u32) -> Duration {
    run_timed(threads, Stop::Ops(total), |t| {
        let mut rng = FastRng::new(0x5EED ^ (t as u64 + 1).wrapping_mul(0x9E3779B9));
        let mut h = MapHandle::new(map.map());
        move || one_op(&mut h, &mut rng, update_pct)
    })
    .elapsed
}

fn obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig0_obs");
    tune(&mut g);

    g.bench_function(format!("lazy_ht_read_t1_{MODE}"), |b| {
        let map = prefilled();
        let mut h = MapHandle::new(map.map());
        let mut rng = FastRng::new(0x5EED);
        b.iter(|| one_op(&mut h, &mut rng, 0));
    });

    g.bench_function(format!("lazy_ht_rmw_t1_{MODE}"), |b| {
        let map = prefilled();
        let mut h = MapHandle::new(map.map());
        let mut rng = FastRng::new(0x5EED);
        b.iter(|| one_op(&mut h, &mut rng, 100));
    });

    g.bench_function(format!("lazy_ht_read_t4_{MODE}"), |b| {
        let map = prefilled();
        b.iter_custom(|iters| run_threads(&map, 4, iters, 0));
    });

    g.bench_function(format!("lazy_ht_rmw_t4_{MODE}"), |b| {
        let map = prefilled();
        b.iter_custom(|iters| run_threads(&map, 4, iters, 100));
    });

    g.finish();
}

criterion_group!(benches, obs_overhead);
criterion_main!(benches);
