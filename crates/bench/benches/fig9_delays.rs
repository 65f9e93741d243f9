//! **Figure 9** — unresponsive threads. The same workload with and without
//! injected lock-holder delays (1–100 µs every 10th critical section).
//! Expected: the delayed configuration is slower in proportion to the
//! injected stall time, but the *victim* threads' waiting stays bounded
//! (`repro run fig9` prints the fractions).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use csds_harness::{AlgoKind, MapRunConfig};
use csds_metrics::DelayPolicy;

fn fig9(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_delayed_holders_2048elems_10pct");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(100));
    g.measurement_time(Duration::from_millis(500));
    for (label, delay) in [
        ("no_delays", None),
        ("delays_1_100us", Some(DelayPolicy::paper_unresponsive(7))),
    ] {
        g.bench_function(label, |b| {
            b.iter_custom(|iters| {
                // One iteration = one op; run a window sized to the request.
                let mut cfg = MapRunConfig::paper_default(
                    AlgoKind::LazyList,
                    2048,
                    10,
                    4,
                    Duration::from_millis(80),
                );
                cfg.delay = delay;
                let mut done = 0u64;
                let mut elapsed = Duration::ZERO;
                while done < iters {
                    let r = cfg.run();
                    done += r.total_ops.max(1);
                    elapsed += r.elapsed;
                }
                // Scale to the exact iteration count criterion asked for.
                elapsed.mul_f64(iters as f64 / done as f64)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, fig9);
criterion_main!(benches);
