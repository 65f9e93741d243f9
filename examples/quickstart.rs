//! Quickstart: build a blocking concurrent map, hammer it from several
//! threads, and read the fine-grained metrics that define *practical
//! wait-freedom*.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use std::time::Instant;

use csds::harness::apply_map_op;
use csds::prelude::*;
use csds::workload::{FastRng, KeyDist, KeySampler, OpMix};

fn main() {
    const THREADS: usize = 4;
    const OPS_PER_THREAD: u64 = 200_000;
    const SIZE: u64 = 1024;

    // The paper's best blocking list: lazy list (wait-free reads,
    // lock-only-the-neighborhood updates).
    let map: Arc<LazyList<u64>> = Arc::new(LazyList::new());
    for k in 0..SIZE {
        map.insert(k * 2, k); // fill every other key: ~size elements
    }
    println!("prefilled lazy list with {} elements", map.len());

    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let map = Arc::clone(&map);
        handles.push(std::thread::spawn(move || {
            let sampler = KeySampler::new(KeyDist::Uniform, SIZE * 2);
            let mix = OpMix::updates(10); // 10% updates, half insert/remove
            let mut rng = FastRng::new(t as u64 + 1);
            let _ = csds::metrics::take_and_reset();
            // One MapHandle per worker: the session pins once and reuses
            // its guard across all operations (fence-free repin), and
            // reads return references instead of clones.
            let mut session = map.handle();
            for _ in 0..OPS_PER_THREAD {
                let key = sampler.sample(&mut rng);
                apply_map_op(&mut session, mix.sample(&mut rng), key);
                csds::metrics::op_boundary();
            }
            drop(session); // unpin before the thread idles
            csds::metrics::take_and_reset()
        }));
    }

    let mut merged = csds::metrics::StatsSnapshot::default();
    for h in handles {
        merged.merge(&h.join().unwrap());
    }
    let elapsed = start.elapsed();
    let total_ops = THREADS as u64 * OPS_PER_THREAD;

    println!(
        "{} ops across {} threads in {:?} = {:.2} Mops/s",
        total_ops,
        THREADS,
        elapsed,
        total_ops as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!(
        "practical wait-freedom check: {:.4}% of ops restarted, {:.4}% waited for a lock, max wait {} ns",
        100.0 * merged.restart_fraction(),
        100.0 * merged.ops_waited as f64 / merged.ops.max(1) as f64,
        merged.max_wait_ns
    );
    println!("final size: {}", map.len());
}
