//! Latency audit: decide *for your workload* whether a blocking structure
//! is practically wait-free — the decision procedure the paper hands to
//! practitioners ("practitioners, which often have some knowledge about
//! their workloads, can use our work to decide when blocking
//! implementations are sufficient", §1).
//!
//! Runs a structure across increasingly hostile configurations and prints
//! a verdict per configuration based on the paper's thresholds (waits and
//! repeated restarts below 1%) — and drives the observability layer end to
//! end while doing it:
//!
//! * a **live observer thread** polls the process-wide seqlock metrics
//!   registry and the EBR health probe between configurations (the same
//!   feed `repro watch` renders), proving the audited numbers can be read
//!   *during* a run, not only from the post-run report;
//! * **event tracing** is armed for the audit and the merged timeline is
//!   exported as chrome://tracing JSON at exit.
//!
//! ```text
//! cargo run --release --example latency_audit \
//!     [list|skiplist|hashtable|bst] [--trace FILE]
//! ```

use csds::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use csds::harness::{AlgoKind, MapRunConfig};
use csds::metrics::{registry, trace};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "list".to_string());
    let trace_out = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            std::env::temp_dir()
                .join("latency_audit_trace.json")
                .display()
                .to_string()
        });
    let algo = match which.as_str() {
        "list" => AlgoKind::LazyList,
        "skiplist" => AlgoKind::HerlihySkipList,
        "hashtable" => AlgoKind::LazyHashTable,
        "bst" => AlgoKind::BstTk,
        other => {
            eprintln!("unknown structure '{other}' (use list|skiplist|hashtable|bst)");
            std::process::exit(2);
        }
    };
    println!("auditing {} for practical wait-freedom\n", algo.name());

    // Live observer: everything it prints comes from validated seqlock
    // reads of the registry and the EBR gauges — it never touches (or
    // perturbs) a worker thread.
    trace::set_tracing(true);
    let stop = Arc::new(AtomicBool::new(false));
    let observer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let reg = registry::global();
            let mut last_ops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(500));
                let agg = reg.aggregate();
                let health = csds::ebr::health();
                println!(
                    "  [live] ops {:>10} (+{:>8}) | threads {:>2} | epoch {:>5} | \
                     garbage {:>6} items | contended locks {:>6} | restarts {:>6}",
                    agg.ops,
                    agg.ops.saturating_sub(last_ops),
                    reg.active_threads(),
                    health.global_epoch,
                    health.garbage_items,
                    agg.contended_acquires,
                    agg.restarts,
                );
                last_ops = agg.ops;
            }
        })
    };

    println!(
        "{:>6} {:>5} {:>8} | {:>12} {:>12} {:>12} | verdict",
        "size", "upd%", "threads", "wait frac", "restart frac", "restart>3"
    );

    for (size, update_pct, threads) in [
        (8192usize, 1u32, 8usize), // comfortable: big structure, few updates
        (2048, 10, 16),            // the paper's default neighborhood
        (512, 25, 32),             // contended
        (64, 50, 32),              // hostile
        (16, 50, 32),              // the paper's own counterexample (sec. 5.3)
    ] {
        let cfg = MapRunConfig::paper_default(
            algo,
            size,
            update_pct,
            threads,
            Duration::from_millis(300),
        );
        let r = cfg.run();
        let wait = r.wait_fraction();
        let restart = r.restart_fraction();
        let repeated = r.repeated_restart_fraction();
        // Paper-style SLA: <1% of time waiting and <1% of requests
        // repeatedly delayed.
        let verdict = if wait < 0.01 && repeated < 0.01 {
            "practically wait-free"
        } else if wait < 0.10 && repeated < 0.05 {
            "borderline"
        } else {
            "NOT practically wait-free"
        };
        println!(
            "{:>6} {:>5} {:>8} | {:>11.4}% {:>11.4}% {:>11.4}% | {}",
            size,
            update_pct,
            threads,
            100.0 * wait,
            100.0 * restart,
            100.0 * repeated,
            verdict
        );
    }
    stop.store(true, Ordering::Relaxed);
    observer.join().expect("observer thread panicked");

    // Export the audit's event timeline (epoch advances, collections,
    // optimistic fallbacks under the hostile configurations, …).
    trace::set_tracing(false);
    let traces = trace::drain_all();
    let events: usize = traces.iter().map(|t| t.events.len()).sum();
    std::fs::write(&trace_out, trace::chrome_trace_json(&traces))
        .unwrap_or_else(|e| panic!("writing {trace_out}: {e}"));
    println!(
        "\ntrace: {events} events from {} threads -> {trace_out} \
         (load via chrome://tracing or ui.perfetto.dev)",
        traces.len()
    );

    println!(
        "paper sec. 5.3: only tiny structures under extreme update pressure break\n\
         the practical-wait-freedom envelope; everything realistic passes"
    );
}
