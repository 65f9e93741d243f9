//! Benchmark harness reproducing every table and figure of
//! *"Concurrent Search Data Structures Can Be Blocking and Practically
//! Wait-Free"* (David & Guerraoui, SPAA 2016).
//!
//! Structure:
//! * [`factory`] — every algorithm in the library behind one enum;
//! * [`runner`] — the measurement loop: prefill, barrier start, timed run,
//!   per-thread metric collection (throughput, lock-wait time, restarts,
//!   elision statistics, per-request outliers);
//! * [`experiments`] — one function per paper artifact (`fig1`, `fig3` …
//!   `table2`, `table3`, `fig10`, plus the §5.1 outlier study, the §5.1
//!   lock-coupling comparison and the §6 model validation);
//! * [`report`] — fixed-width table rendering shared by all experiments.
//!
//! * [`trajectory`] — the `repro bench [--json]` matrix: a fixed set of
//!   runs re-recorded every PR (committed as `BENCH_<pr>.json`) so the
//!   repo carries its own performance history.
//!
//! * [`obs`] — the observability layer's harness face: `repro watch`
//!   (live dashboard over the seqlock metrics registry and the EBR health
//!   probe) and `repro trace` (guided tour emitting a chrome://tracing
//!   JSON timeline that covers every wired event kind).
//!
//! The `repro` binary exposes all of it:
//! ```text
//! repro list
//! repro run fig3 [--full]
//! repro all [--full]
//! repro bench [--json] [--out FILE] [--full|--smoke]
//! repro watch [--secs N] [--threads N] [--prom]
//! repro trace [--out FILE]
//! ```

pub mod experiments;
pub mod factory;
pub mod obs;
pub mod report;
pub mod runner;
pub mod trajectory;

pub use factory::{AlgoKind, Family, PqKind};
pub use runner::{
    apply_map_op, map_worker, pq_worker, prefill, prefill_pq, run_map_avg, run_timed, service_op,
    thread_seed, MapRunConfig, PoolKind, PoolRunConfig, PqRunConfig, RunResult, Stop,
};

use std::time::Duration;

/// Experiment scale: `quick` (CI-sized, the default) or `full`
/// (paper-sized durations and repetition counts).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// True for the abbreviated configuration.
    pub quick: bool,
}

impl Scale {
    /// Measurement window per data point (paper: 5 s × 11 repetitions).
    pub fn duration(&self) -> Duration {
        if self.quick {
            Duration::from_millis(200)
        } else {
            Duration::from_secs(2)
        }
    }

    /// Repetitions averaged per data point.
    pub fn reps(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// Thread counts for scalability curves (paper: 1..=40).
    pub fn thread_curve(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 2, 4, 8, 16, 32, 40]
        } else {
            vec![1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40]
        }
    }

    /// The paper's default concurrency where a fixed count is used.
    pub fn default_threads(&self) -> usize {
        20
    }
}
