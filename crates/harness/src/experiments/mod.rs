//! One function per paper artifact, plus the registry used by `repro`.
//!
//! Every experiment prints the same rows/series the paper reports; its
//! registry `description` names the paper figure or table it regenerates.

mod beyond;
mod coarse;
mod elision;
mod finegrained;
mod model;
mod service;

pub use beyond::fig10;
pub use coarse::{fig1, fig3, fig4};
pub use elision::{table2, table3};
pub use finegrained::{coupling, fig5, fig6, fig7, fig8, fig9, outliers};
pub use model::model;
pub use service::service;

use crate::Scale;

/// A registered experiment.
pub struct Experiment {
    /// Identifier used on the `repro` command line.
    pub id: &'static str,
    /// What paper artifact it regenerates.
    pub description: &'static str,
    /// Entry point.
    pub run: fn(Scale),
}

/// All experiments, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1",
            description: "Figs. 1-2: blocking vs lock-free vs wait-free list throughput (1024 elems, 10% updates), read-only traversal cost",
            run: fig1,
        },
        Experiment {
            id: "fig3",
            description: "Fig. 3: throughput scalability grid (4 structures x {512,2048,8192} x {1,10,50}% updates)",
            run: fig3,
        },
        Experiment {
            id: "fig4",
            description: "Fig. 4: per-thread throughput and standard deviation (fairness)",
            run: fig4,
        },
        Experiment {
            id: "fig5",
            description: "Fig. 5: fraction of time spent waiting for locks",
            run: fig5,
        },
        Experiment {
            id: "fig6",
            description: "Fig. 6: fraction of requests restarted",
            run: fig6,
        },
        Experiment {
            id: "outliers",
            description: "Sec. 5.1: per-request outliers (512-element list, 40 threads, 10% updates)",
            run: outliers,
        },
        Experiment {
            id: "coupling",
            description: "Sec. 5.1: lock-coupling list vs lazy list lock-wait time (1% updates)",
            run: coupling,
        },
        Experiment {
            id: "fig7",
            description: "Fig. 7: Zipfian (s=0.8) lock-wait and restart fractions",
            run: fig7,
        },
        Experiment {
            id: "fig8",
            description: "Fig. 8: extreme contention - metrics vs structure size (16..512, 40 threads, 25% updates)",
            run: fig8,
        },
        Experiment {
            id: "fig9",
            description: "Fig. 9: unresponsive threads - delays of 1-100us while holding locks",
            run: fig9,
        },
        Experiment {
            id: "table2",
            description: "Table 2: fraction of critical sections falling back from elision to locks",
            run: table2,
        },
        Experiment {
            id: "table3",
            description: "Table 3: throughput improvement of elided vs default under multiprogramming",
            run: table3,
        },
        Experiment {
            id: "fig10",
            description: "Fig. 10: queue/stack fraction of time waiting (approaches 1)",
            run: fig10,
        },
        Experiment {
            id: "model",
            description: "Sec. 6: birthday-paradox model - paper's numeric examples and model-vs-measured",
            run: model,
        },
        Experiment {
            id: "service",
            description: "Beyond the paper: service front-end throughput + p50/p99 latency (basic and compound mixes)",
            run: service,
        },
    ]
}

/// Look an experiment up by id.
pub fn find(id: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let reg = registry();
        let mut ids = std::collections::HashSet::new();
        for e in &reg {
            assert!(ids.insert(e.id), "duplicate experiment id {}", e.id);
        }
        assert!(find("fig3").is_some());
        assert!(find("service").is_some());
        assert!(find("nope").is_none());
        assert_eq!(reg.len(), 15);
    }
}
