//! This crate's own atomic seam (plus deliberately unshimmed telemetry
//! state).
//!
//! `csds_sync::atomic` is the workspace-wide seam, but `csds_metrics` sits
//! *below* `csds_sync` in the dependency graph (the sync primitives report
//! into this crate), so the registry's seqlock publication protocol cannot
//! import the usual seam without a cycle. This module mirrors it at the
//! scale this crate needs: a pass-through re-export of the `std` types
//! normally, the `csds_modelcheck` shims under the `modelcheck` feature —
//! which is what lets `crates/modelcheck/tests/metrics_registry.rs` run the
//! *production* [`crate::registry::SeqSlot`] protocol under the exhaustive
//! interleaving checker. `csds_modelcheck` is dependency-free, so the
//! optional dependency is legal.
//!
//! The [`plain`] submodule is the opposite of the seam: telemetry-only state
//! (the tracing on/off flag, trace thread-id assignment, global garbage
//! gauges) re-exported straight from `std` and *never* shimmed. None of it
//! is protocol state — no correctness property depends on its ordering —
//! and routing it through the shims would add a scheduling point to every
//! instrumented operation inside every model, bloating budgets for zero
//! coverage. This file is allowlisted by `tests/atomic_seam_lint.rs`.

#[cfg(not(feature = "modelcheck"))]
mod imp {
    pub use std::sync::atomic::{fence, AtomicBool, AtomicU64};
}

#[cfg(feature = "modelcheck")]
mod imp {
    pub use csds_modelcheck::{fence, AtomicBool, AtomicU64};
}

pub use imp::*;
pub use std::sync::atomic::Ordering;

/// Unshimmed telemetry state — see the module docs for why these bypass the
/// seam on purpose.
pub mod plain {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
}
