//! The per-thread session every handle kind is built on: one reusable
//! [`Guard`], repinned before each operation, with operation and
//! repin-stall accounting.
//!
//! `csds_core::MapHandle`, `csds_core::PoolHandle` and `csds_pq::PqHandle`
//! each own exactly one [`Session`]; the discipline (and its diagnostics)
//! is defined here once so the handle kinds cannot drift apart.

use crate::{pin, Guard};

/// After this many *consecutive* operations whose [`Guard::repin`] was
/// inert (another guard live on the same thread), a handle concludes the
/// thread is holding two long-lived sessions — which stalls epoch
/// reclamation process-wide. In **all** builds every threshold crossing
/// records a `repin_stalls` metric tick and a `RepinStall` trace event
/// (visible in `repro watch` / `repro trace`); debug builds additionally
/// print a diagnostic to stderr (once per stall run: an effective repin
/// resets the counter and a fresh stall warns again).
/// [`Session::stalled_ops`] exposes the counter in all builds.
pub const REPIN_STALL_WARN_THRESHOLD: u64 = 1024;

/// The state shared by every handle kind: one reusable guard plus
/// operation and stall accounting.
///
/// **At most one long-lived session per thread.** [`Guard::repin`] is a
/// no-op while other guards are live on the same thread, so a thread
/// holding two sessions stays pinned at the epoch of the oldest one and
/// blocks reclamation for the whole process until one of them drops.
/// Everything remains *correct*; only epoch turnover stops — and the
/// session reports it (see [`REPIN_STALL_WARN_THRESHOLD`]).
pub struct Session {
    guard: Guard,
    ops: u64,
    stalled: u64,
    kind: &'static str,
}

impl Session {
    /// Pin the current thread and open a session; `kind` names the owning
    /// handle type in the debug-build stall diagnostic.
    pub fn new(kind: &'static str) -> Self {
        Session {
            guard: pin(),
            ops: 0,
            stalled: 0,
            kind,
        }
    }

    /// Start one operation: repin (maintaining the stall run), count it,
    /// and hand out the guard to run it under.
    #[inline]
    pub fn op(&mut self) -> &Guard {
        self.refresh();
        self.ops += 1;
        &self.guard
    }

    /// Repin without counting an operation; returns whether the repin was
    /// effective. An inert repin extends the stall run, an effective one
    /// resets it.
    #[inline]
    pub fn refresh(&mut self) -> bool {
        let effective = self.guard.repin();
        if effective {
            self.stalled = 0;
        } else {
            self.stalled += 1;
            // Every threshold crossing is a first-class observability signal
            // in all builds: a `repin_stalls` counter tick plus a `RepinStall`
            // trace event carrying the run length. Fires at every multiple so
            // a sustained stall keeps showing up in `repro watch` aggregates,
            // not just once.
            if self.stalled % REPIN_STALL_WARN_THRESHOLD == 0 {
                csds_metrics::repin_stall(self.stalled);
            }
            #[cfg(debug_assertions)]
            if self.stalled == REPIN_STALL_WARN_THRESHOLD {
                eprintln!(
                    "csds: a {} has performed {REPIN_STALL_WARN_THRESHOLD} \
                     consecutive repins without effect — another guard or handle is \
                     live on this thread, so epoch reclamation is stalled \
                     process-wide until one of them drops (hold at most one \
                     long-lived handle per thread)",
                    self.kind
                );
            }
        }
        effective
    }

    /// The session guard, without repinning.
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// Operations started through [`op`](Session::op).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Current run of consecutive inert repins (`0` in the healthy
    /// single-session configuration).
    pub fn stalled_ops(&self) -> u64 {
        self.stalled
    }

    /// The owning handle kind passed to [`new`](Session::new).
    pub fn kind(&self) -> &'static str {
        self.kind
    }
}
