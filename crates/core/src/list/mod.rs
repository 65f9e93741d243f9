//! Sorted linked-list implementations of the set/map abstraction.
//!
//! The four algorithms compared in the paper's Figure 1 and §5:
//!
//! * [`LazyList`] — the state-of-the-art **blocking** list (Heller et al.):
//!   wait-free reads, parse-then-lock updates, per-node test-and-set locks.
//! * [`CouplingList`] — the **naive blocking** hand-over-hand list used in
//!   §5.1 to show that practical wait-freedom is a property of
//!   state-of-the-art algorithms, not of locking per se.
//! * [`HarrisList`] — the **lock-free** list (Harris), mark bits in pointer
//!   tags.
//! * [`WaitFreeList`] — a **wait-free** list in the style of Timnat et al.:
//!   interposed versioned link objects (the node → concurrency-data → node
//!   layout of the paper's Figure 2) plus phase-based helping.

mod coupling;
mod harris;
mod lazy;
mod waitfree;

pub use coupling::CouplingList;
pub use harris::HarrisList;
pub use lazy::LazyList;
pub use waitfree::WaitFreeList;
