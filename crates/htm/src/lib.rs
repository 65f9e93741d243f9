//! Software emulation of best-effort hardware transactional memory, used for
//! **lock elision** exactly as the paper uses Intel TSX (§5.4).
//!
//! # What the paper did, and what we substitute
//!
//! The paper wraps the short write-phase critical sections of blocking CSDSs
//! in hardware transactions, so that a thread that is context-switched away
//! mid-critical-section *holds no lock* — the transaction simply aborts
//! (TSX aborts on interrupts). After a bounded number of speculative retries
//! the section falls back to actually acquiring the locks.
//!
//! We do not have TSX (nor would a portable Rust library want to depend on
//! it), so this crate emulates it with a **NOrec-style software transaction**
//! (Dalessandro, Spear & Scott, PPoPP'10):
//!
//! * each structure owns a [`TxRegion`] with a single global *sequence lock*
//!   (even = quiescent, odd = a commit or fallback section in progress);
//! * a speculative section ([`Tx`]) performs its reads through
//!   [`Tx::read`], recording `(location, value)` pairs, and buffers its
//!   writes via [`Tx::write`] — shared memory is untouched until commit;
//! * [`Tx::commit`] acquires the sequence lock, **value-validates** the read
//!   set, applies the write set, and releases. A failed validation is a
//!   data-conflict abort;
//! * *abort-on-interrupt* is emulated: a transaction that observes it has
//!   been running longer than a scheduling quantum (it was descheduled
//!   mid-flight), or that an injected preemption tick fired, aborts with
//!   [`TxAbort::Interrupted`] instead of committing;
//! * the lock-based fallback path takes [`TxRegion::enter_fallback`], which
//!   holds the sequence lock, **after** the structure's locks and **before**
//!   it validates, and holds it through its last store. Speculators never
//!   read the structure's lock words (the emulation has no equivalent of a
//!   TSX transaction subscribing to them), so a fallback that validated
//!   first could be overtaken by a commit between its validation and its
//!   stores: two removers would then both unlink and retire one node.
//!   Structures therefore have one write phase for both modes; in elision
//!   mode it is the fallback, and only the region guard is extra.
//!
//! This preserves every property the paper's experiments rely on:
//! descheduled threads hold no locks, conflicts abort speculation, retries
//! are bounded, and the fallback is pessimistic locking (Tables 2 and 3).

use csds_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use csds_sync::Backoff;

/// Why a speculative section failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxAbort {
    /// Read-set validation failed, or the sequence lock was persistently
    /// busy: another thread's write phase conflicted with ours.
    Conflict,
    /// The (emulated) scheduler interrupted the transaction: it overran the
    /// quantum or an injected preemption tick fired.
    Interrupted,
}

/// Per-structure transactional region: one sequence lock plus preemption
/// bookkeeping. Structures created in elided mode own exactly one.
pub struct TxRegion {
    /// Sequence lock: even = free; odd = commit/fallback in progress.
    seq: AtomicU64,
    /// Injected preemption ticks (see [`TxRegion::tick`]).
    preempt: AtomicU64,
    /// Transactions older than this are considered interrupted at commit.
    quantum: Duration,
}

impl Default for TxRegion {
    fn default() -> Self {
        Self::new()
    }
}

impl TxRegion {
    /// Default scheduling quantum used for abort-on-interrupt emulation.
    /// Critical sections in CSDSs are tens of nanoseconds; a transaction
    /// alive for 100 µs has almost certainly been descheduled.
    pub const DEFAULT_QUANTUM: Duration = Duration::from_micros(100);

    /// New region with the default quantum.
    pub fn new() -> Self {
        Self::with_quantum(Self::DEFAULT_QUANTUM)
    }

    /// New region with an explicit abort-on-interrupt quantum.
    pub fn with_quantum(quantum: Duration) -> Self {
        TxRegion {
            seq: AtomicU64::new(0),
            preempt: AtomicU64::new(0),
            quantum,
        }
    }

    /// Begin a speculative section. Returns `Err(Conflict)` if the region's
    /// sequence lock stays busy (a fallback writer is stalled inside it).
    pub fn begin<'r>(&'r self) -> Result<Tx<'r>, TxAbort> {
        csds_metrics::elide_attempt();
        let mut backoff = Backoff::new();
        let mut spins = 0u32;
        let snapshot = loop {
            let s = self.seq.load(Ordering::Acquire);
            if s & 1 == 0 {
                break s;
            }
            spins += 1;
            if spins > 256 {
                csds_metrics::elide_abort_conflict();
                return Err(TxAbort::Conflict);
            }
            backoff.snooze();
        };
        let tx = Tx {
            region: self,
            snapshot,
            tick: self.preempt.load(Ordering::Relaxed),
            start: Instant::now(),
            reads: Vec::with_capacity(8),
            writes: Vec::with_capacity(4),
        };
        // Injected lock-holder delays run *inside* the speculative section in
        // elided mode: the delayed thread holds no lock and will abort as
        // "interrupted", which is precisely the TSX behaviour the paper
        // leverages (§5.4).
        csds_metrics::maybe_delay_in_cs();
        Ok(tx)
    }

    /// Inject a preemption: every in-flight transaction in this region will
    /// abort with [`TxAbort::Interrupted`] at commit. The harness calls this
    /// from a scheduler-tick thread to emulate timer interrupts.
    pub fn tick(&self) {
        self.preempt.fetch_add(1, Ordering::Relaxed);
    }

    /// Enter the pessimistic fallback: acquires the sequence lock so that
    /// concurrent speculators either validate against the fallback's
    /// completed writes or abort. Call *after* taking the structure's real
    /// locks and *before* validating what they protect, and hold the guard
    /// through the section's last shared write: a commit cannot then land
    /// between the validation and the writes. Never wait for a structure
    /// lock while holding the guard.
    pub fn enter_fallback(&self) -> FallbackGuard<'_> {
        let mut backoff = Backoff::new();
        loop {
            let s = self.seq.load(Ordering::Relaxed);
            if s & 1 == 0
                && self
                    .seq
                    .compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return FallbackGuard {
                    region: self,
                    held: s + 1,
                };
            }
            backoff.snooze();
        }
    }

    /// Current sequence value (diagnostics/tests).
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

/// RAII guard for the pessimistic fallback path (sequence lock held).
pub struct FallbackGuard<'r> {
    region: &'r TxRegion,
    held: u64, // odd value we installed
}

impl Drop for FallbackGuard<'_> {
    fn drop(&mut self) {
        debug_assert_eq!(self.held & 1, 1);
        self.region.seq.store(self.held + 1, Ordering::Release);
    }
}

/// A speculative (buffered) transaction.
///
/// Reads and writes go through the transaction; shared memory is only
/// modified at [`Tx::commit`], after validation, so an aborted transaction
/// has no side effects — exactly like a hardware transaction.
pub struct Tx<'r> {
    region: &'r TxRegion,
    snapshot: u64,
    tick: u64,
    start: Instant,
    reads: Vec<(&'r AtomicUsize, usize)>,
    writes: Vec<(&'r AtomicUsize, usize)>,
}

impl<'r> Tx<'r> {
    /// Transactional read: returns the current value and adds the location
    /// to the read set (validated at commit).
    #[inline]
    pub fn read(&mut self, loc: &'r AtomicUsize) -> usize {
        // If we already wrote this location, read our own write.
        for (w, v) in self.writes.iter().rev() {
            if std::ptr::eq(*w, loc) {
                return *v;
            }
        }
        let v = loc.load(Ordering::Acquire);
        self.reads.push((loc, v));
        v
    }

    /// Transactional write: buffered until commit.
    #[inline]
    pub fn write(&mut self, loc: &'r AtomicUsize, value: usize) {
        for (w, v) in self.writes.iter_mut() {
            if std::ptr::eq(*w, loc) {
                *v = value;
                return;
            }
        }
        self.writes.push((loc, value));
    }

    fn interrupted(&self) -> bool {
        self.start.elapsed() > self.region.quantum
            || self.region.preempt.load(Ordering::Relaxed) != self.tick
    }

    /// Attempt to commit. On success the write set has been applied
    /// atomically with respect to every other commit and fallback section.
    pub fn commit(mut self) -> Result<(), TxAbort> {
        if self.interrupted() {
            csds_metrics::elide_abort_interrupt();
            return Err(TxAbort::Interrupted);
        }
        // Acquire the sequence lock, NOrec style: if the sequence moved since
        // our snapshot, revalidate values before retrying the acquisition.
        let mut attempts = 0u32;
        let held = loop {
            match self.region.seq.compare_exchange(
                self.snapshot,
                self.snapshot + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break self.snapshot + 1,
                Err(cur) => {
                    attempts += 1;
                    if attempts > 64 {
                        csds_metrics::elide_abort_conflict();
                        return Err(TxAbort::Conflict);
                    }
                    if cur & 1 == 1 {
                        // Commit/fallback in progress; brief wait.
                        std::hint::spin_loop();
                        continue;
                    }
                    // Someone committed since our snapshot: value-validate,
                    // then adopt the newer snapshot.
                    if !self.revalidate() {
                        csds_metrics::elide_abort_conflict();
                        return Err(TxAbort::Conflict);
                    }
                    if self.interrupted() {
                        csds_metrics::elide_abort_interrupt();
                        return Err(TxAbort::Interrupted);
                    }
                    self.snapshot = cur;
                }
            }
        };
        // We hold the sequence lock: no other commit or fallback write phase
        // can run. Final validation, then apply.
        if !self.revalidate() {
            self.region.seq.store(held + 1, Ordering::Release);
            csds_metrics::elide_abort_conflict();
            return Err(TxAbort::Conflict);
        }
        for (loc, v) in &self.writes {
            loc.store(*v, Ordering::Release);
        }
        self.region.seq.store(held + 1, Ordering::Release);
        csds_metrics::elide_commit();
        Ok(())
    }

    #[inline]
    fn revalidate(&self) -> bool {
        self.reads
            .iter()
            .all(|(loc, v)| loc.load(Ordering::Acquire) == *v)
    }
}

/// One step of a speculative body: commit with a result, or declare the
/// algorithm-level validation failed (the *operation* must re-parse — this
/// is a restart, not a transactional conflict).
pub enum SpecStep<R> {
    /// Validation passed; attempt to commit and return `R`.
    Commit(R),
    /// The parsed window is stale (node marked / link changed): restart op.
    Invalid,
}

/// Outcome of [`attempt_elision`].
pub enum Elided<R> {
    /// Speculation committed.
    Committed(R),
    /// Algorithm-level validation failed: the operation should restart from
    /// its parse phase.
    Invalid,
    /// Retries exhausted: the caller must run its locked write phase, which
    /// takes [`TxRegion::enter_fallback`] after its locks, before its
    /// validation, and holds it through its last store.
    FellBack,
}

/// Run `body` speculatively up to `retries` times (the paper §6.4 assumes
/// five attempts before reverting to locking). Counts metrics for Table 2.
pub fn attempt_elision<'r, R>(
    region: &'r TxRegion,
    retries: u32,
    mut body: impl FnMut(&mut Tx<'r>) -> SpecStep<R>,
) -> Elided<R> {
    for _ in 0..retries {
        let Ok(mut tx) = region.begin() else { continue };
        match body(&mut tx) {
            SpecStep::Invalid => return Elided::Invalid,
            SpecStep::Commit(r) => match tx.commit() {
                Ok(()) => return Elided::Committed(r),
                Err(_) => continue,
            },
        }
    }
    csds_metrics::elide_fallback();
    Elided::FellBack
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_write_commit_applies() {
        // A scheduling stall on a loaded CI host must not turn an
        // expected outcome into an Interrupted abort: disable the quantum.
        let region = TxRegion::with_quantum(Duration::from_secs(300));
        let cell = AtomicUsize::new(5);
        let mut tx = region.begin().unwrap();
        assert_eq!(tx.read(&cell), 5);
        tx.write(&cell, 9);
        assert_eq!(tx.read(&cell), 9, "read-own-write");
        assert_eq!(cell.load(Ordering::Relaxed), 5, "buffered until commit");
        tx.commit().unwrap();
        assert_eq!(cell.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn aborted_tx_has_no_side_effects() {
        // A scheduling stall on a loaded CI host must not turn an
        // expected outcome into an Interrupted abort: disable the quantum.
        let region = TxRegion::with_quantum(Duration::from_secs(300));
        let a = AtomicUsize::new(1);
        let mut tx = region.begin().unwrap();
        let _ = tx.read(&a);
        tx.write(&a, 99);
        // Conflict: someone changes `a` before we commit.
        a.store(2, Ordering::Relaxed);
        assert_eq!(tx.commit(), Err(TxAbort::Conflict));
        assert_eq!(a.load(Ordering::Relaxed), 2, "buffered write must not leak");
    }

    #[test]
    fn disjoint_concurrent_commits_succeed() {
        // A scheduling stall on a loaded CI host must not turn an
        // expected outcome into an Interrupted abort: disable the quantum.
        let region = TxRegion::with_quantum(Duration::from_secs(300));
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        let mut t1 = region.begin().unwrap();
        let _ = t1.read(&a);
        t1.write(&a, 1);
        let mut t2 = region.begin().unwrap();
        let _ = t2.read(&b);
        t2.write(&b, 2);
        // t2 commits first; t1's read set (only `a`) still validates.
        t2.commit().unwrap();
        t1.commit().unwrap();
        assert_eq!(a.load(Ordering::Relaxed), 1);
        assert_eq!(b.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn quantum_overrun_aborts_as_interrupt() {
        let region = TxRegion::with_quantum(Duration::from_millis(1));
        let a = AtomicUsize::new(0);
        let mut tx = region.begin().unwrap();
        tx.write(&a, 1);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(tx.commit(), Err(TxAbort::Interrupted));
        assert_eq!(a.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn preemption_tick_aborts_inflight() {
        // A scheduling stall on a loaded CI host must not turn an
        // expected outcome into an Interrupted abort: disable the quantum.
        let region = TxRegion::with_quantum(Duration::from_secs(300));
        let a = AtomicUsize::new(0);
        let mut tx = region.begin().unwrap();
        tx.write(&a, 1);
        region.tick();
        assert_eq!(tx.commit(), Err(TxAbort::Interrupted));
    }

    #[test]
    fn fallback_conflicts_with_speculation() {
        // A scheduling stall on a loaded CI host must not turn an
        // expected outcome into an Interrupted abort: disable the quantum.
        let region = TxRegion::with_quantum(Duration::from_secs(300));
        let a = AtomicUsize::new(0);
        let mut tx = region.begin().unwrap();
        let _ = tx.read(&a);
        tx.write(&a, 1);
        {
            let _fb = region.enter_fallback();
            a.store(7, Ordering::Release); // fallback write under seq lock
        }
        assert_eq!(tx.commit(), Err(TxAbort::Conflict));
        assert_eq!(a.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn attempt_elision_falls_back_after_retries() {
        let _ = csds_metrics::take_and_reset();
        // A scheduling stall on a loaded CI host must not turn an
        // expected outcome into an Interrupted abort: disable the quantum.
        let region = TxRegion::with_quantum(Duration::from_secs(300));
        let a = AtomicUsize::new(0);
        // A body that always loses: it reads `a`, then a "concurrent" write
        // invalidates it before commit.
        let out: Elided<()> = attempt_elision(&region, 5, |tx| {
            let v = tx.read(&a);
            a.store(v + 1, Ordering::Relaxed); // simulate a conflicting writer
            SpecStep::Commit(())
        });
        assert!(matches!(out, Elided::FellBack));
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.elide_attempts, 5);
        assert_eq!(snap.elide_fallbacks, 1);
        assert_eq!(snap.elide_aborts_conflict, 5);
    }

    #[test]
    fn attempt_elision_commits_and_counts() {
        let _ = csds_metrics::take_and_reset();
        // A scheduling stall on a loaded CI host must not turn an
        // expected outcome into an Interrupted abort: disable the quantum.
        let region = TxRegion::with_quantum(Duration::from_secs(300));
        let a = AtomicUsize::new(3);
        let out = attempt_elision(&region, 5, |tx| {
            let v = tx.read(&a);
            tx.write(&a, v * 2);
            SpecStep::Commit(v)
        });
        match out {
            Elided::Committed(v) => assert_eq!(v, 3),
            _ => panic!("expected commit"),
        }
        assert_eq!(a.load(Ordering::Relaxed), 6);
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.elide_commits, 1);
        assert_eq!(snap.elide_fallbacks, 0);
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        // 4 threads × 500 transactional increments on one counter: heavy
        // conflicts, but commits must serialize correctly.
        let region = Arc::new(TxRegion::with_quantum(Duration::from_secs(300)));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let region = Arc::clone(&region);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    loop {
                        match attempt_elision(&region, 5, |tx| {
                            let v = tx.read(&counter);
                            tx.write(&counter, v + 1);
                            SpecStep::Commit(())
                        }) {
                            Elided::Committed(()) => break,
                            Elided::Invalid => continue,
                            Elided::FellBack => {
                                // Pessimistic path: seq lock alone guards us.
                                let _fb = region.enter_fallback();
                                counter.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
    }
}
