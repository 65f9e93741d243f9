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
//! it), so this crate emulates it with a software transaction that commits
//! through the structure's own lock words, as PathCAS does (Brown, Sigouin
//! & Alistarh): a TSX transaction conflicts only with operations on the
//! same lock words, and so does this one.
//!
//! * a speculative section ([`Tx`]) performs its reads through
//!   [`Tx::read`], recording `(location, value)` pairs, buffers its writes
//!   via [`Tx::write`] — shared memory is untouched until commit — and names
//!   the locks its write phase would take ([`Tx::lock`],
//!   [`Tx::lock_version`], [`Tx::retire_version`]). It holds none of them;
//! * [`Tx::commit`] try-locks the named locks, **value-validates** the read
//!   set, applies the write set and releases the locks. A held lock or a
//!   changed value is a data-conflict abort; commit never waits;
//! * *abort-on-interrupt* is emulated: a transaction that observes at commit
//!   that it has been running longer than a scheduling quantum (it was
//!   descheduled mid-flight) aborts with [`TxAbort::Interrupted`];
//! * the fallback, once the retries are spent, is the structure's plain
//!   locked write phase, the same code as in lock mode.
//!
//! **The one rule.** A commit's lock set equals the lock set of the
//! structure's locked write phase for the same write, so every location a
//! commit writes is guarded by a lock it holds: a commit and a locked write
//! phase exclude each other exactly as two locked write phases do, and two
//! commits on disjoint locks both go through.
//!
//! This preserves every property the paper's experiments rely on:
//! descheduled threads hold no locks, conflicts abort speculation, retries
//! are bounded, and the fallback is pessimistic locking (Tables 2 and 3).

use csds_sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use csds_sync::{OptikLock, RawMutex};

/// Why a speculative section failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxAbort {
    /// A named lock was held at commit, or read-set validation failed:
    /// another thread's write phase conflicted with ours.
    Conflict,
    /// The (emulated) scheduler interrupted the transaction: it overran the
    /// quantum.
    Interrupted,
}

/// Per-structure transactional region: the abort-on-interrupt quantum.
/// Structures created in elided mode own exactly one; it holds no shared
/// state, since commits synchronize on the structure's own locks.
pub struct TxRegion {
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
        TxRegion { quantum }
    }

    /// Begin a speculative section.
    pub fn begin<'r>(&'r self) -> Tx<'r> {
        csds_metrics::elide_attempt();
        let tx = Tx {
            region: self,
            start: Instant::now(),
            locks: Vec::with_capacity(4),
            reads: Vec::with_capacity(8),
            writes: Vec::with_capacity(4),
        };
        // Injected lock-holder delays run *inside* the speculative section in
        // elided mode: the delayed thread holds no lock and will abort as
        // "interrupted", which is precisely the TSX behaviour the paper
        // leverages (§5.4).
        csds_metrics::maybe_delay_in_cs();
        tx
    }
}

/// A lock a transaction names, taken only inside [`Tx::commit`].
enum Named<'r> {
    /// Taken with `try_acquire`, released with `unlock`.
    Plain(&'r dyn RawMutex),
    /// An OPTIK lock taken only at the version `seen`; with `retire` it
    /// stays held for good after a successful commit.
    Version {
        lock: &'r OptikLock,
        seen: u64,
        retire: bool,
    },
}

impl Named<'_> {
    fn addr(&self) -> *const () {
        match self {
            Named::Plain(l) => *l as *const dyn RawMutex as *const (),
            Named::Version { lock, .. } => *lock as *const OptikLock as *const (),
        }
    }

    fn try_take(&self) -> bool {
        match self {
            Named::Plain(l) => l.try_acquire(),
            Named::Version { lock, seen, .. } => lock.try_lock_at(*seen),
        }
    }

    fn release(&self) {
        match self {
            Named::Plain(l) => l.unlock(),
            Named::Version { lock, .. } => lock.unlock(),
        }
    }
}

/// A speculative (buffered) transaction.
///
/// Reads and writes go through the transaction; shared memory is only
/// modified at [`Tx::commit`], under the named locks and after validation,
/// so an aborted transaction has no side effects — exactly like a hardware
/// transaction.
pub struct Tx<'r> {
    region: &'r TxRegion,
    start: Instant,
    locks: Vec<Named<'r>>,
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

    /// Name one of the write phase's locks: [`commit`](Self::commit)
    /// try-locks it and releases it. Naming a lock twice names it once.
    #[inline]
    pub fn lock<L: RawMutex>(&mut self, lock: &'r L) {
        self.name(Named::Plain(lock));
    }

    /// Name an OPTIK lock that [`commit`](Self::commit) takes only at the
    /// version `seen` its parse observed, as `try_lock_version` does, and
    /// releases. Returns whether the lock reads `seen` now: `false` means
    /// the neighbourhood moved, or is being written, since the parse.
    #[inline]
    pub fn lock_version(&mut self, lock: &'r OptikLock, seen: u64) -> bool {
        self.name_version(lock, seen, false)
    }

    /// [`lock_version`](Self::lock_version) for a node the write unlinks: a
    /// successful commit leaves the lock held for good, as
    /// `LockGuard::retire` does.
    #[inline]
    pub fn retire_version(&mut self, lock: &'r OptikLock, seen: u64) -> bool {
        self.name_version(lock, seen, true)
    }

    fn name_version(&mut self, lock: &'r OptikLock, seen: u64, retire: bool) -> bool {
        self.name(Named::Version { lock, seen, retire });
        !OptikLock::version_is_locked(seen) && lock.version() == seen
    }

    fn name(&mut self, lock: Named<'r>) {
        if !self.locks.iter().any(|l| l.addr() == lock.addr()) {
            self.locks.push(lock);
        }
    }

    fn interrupted(&self) -> bool {
        self.start.elapsed() > self.region.quantum
    }

    /// Attempt to commit: try-lock the named locks, validate the read set,
    /// apply the write set and release the locks. On success the writes
    /// took effect under every named lock; on an abort nothing was written
    /// and no lock is held.
    pub fn commit(self) -> Result<(), TxAbort> {
        if self.interrupted() {
            csds_metrics::elide_abort_interrupt();
            return Err(TxAbort::Interrupted);
        }
        let taken = self.locks.iter().take_while(|l| l.try_take()).count();
        if taken < self.locks.len() || !self.validate() {
            self.locks[..taken].iter().for_each(Named::release);
            csds_metrics::elide_abort_conflict();
            return Err(TxAbort::Conflict);
        }
        for (loc, v) in &self.writes {
            loc.store(*v, Ordering::Release);
        }
        for l in &self.locks {
            if !matches!(l, Named::Version { retire: true, .. }) {
                l.release();
            }
        }
        csds_metrics::elide_commit();
        Ok(())
    }

    #[inline]
    fn validate(&self) -> bool {
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
    /// Retries exhausted: the caller must run its locked write phase.
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
        let mut tx = region.begin();
        match body(&mut tx) {
            SpecStep::Invalid => return Elided::Invalid,
            SpecStep::Commit(r) => {
                if tx.commit().is_ok() {
                    return Elided::Committed(r);
                }
            }
        }
    }
    csds_metrics::elide_fallback();
    Elided::FellBack
}

#[cfg(test)]
mod tests {
    use super::*;
    use csds_sync::{lock_guard, TasLock};
    use std::sync::Arc;

    /// A scheduling stall on a loaded CI host must not turn an expected
    /// outcome into an Interrupted abort: disable the quantum.
    fn region() -> TxRegion {
        TxRegion::with_quantum(Duration::from_secs(300))
    }

    #[test]
    fn read_write_commit_applies() {
        let region = region();
        let cell = AtomicUsize::new(5);
        let mut tx = region.begin();
        assert_eq!(tx.read(&cell), 5);
        tx.write(&cell, 9);
        assert_eq!(tx.read(&cell), 9, "read-own-write");
        assert_eq!(cell.load(Ordering::Relaxed), 5, "buffered until commit");
        tx.commit().unwrap();
        assert_eq!(cell.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn aborted_tx_has_no_side_effects() {
        let region = region();
        let a = AtomicUsize::new(1);
        let mut tx = region.begin();
        let _ = tx.read(&a);
        tx.write(&a, 99);
        // Conflict: someone changes `a` before we commit.
        a.store(2, Ordering::Relaxed);
        assert_eq!(tx.commit(), Err(TxAbort::Conflict));
        assert_eq!(a.load(Ordering::Relaxed), 2, "buffered write must not leak");
    }

    #[test]
    fn disjoint_concurrent_commits_succeed() {
        let region = region();
        let (la, lb) = (TasLock::new(), TasLock::new());
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        let mut t1 = region.begin();
        t1.lock(&la);
        let _ = t1.read(&a);
        t1.write(&a, 1);
        let mut t2 = region.begin();
        t2.lock(&lb);
        let _ = t2.read(&b);
        t2.write(&b, 2);
        // t2 commits first; t1's lock and read set (only `a`) are untouched.
        t2.commit().unwrap();
        t1.commit().unwrap();
        assert_eq!(a.load(Ordering::Relaxed), 1);
        assert_eq!(b.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn quantum_overrun_aborts_as_interrupt() {
        let region = TxRegion::with_quantum(Duration::from_millis(1));
        let a = AtomicUsize::new(0);
        let mut tx = region.begin();
        tx.write(&a, 1);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(tx.commit(), Err(TxAbort::Interrupted));
        assert_eq!(a.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn commit_on_a_held_lock_aborts_and_writes_nothing() {
        let region = region();
        let (free, held) = (TasLock::new(), TasLock::new());
        let a = AtomicUsize::new(0);
        let g = lock_guard(&held);
        let mut tx = region.begin();
        tx.lock(&free);
        tx.lock(&held);
        let _ = tx.read(&a);
        tx.write(&a, 1);
        assert_eq!(tx.commit(), Err(TxAbort::Conflict));
        assert_eq!(a.load(Ordering::Relaxed), 0);
        assert!(!free.is_locked(), "the lock taken before the held one");
        drop(g);
    }

    #[test]
    fn committed_tx_leaves_its_locks_free() {
        let region = region();
        let (l1, l2) = (TasLock::new(), TasLock::new());
        let ol = OptikLock::new();
        let a = AtomicUsize::new(0);
        let mut tx = region.begin();
        tx.lock(&l1);
        tx.lock(&l2);
        tx.lock(&l1); // named twice, taken once
        assert!(tx.lock_version(&ol, ol.version()));
        tx.write(&a, 1);
        tx.commit().unwrap();
        assert_eq!(a.load(Ordering::Relaxed), 1);
        assert!(!l1.is_locked() && !l2.is_locked() && !ol.is_locked());
        assert_eq!(ol.version(), 2, "a commit moves the version like a lock");
    }

    #[test]
    fn version_locks_abort_on_a_moved_version_and_retire_on_commit() {
        let region = region();
        let (moved, dead) = (OptikLock::new(), OptikLock::new());
        let seen = moved.version();
        drop(lock_guard(&moved));
        let mut tx = region.begin();
        assert!(!tx.lock_version(&moved, seen), "the version moved");
        assert_eq!(tx.commit(), Err(TxAbort::Conflict));
        assert!(!moved.is_locked());

        let mut tx = region.begin();
        assert!(tx.retire_version(&dead, dead.version()));
        tx.commit().unwrap();
        assert!(dead.is_locked(), "a retired lock stays held");
        assert!(dead.read_begin().is_none());
    }

    /// A descheduled speculator holds nothing: a speculator that has begun
    /// and named its lock does not hold it, so a locked writer goes straight
    /// through, and the speculator's commit then aborts.
    #[test]
    fn a_speculator_holds_none_of_its_named_locks() {
        let region = region();
        let lock = Arc::new(TasLock::new());
        let a = Arc::new(AtomicUsize::new(0));
        let mut tx = region.begin();
        tx.lock(&*lock);
        let _ = tx.read(&a);
        tx.write(&a, 1);
        let (l2, a2) = (Arc::clone(&lock), Arc::clone(&a));
        let waited = std::thread::spawn(move || {
            let _g = lock_guard(&*l2);
            a2.store(7, Ordering::Release);
            csds_metrics::take_and_reset().contended_acquires
        })
        .join()
        .unwrap();
        assert_eq!(waited, 0, "the locked writer waited");
        assert_eq!(tx.commit(), Err(TxAbort::Conflict));
        assert_eq!(a.load(Ordering::Relaxed), 7);
        assert!(!lock.is_locked());
    }

    #[test]
    fn fallback_conflicts_with_speculation() {
        let region = region();
        let lock = TasLock::new();
        let a = AtomicUsize::new(0);
        let mut tx = region.begin();
        tx.lock(&lock);
        let _ = tx.read(&a);
        tx.write(&a, 1);
        {
            let _g = lock_guard(&lock);
            a.store(7, Ordering::Release); // fallback write under the lock
        }
        assert_eq!(tx.commit(), Err(TxAbort::Conflict));
        assert_eq!(a.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn attempt_elision_falls_back_after_retries() {
        let _ = csds_metrics::take_and_reset();
        let region = region();
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
        let region = region();
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
        // conflicts, but commits and locked fallbacks must serialize.
        let region = Arc::new(region());
        let lock = Arc::new(TasLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let region = Arc::clone(&region);
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let out = attempt_elision(&region, 5, |tx| {
                        tx.lock(&*lock);
                        let v = tx.read(&counter);
                        tx.write(&counter, v + 1);
                        SpecStep::Commit(())
                    });
                    if let Elided::FellBack = out {
                        // The locked write phase: the counter's lock alone
                        // guards it.
                        let _g = lock_guard(&*lock);
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
        assert!(!lock.is_locked());
    }
}
