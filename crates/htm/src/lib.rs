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
//! # One write phase, two executors
//!
//! A structure writes each write phase once, as a body generic over
//! [`Exec`] (and [`VersionExec`] for OPTIK locks taken at a parsed version).
//! The body names its locks ([`Exec::lock`], [`VersionExec::lock_version`],
//! [`VersionExec::retire_version`]), reads what it validates
//! ([`Exec::read`]), stores through [`Exec::write`], and returns `true`
//! (written) or `false` (the parsed window is stale). Two executors run it:
//!
//! * a [`LockSet`] takes each lock as the body names it, through the same
//!   [`LockGuard`]s a hand-written critical section holds (counted, with the
//!   delay hook), loads with `Acquire` and stores with `Release`. Its
//!   [`commit`](LockSet::commit) releases the locks, or retires the ones
//!   named by `retire_version`; dropping it instead releases them all;
//! * a [`Tx`] holds none of them: it records its reads, buffers its writes
//!   (shared memory is untouched until commit) and names its locks.
//!   [`Tx::commit`] try-locks the named locks, **value-validates** the read
//!   set, applies the write set and releases the locks. A held lock or a
//!   changed value is a data-conflict abort; commit never waits.
//!   *Abort-on-interrupt* is emulated: a transaction that observes at
//!   commit that it has been running longer than a scheduling quantum (it
//!   was descheduled mid-flight) aborts with [`TxAbort::Interrupted`].
//!
//! Lock mode runs the body through a lock set. Elision mode runs it through
//! a transaction up to a bounded number of times ([`speculate`]), then
//! through a lock set ([`run`]).
//!
//! **The one rule** — a commit's lock set equals the lock set of the
//! structure's locked write phase for the same write — holds by
//! construction: both executors run the one body, so they name the same
//! locks. Every location a commit writes is guarded by a lock it holds, so
//! a commit and a locked write phase exclude each other exactly as two
//! locked write phases do, and two commits on disjoint locks both go
//! through.
//!
//! This preserves every property the paper's experiments rely on:
//! descheduled threads hold no locks, conflicts abort speculation, retries
//! are bounded, and the fallback is pessimistic locking (Tables 2 and 3).

use csds_sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use csds_sync::{lock_guard, LockGuard, OptikLock, RawMutex};

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

/// The executor a write-phase body runs through (see the crate docs): a
/// [`LockSet`] or a [`Tx`]. `L` is the structure's lock type.
pub trait Exec<'r, L: RawMutex> {
    /// Take (lock set) or name (transaction) one of the write phase's
    /// locks. Naming a lock twice names it once.
    fn lock(&mut self, lock: &'r L);
    /// Read a word the write phase depends on.
    fn read(&mut self, loc: &'r AtomicUsize) -> usize;
    /// Store a word.
    fn write(&mut self, loc: &'r AtomicUsize, value: usize);
}

/// An [`Exec`] over OPTIK locks, which a write phase may take only at the
/// version its parse observed.
pub trait VersionExec<'r>: Exec<'r, OptikLock> {
    /// Take (lock set) or name (transaction) `lock` at the version `seen`.
    /// `false`: the lock is not at `seen` now — the neighbourhood moved, or
    /// is being written, since the parse — and the body must report stale.
    fn lock_version(&mut self, lock: &'r OptikLock, seen: u64) -> bool;
    /// [`lock_version`](Self::lock_version) for a node the write unlinks:
    /// a successful commit leaves the lock held for good, as
    /// [`LockGuard::retire`] does.
    fn retire_version(&mut self, lock: &'r OptikLock, seen: u64) -> bool;
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

/// A transaction names each lock for its commit: a plain lock is
/// try-locked, a version lock taken only at `seen` (as `try_lock_version`
/// does); both are released after the writes, except a retired one.
impl<'r, L: RawMutex> Exec<'r, L> for Tx<'r> {
    #[inline]
    fn lock(&mut self, lock: &'r L) {
        self.name(Named::Plain(lock));
    }

    #[inline]
    fn read(&mut self, loc: &'r AtomicUsize) -> usize {
        Tx::read(self, loc)
    }

    #[inline]
    fn write(&mut self, loc: &'r AtomicUsize, value: usize) {
        Tx::write(self, loc, value);
    }
}

impl<'r> VersionExec<'r> for Tx<'r> {
    #[inline]
    fn lock_version(&mut self, lock: &'r OptikLock, seen: u64) -> bool {
        self.name_version(lock, seen, false)
    }

    #[inline]
    fn retire_version(&mut self, lock: &'r OptikLock, seen: u64) -> bool {
        self.name_version(lock, seen, true)
    }
}

/// The locked executor: up to `N` guards of the structure's one lock type
/// `L`, inline (no heap), each with whether it retires. Locks are taken as
/// the body names them, in the body's order, and released when the set
/// drops — unless [`commit`](Self::commit) retires them.
pub struct LockSet<'r, L: RawMutex, const N: usize> {
    held: [Option<(LockGuard<'r, L>, bool)>; N],
    len: usize,
}

impl<L: RawMutex, const N: usize> Default for LockSet<'_, L, N> {
    /// A set that holds no lock.
    fn default() -> Self {
        LockSet {
            held: [const { None }; N],
            len: 0,
        }
    }
}

impl<'r, L: RawMutex, const N: usize> LockSet<'r, L, N> {
    /// Take `lock` with `take` unless the set holds it already. `false`:
    /// `take` failed.
    fn take(
        &mut self,
        lock: &'r L,
        retire: bool,
        take: impl FnOnce() -> Option<LockGuard<'r, L>>,
    ) -> bool {
        if !self.held[..self.len]
            .iter()
            .flatten()
            .any(|(g, _)| g.holds(lock))
        {
            let Some(guard) = take() else {
                return false;
            };
            self.held[self.len] = Some((guard, retire));
            self.len += 1;
        }
        true
    }

    /// The body wrote: release the locks it took, except the retired ones,
    /// which stay held for good.
    pub fn commit(mut self) {
        for h in &mut self.held {
            if let Some((_, true)) = h {
                // Only `retire_version` retires, so this is an OPTIK
                // guard: forgetting it is `LockGuard::retire`.
                std::mem::forget(h.take());
            }
        }
    }
}

impl<'r, L: RawMutex, const N: usize> Exec<'r, L> for LockSet<'r, L, N> {
    fn lock(&mut self, lock: &'r L) {
        self.take(lock, false, || Some(lock_guard(lock)));
    }

    fn read(&mut self, loc: &'r AtomicUsize) -> usize {
        loc.load(Ordering::Acquire)
    }

    fn write(&mut self, loc: &'r AtomicUsize, value: usize) {
        loc.store(value, Ordering::Release);
    }
}

impl<'r, const N: usize> VersionExec<'r> for LockSet<'r, OptikLock, N> {
    fn lock_version(&mut self, lock: &'r OptikLock, seen: u64) -> bool {
        self.take(lock, false, || lock.try_lock_version(seen))
    }

    fn retire_version(&mut self, lock: &'r OptikLock, seen: u64) -> bool {
        self.take(lock, true, || lock.try_lock_version(seen))
    }
}

/// Run a write-phase body through a transaction up to `retries` times (the
/// paper §6.4 assumes five attempts before reverting to locking), counting
/// Table 2's metrics. `Some(verdict)`: a transaction committed (`true`) or
/// the body found its window stale (`false`: the operation re-parses).
/// `None`: every attempt aborted, and the caller runs the body through a
/// [`LockSet`].
pub fn speculate<'r>(
    region: &'r TxRegion,
    retries: u32,
    mut body: impl FnMut(&mut Tx<'r>) -> bool,
) -> Option<bool> {
    for _ in 0..retries {
        let mut tx = region.begin();
        if !body(&mut tx) {
            return Some(false);
        }
        if tx.commit().is_ok() {
            return Some(true);
        }
    }
    csds_metrics::elide_fallback();
    None
}

/// Run one write phase: in elision mode (`region` is `Some`) through
/// [`speculate`], then — once speculation gives up, or at once in lock mode
/// — through a [`LockSet`]. `spec` and `locked` apply the same body to each
/// executor. Returns the body's verdict: `true` written, `false` stale
/// (nothing written, no lock held).
pub fn run<'r, L: RawMutex + 'r, const N: usize>(
    region: Option<&'r TxRegion>,
    retries: u32,
    spec: impl FnMut(&mut Tx<'r>) -> bool,
    locked: impl FnOnce(&mut LockSet<'r, L, N>) -> bool,
) -> bool {
    if let Some(verdict) = region.and_then(|r| speculate(r, retries, spec)) {
        return verdict;
    }
    let mut locks = LockSet::default();
    let written = locked(&mut locks);
    if written {
        locks.commit();
    }
    written
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
    fn speculate_falls_back_after_retries() {
        let _ = csds_metrics::take_and_reset();
        let region = region();
        let a = AtomicUsize::new(0);
        // A body that always loses: it reads `a`, then a "concurrent" write
        // invalidates it before commit.
        let out = speculate(&region, 5, |tx| {
            let v = tx.read(&a);
            a.store(v + 1, Ordering::Relaxed); // simulate a conflicting writer
            true
        });
        assert_eq!(out, None);
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.elide_attempts, 5);
        assert_eq!(snap.elide_fallbacks, 1);
        assert_eq!(snap.elide_aborts_conflict, 5);
    }

    #[test]
    fn speculate_commits_and_counts() {
        let _ = csds_metrics::take_and_reset();
        let region = region();
        let a = AtomicUsize::new(3);
        let out = speculate(&region, 5, |tx| {
            let v = tx.read(&a);
            tx.write(&a, v * 2);
            true
        });
        assert_eq!(out, Some(true));
        assert_eq!(a.load(Ordering::Relaxed), 6);
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.elide_commits, 1);
        assert_eq!(snap.elide_fallbacks, 0);
    }

    /// The locked executor takes each named lock once, counted and through
    /// a guard, stores at once, and releases on commit and on drop alike.
    #[test]
    fn lock_set_takes_each_lock_once_and_releases_it() {
        let _ = csds_metrics::take_and_reset();
        let (l1, l2) = (TasLock::new(), TasLock::new());
        let a = AtomicUsize::new(0);
        let mut locks = LockSet::<TasLock, 2>::default();
        locks.lock(&l1);
        locks.lock(&l2);
        locks.lock(&l1); // named twice, taken once
        assert!(l1.is_locked() && l2.is_locked());
        locks.write(&a, 4);
        assert_eq!(a.load(Ordering::Relaxed), 4, "a lock set writes at once");
        assert_eq!(locks.read(&a), 4);
        locks.commit();
        assert!(!l1.is_locked() && !l2.is_locked());
        let mut locks = LockSet::<TasLock, 1>::default();
        locks.lock(&l1);
        drop(locks);
        assert!(!l1.is_locked(), "a stale body's locks are released");
        assert_eq!(csds_metrics::take_and_reset().lock_acquires, 3);
    }

    #[test]
    fn lock_set_versions_fail_on_a_moved_version_and_retire_on_commit() {
        let (moved, dead) = (OptikLock::new(), OptikLock::new());
        let seen = moved.version();
        drop(lock_guard(&moved));
        let mut locks = LockSet::<OptikLock, 2>::default();
        assert!(!locks.lock_version(&moved, seen), "the version moved");
        assert!(locks.retire_version(&dead, dead.version()));
        drop(locks);
        assert!(!dead.is_locked(), "a stale body retires nothing");

        let mut locks = LockSet::<OptikLock, 2>::default();
        assert!(locks.lock_version(&moved, moved.version()));
        assert!(locks.retire_version(&dead, dead.version()));
        locks.commit();
        assert!(!moved.is_locked());
        assert!(dead.is_locked(), "a retired lock stays held");
        assert!(dead.read_begin().is_none());
    }

    /// One counter-increment body, generic over the executor.
    fn increment<'r, E: Exec<'r, TasLock>>(
        e: &mut E,
        lock: &'r TasLock,
        counter: &'r AtomicUsize,
    ) -> bool {
        e.lock(lock);
        let v = e.read(counter);
        e.write(counter, v + 1);
        true
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        // 4 threads × 500 increments (50 under Miri) of one body on one
        // counter: heavy conflicts, but commits and locked fallbacks must
        // serialize.
        let region = Arc::new(region());
        let lock = Arc::new(TasLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let region = Arc::clone(&region);
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..if cfg!(miri) { 50 } else { 500 } {
                    assert!(run::<TasLock, 1>(
                        Some(&region),
                        5,
                        |tx| increment(tx, &lock, &counter),
                        |locks| increment(locks, &lock, &counter),
                    ));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let per_thread = if cfg!(miri) { 50 } else { 500 };
        assert_eq!(counter.load(Ordering::Relaxed), 4 * per_thread);
        assert!(!lock.is_locked());
    }
}
