//! OPTIK-style versioned lock (Guerraoui & Trigonakis, PPoPP'16 \[22\]).
//!
//! The lock word is a version counter: even = free, odd = locked. The
//! pattern that BST-TK builds on is *optimistic concurrency with version
//! validation*: an update parses the structure without synchronization,
//! records the versions of the nodes it will modify, and then acquires each
//! lock **only if its version is unchanged** ([`OptikLock::try_lock_version`]).
//! A failed acquisition means someone changed that neighborhood — the
//! operation restarts instead of waiting, which is why BST-TK's measured
//! lock-wait time is zero and its restart count is non-zero (paper §5.1).
//!
//! A successful `try_lock_version` returns a [`LockGuard`], the same guard
//! [`lock_guard`] hands out: acquiring it runs the critical-section delay
//! hook ([`csds_metrics::maybe_delay_in_cs`]), so a stalled holder stalls
//! holding the lock, and dropping it unlocks, unwinding included.
//! [`LockGuard::retire`] consumes it *without* unlocking — the one way to
//! leave a version odd for good.
//!
//! [`lock_guard`]: crate::lock_guard
//!
//! The same version word doubles as a **seqlock** for readers
//! ([`OptikLock::read_begin`] / [`OptikLock::read_validate`]): snapshot an
//! even version, read the protected data without synchronizing, then
//! re-check the version. An unchanged even version proves no writer's
//! critical section overlapped the read, so the data observed is a
//! consistent snapshot that linearizes at the `read_begin` load.
//!
//! # Memory-ordering audit
//!
//! Every path through this lock is annotated at the call site; the global
//! picture:
//!
//! * **Acquire is only ever needed on the access that wins the lock or
//!   closes a validated read.** The speculative pre-loads in `lock`,
//!   `try_lock` and `lock_slow` are `Relaxed` because they only *seed* the
//!   CAS comparand — a stale value makes the CAS fail (correctness
//!   unaffected); a successful CAS carries `Acquire` itself, which is the
//!   edge that synchronizes with the previous holder's `Release` unlock.
//! * [`version`]/[`read_begin`] load with `Acquire` so the *subsequent*
//!   unsynchronized reads of the protected data cannot be reordered before
//!   the snapshot, and so the snapshot observes everything published by
//!   the unlock it reads from.
//! * [`read_validate`] issues an `Acquire` **fence** before its `Relaxed`
//!   re-load: the fence orders the protected-data reads before the re-load,
//!   so a torn read (writer mutated after our loads) is caught because the
//!   writer must bump the version to odd *before* mutating (CAS in
//!   `try_lock_version`/`lock`) and to a new even value *after* (`Release`
//!   in `unlock`) — either bump makes the re-load differ from `seen`.
//! * `is_locked` is documented racy (assertions only) so `Relaxed` is fine.
//!
//! [`version`]: OptikLock::version
//! [`read_begin`]: OptikLock::read_begin
//! [`read_validate`]: OptikLock::read_validate

use crate::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

use crate::{Backoff, LockGuard, RawMutex};

/// Bounded retries for optimistic *read* fast paths before falling back to
/// the locked path.
pub const OPTIMISTIC_READ_RETRIES: usize = 3;

/// Bounded restarts for validate-then-lock *RMW* fast paths before falling
/// back to the pessimistic locked path.
pub const OPTIMISTIC_RMW_RETRIES: usize = 3;

/// Versioned lock: even values mean unlocked, odd mean locked. Each
/// lock/unlock pair advances the version by 2, so a reader can detect *any*
/// intervening critical section by comparing versions.
pub struct OptikLock {
    version: AtomicU64,
}

impl OptikLock {
    /// Current version. Even = free. Use with [`try_lock_version`] to
    /// validate that the node is unchanged since it was parsed.
    ///
    /// [`try_lock_version`]: OptikLock::try_lock_version
    #[inline]
    #[must_use = "a version snapshot is only meaningful if later validated or CASed against"]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Acquire the lock only if the version still equals `seen` (which must
    /// be even, i.e. observed free), as a guard (see the module docs).
    /// Returns `None` — without waiting — if the version moved or the lock
    /// is held.
    #[inline]
    #[must_use = "dropping the guard releases the lock at once; bind it"]
    pub fn try_lock_version(&self, seen: u64) -> Option<LockGuard<'_, OptikLock>> {
        self.cas_version(seen).then(|| LockGuard::entered(self))
    }

    /// The CAS behind [`try_lock_version`](Self::try_lock_version) and
    /// `try_lock`: even `seen` → odd, recorded as an uncontended acquire.
    #[inline]
    fn cas_version(&self, seen: u64) -> bool {
        if seen & 1 == 1 {
            return false;
        }
        let ok = self
            .version
            .compare_exchange(seen, seen + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if ok {
            csds_metrics::lock_acquire(false);
        }
        ok
    }

    /// True if `v` denotes a locked state.
    #[inline]
    #[must_use]
    pub fn version_is_locked(v: u64) -> bool {
        v & 1 == 1
    }

    /// Begin an optimistic (seqlock-style) read: snapshot the current
    /// version. Returns `None` if a writer holds the lock right now (odd
    /// version) — the caller should retry or fall back rather than read
    /// data that is being mutated under it.
    ///
    /// The `Acquire` load synchronizes with the `Release` unlock of the
    /// last writer, so the protected data the caller reads next is at
    /// least as new as the snapshot, and none of those reads can hoist
    /// above it.
    #[inline]
    #[must_use = "an unused snapshot certifies nothing — thread it into read_validate"]
    pub fn read_begin(&self) -> Option<u64> {
        let v = self.version.load(Ordering::Acquire);
        if v & 1 == 0 {
            Some(v)
        } else {
            None
        }
    }

    /// Close an optimistic read begun at version `seen`: `true` iff no
    /// writer critical section overlapped the read, i.e. everything read
    /// since [`read_begin`] was a consistent snapshot.
    ///
    /// The `Acquire` *fence* keeps the caller's data reads ordered before
    /// the re-load. The re-load itself can be `Relaxed`: any writer bumps
    /// the version to odd (CAS, before mutating) and to a new even value
    /// (`Release` `fetch_add`, after mutating), so an overlapping or
    /// completed critical section always makes the re-load differ from
    /// `seen`. Equality is therefore proof of quiescence, whatever
    /// ordering the re-load uses.
    ///
    /// [`read_begin`]: OptikLock::read_begin
    #[inline]
    #[must_use = "a dropped validation result silently un-certifies the read — branch on it"]
    pub fn read_validate(&self, seen: u64) -> bool {
        fence(Ordering::Acquire);
        seen & 1 == 0 && self.version.load(Ordering::Relaxed) == seen
    }

    /// Run `f` as an optimistic read with up to [`OPTIMISTIC_READ_RETRIES`]
    /// validation attempts. Returns `Some(result)` from the first attempt
    /// whose snapshot validates, `None` if every attempt was torn by a
    /// concurrent writer — the caller then takes its pessimistic path
    /// (typically [`RawMutex::lock`]) and should record
    /// [`csds_metrics::optimistic_fallback`].
    ///
    /// Worth it only where that pessimistic path takes locks: the one
    /// caller is the lock-coupling list's `get_in`. Reads that were already
    /// store-free (lazy hash table, BST-TK) measured slower inside this
    /// wrap and do not use it.
    ///
    /// `f` may observe mid-mutation state (that is the point of running
    /// unsynchronized), so it must be safe to run on torn data — in this
    /// library that means: only traverse EBR-protected pointers and make
    /// no decision until validation succeeds.
    ///
    /// Attempts and failed validations are recorded via
    /// [`csds_metrics::optimistic_attempt`] /
    /// [`csds_metrics::optimistic_failure`].
    #[inline]
    #[must_use = "None means every validation failed — the caller must take its pessimistic path"]
    pub fn optimistic_read<T>(&self, mut f: impl FnMut() -> T) -> Option<T> {
        for _ in 0..OPTIMISTIC_READ_RETRIES {
            csds_metrics::optimistic_attempt();
            let Some(seen) = self.read_begin() else {
                read_failed_slow();
                continue;
            };
            let out = f();
            if self.read_validate(seen) {
                return Some(out);
            }
            read_failed_slow();
        }
        None
    }
}

impl LockGuard<'_, OptikLock> {
    /// Consume the guard **without** unlocking: the version stays odd for
    /// good, so every later `try_lock_version` and `read_begin` on it
    /// fails. For a node that must never be locked again, such as BST-TK's
    /// spliced-out router.
    #[inline]
    pub fn retire(self) {
        std::mem::forget(self);
    }
}

/// Failed-validation recording, out of line: writers are rare on the read
/// fast path, and keeping the recorder call (a thread-local access plus
/// counter stores) out of [`OptikLock::optimistic_read`]'s loop body keeps
/// the validated-success path lean.
#[cold]
#[inline(never)]
fn read_failed_slow() {
    csds_metrics::optimistic_failure();
}

impl RawMutex for OptikLock {
    fn new() -> Self {
        OptikLock {
            version: AtomicU64::new(0),
        }
    }

    fn lock(&self) {
        // Fast path. The pre-load is deliberately `Relaxed` (where
        // `version()` uses `Acquire`): it only seeds the CAS comparand. A
        // stale value fails the CAS and routes to the slow path; the
        // synchronizing edge with the previous holder's `Release` unlock
        // is the CAS's own `Acquire` success ordering. `version()` is
        // `Acquire` because *its* callers go on to read protected data
        // against the returned snapshot without any later CAS to supply
        // the ordering.
        let v = self.version.load(Ordering::Relaxed);
        if v & 1 == 0
            && self
                .version
                .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            csds_metrics::lock_acquire(false);
            return;
        }
        self.lock_slow();
    }

    #[inline]
    fn try_lock(&self) -> bool {
        // Relaxed for the same reason as `lock`'s fast path: the load only
        // seeds `cas_version`'s CAS, whose Acquire success ordering does
        // the synchronizing.
        let v = self.version.load(Ordering::Relaxed);
        v & 1 == 0 && self.cas_version(v)
    }

    #[inline]
    fn unlock(&self) {
        // Holder-only: version is odd; +1 makes it even and distinct from
        // every previously observed version.
        debug_assert!(
            self.version.load(Ordering::Relaxed) & 1 == 1,
            "OptikLock::unlock without holding the lock"
        );
        self.version.fetch_add(1, Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        // Documented racy (assertions/validation only), so Relaxed.
        self.version.load(Ordering::Relaxed) & 1 == 1
    }
}

impl OptikLock {
    #[cold]
    fn lock_slow(&self) {
        let start = Instant::now();
        let mut backoff = Backoff::new();
        loop {
            let v = self.version.load(Ordering::Relaxed);
            if v & 1 == 0
                && self
                    .version
                    .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break;
            }
            backoff.snooze();
        }
        csds_metrics::lock_wait(start.elapsed().as_nanos() as u64);
        csds_metrics::lock_acquire(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_advances_by_two_per_critical_section() {
        let l = OptikLock::new();
        let v0 = l.version();
        l.lock();
        l.unlock();
        assert_eq!(l.version(), v0 + 2);
    }

    #[test]
    fn try_lock_version_detects_change() {
        let l = OptikLock::new();
        let seen = l.version();
        // Someone else runs a critical section.
        l.lock();
        l.unlock();
        assert!(
            l.try_lock_version(seen).is_none(),
            "stale version must be rejected"
        );
        let fresh = l.version();
        let g = l.try_lock_version(fresh).expect("unchanged version");
        assert!(l.is_locked());
        drop(g);
        assert_eq!(l.version(), fresh + 2);
    }

    #[test]
    fn retired_guard_leaves_the_lock_dead() {
        let l = OptikLock::new();
        let v = l.version();
        l.try_lock_version(v).expect("free lock").retire();
        assert!(l.is_locked());
        assert_eq!(l.version(), v + 1);
        assert!(l.read_begin().is_none());
        assert!(l.try_lock_version(l.version()).is_none());
        assert!(l.try_lock_version(v).is_none());
    }

    #[test]
    fn guard_unlocks_on_unwind_and_runs_the_delay_hook() {
        let l = OptikLock::new();
        let _ = csds_metrics::take_and_reset();
        csds_metrics::set_delay_policy(Some(csds_metrics::DelayPolicy {
            every: 1,
            min_ns: 1,
            max_ns: 1,
            seed: 1,
        }));
        let v = l.version();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = l.try_lock_version(v).expect("free lock");
            panic!("inside the critical section");
        }));
        csds_metrics::set_delay_policy(None);
        assert!(unwound.is_err());
        assert!(!l.is_locked(), "the guard released on unwind");
        assert_eq!(l.version(), v + 2);
        assert_eq!(csds_metrics::take_and_reset().injected_delays, 1);
    }

    #[test]
    fn try_lock_version_rejects_locked_observation() {
        let l = OptikLock::new();
        l.lock();
        let seen = l.version();
        assert!(OptikLock::version_is_locked(seen));
        assert!(l.try_lock_version(seen).is_none());
        l.unlock();
    }

    /// The read-validate protocol, stepped through deterministically (no
    /// threads, no timing — miri/loom-shim friendly): every interleaving
    /// of one reader and one writer critical section, hand-ordered.
    #[test]
    fn read_validate_protocol_single_threaded_interleavings() {
        let l = OptikLock::new();

        // Quiescent read: begin → validate succeeds.
        let seen = l.read_begin().expect("free lock yields a snapshot");
        assert!(l.read_validate(seen));
        // Validation is not consuming: it can be re-run.
        assert!(l.read_validate(seen));

        // Reader begins, writer runs a whole critical section, reader
        // validates: must fail (the data may have changed under us).
        let seen = l.read_begin().unwrap();
        l.lock();
        l.unlock();
        assert!(!l.read_validate(seen), "overlapped write must invalidate");

        // Reader begins, writer acquires and is still inside (the
        // "paused between mutate and version-bump" window is anything
        // between lock and unlock): validation must fail, and a fresh
        // read_begin must refuse to start.
        let seen = l.read_begin().unwrap();
        l.lock();
        assert!(!l.read_validate(seen), "in-flight write must invalidate");
        assert!(
            l.read_begin().is_none(),
            "read must not begin while a writer is inside"
        );
        l.unlock();

        // An odd (locked) observation can never validate, even if the
        // version word happens to match.
        l.lock();
        let odd = l.version();
        assert!(!l.read_validate(odd));
        l.unlock();

        // After the writer finishes, reads proceed normally again.
        let seen = l.read_begin().unwrap();
        assert!(l.read_validate(seen));
    }

    #[test]
    fn optimistic_read_returns_value_and_counts_attempts() {
        let _ = csds_metrics::take_and_reset();
        let l = OptikLock::new();
        let mut calls = 0;
        let got = l.optimistic_read(|| {
            calls += 1;
            42u32
        });
        assert_eq!(got, Some(42));
        assert_eq!(calls, 1);
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.optimistic_attempts, 1);
        assert_eq!(snap.optimistic_failures, 0);
        assert_eq!(snap.optimistic_fallbacks, 0);
    }

    #[test]
    fn optimistic_read_exhausts_retries_while_writer_holds_the_lock() {
        let _ = csds_metrics::take_and_reset();
        let l = OptikLock::new();
        l.lock();
        // Writer is "paused" inside its critical section; every optimistic
        // attempt must refuse to read and report failure.
        let mut calls = 0;
        let got = l.optimistic_read(|| {
            calls += 1;
        });
        assert_eq!(got, None, "held lock must exhaust retries");
        assert_eq!(calls, 0, "closure must not run on a locked snapshot");
        l.unlock();
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.optimistic_attempts as usize, OPTIMISTIC_READ_RETRIES);
        assert_eq!(snap.optimistic_failures as usize, OPTIMISTIC_READ_RETRIES);
    }

    /// Cross-thread torn-read rejection at the lock level: a writer parks
    /// inside its critical section after mutating the protected value but
    /// before the version-restoring unlock; a reader that overlaps it must
    /// never validate a torn observation.
    #[test]
    fn read_validate_rejects_overlapping_writer_cross_thread() {
        use crate::atomic::{AtomicBool, AtomicU64};
        use std::sync::Arc;

        let lock = Arc::new(OptikLock::new());
        let data = Arc::new(AtomicU64::new(0));
        let inside = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));

        // Reader snapshot taken strictly before the writer starts.
        let seen = lock.read_begin().unwrap();
        let before = data.load(Ordering::Relaxed);

        let writer = {
            let (lock, data, inside, release) = (
                Arc::clone(&lock),
                Arc::clone(&data),
                Arc::clone(&inside),
                Arc::clone(&release),
            );
            std::thread::spawn(move || {
                lock.lock();
                data.store(1, Ordering::Relaxed); // the "mutate" half
                inside.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                lock.unlock(); // the "version bump" half
            })
        };
        while !inside.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // The writer is paused between mutate and version bump. Whatever
        // the reader saw, validation must reject it now.
        let torn = data.load(Ordering::Relaxed);
        assert!(
            !lock.read_validate(seen),
            "snapshot {seen} (value {before}) must be rejected against torn value {torn}"
        );
        assert!(lock.read_begin().is_none());
        release.store(true, Ordering::Release);
        writer.join().unwrap();
        // And after the writer completes, the old snapshot is still stale.
        assert!(!lock.read_validate(seen));
        let fresh = lock.read_begin().unwrap();
        assert!(lock.read_validate(fresh));
    }
}
