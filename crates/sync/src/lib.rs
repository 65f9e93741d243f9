//! Spin locks built from atomics, as used by state-of-the-art blocking
//! concurrent search data structures.
//!
//! The paper (§3.2) uses **test-and-set** and **ticket** locks for all its
//! blocking structures, observing "no benefits from using more complex locks,
//! such as MCS locks, due to the low degree of contention for any particular
//! lock". We provide all of them (plus the OPTIK-style versioned trylock that
//! BST-TK relies on) so that claim is reproducible (`repro run locks`).
//!
//! Every lock is instrumented: acquisitions that do not succeed immediately
//! take a timed slow path and report the wait to [`csds_metrics::lock_wait`].
//! This is exactly the paper's measurement methodology — with ticket locks,
//! "once a thread has acquired its ticket, if it is not immediately its turn
//! to be served, we measure the time until this event occurs".
//!
//! Spin loops use bounded spinning with exponential backoff and then
//! `yield_now` (see [`Backoff`]), so the suite behaves under multiprogramming
//! (more worker threads than cores) — the very scenario §5.4 studies.

pub mod atomic;
pub mod backoff;
pub mod mcs;
pub mod mpsc_ring;
pub mod oneshot;
pub mod optik;
pub mod padded;
pub mod sharded_counter;
pub mod tas;
pub mod ticket;

pub use backoff::Backoff;
pub use mcs::McsLock;
pub use mpsc_ring::MpscRing;
pub use optik::{OptikLock, OPTIMISTIC_READ_RETRIES, OPTIMISTIC_RMW_RETRIES};
pub use padded::CachePadded;
pub use sharded_counter::ShardedCounter;
pub use tas::TasLock;
pub use ticket::TicketLock;

/// Constant `true` since the optimistic fast paths lost their process-wide
/// switch: every operation has one entry path now. Kept only because
/// `benchmark/src/suite.rs` records it in its provenance header; the next
/// benchmark PR removes that field and this function with it.
#[inline]
pub fn optimistic_fast_paths() -> bool {
    true
}

/// A raw mutual-exclusion primitive.
///
/// `unlock` is a safe function, but the data structures never call it:
/// every critical section in `csds_core`, `csds_elastic` and `csds_pq` holds
/// a [`LockGuard`] (from [`lock_guard`] or
/// [`OptikLock::try_lock_version`]), which releases on drop, unwinding
/// included. Hand-over-hand walks move guards rather than unlocking.
pub trait RawMutex: Send + Sync {
    /// A new, unlocked instance.
    fn new() -> Self
    where
        Self: Sized;
    /// Acquire, spinning (with backoff + yield) until the lock is held.
    fn lock(&self);
    /// Try to acquire without waiting, recording a successful acquisition
    /// like [`lock`](Self::lock) does. Returns `true` on success.
    #[inline]
    fn try_lock(&self) -> bool {
        let ok = self.try_acquire();
        if ok {
            csds_metrics::lock_acquire(false);
        }
        ok
    }
    /// [`try_lock`](Self::try_lock) without recording the acquisition: for
    /// the emulated-HTM commit, whose lock takes stand in for a hardware
    /// transaction's read of the lock word, not for an acquisition.
    fn try_acquire(&self) -> bool;
    /// Release. Must only be called by the current holder.
    fn unlock(&self);
    /// Whether the lock is currently held (racy; for assertions/validation).
    fn is_locked(&self) -> bool;
}

/// RAII guard for any [`RawMutex`]; created by [`lock_guard`] and
/// [`OptikLock::try_lock_version`]. Entering a guard fires the
/// delay-injection hook, so the "unresponsive threads" experiment stalls
/// threads *while holding locks*.
pub struct LockGuard<'a, L: RawMutex> {
    lock: &'a L,
}

impl<'a, L: RawMutex> LockGuard<'a, L> {
    /// Wrap a lock the caller has just acquired, running the
    /// critical-section delay hook.
    #[inline]
    fn entered(lock: &'a L) -> Self {
        csds_metrics::maybe_delay_in_cs();
        LockGuard { lock }
    }

    /// Whether this guard holds `lock`.
    #[inline]
    pub fn holds(&self, lock: &L) -> bool {
        std::ptr::eq(self.lock, lock)
    }
}

impl<'a, L: RawMutex> Drop for LockGuard<'a, L> {
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

/// Acquire `lock` and return a guard. Records acquisition metrics and runs
/// the critical-section delay-injection hook.
pub fn lock_guard<L: RawMutex>(lock: &L) -> LockGuard<'_, L> {
    lock.lock();
    LockGuard::entered(lock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn hammer<L: RawMutex + 'static>() {
        const THREADS: usize = 4;
        // Miri executes every interleaved access interpretively; keep its
        // run inside the CI timebox while native runs keep full pressure.
        const ITERS: usize = if cfg!(miri) { 64 } else { 2_000 };
        let lock = Arc::new(L::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    let _g = lock_guard(&*lock);
                    // Non-atomic-looking increment made of two atomic halves:
                    // only mutual exclusion makes it correct.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), (THREADS * ITERS) as u64);
        assert!(!lock.is_locked());
    }

    #[test]
    fn tas_mutual_exclusion() {
        hammer::<TasLock>();
    }

    #[test]
    fn ticket_mutual_exclusion() {
        hammer::<TicketLock>();
    }

    #[test]
    fn mcs_mutual_exclusion() {
        hammer::<McsLock>();
    }

    #[test]
    fn optik_mutual_exclusion() {
        hammer::<OptikLock>();
    }

    #[test]
    fn try_lock_fails_when_held() {
        fn check<L: RawMutex>() {
            let l = L::new();
            assert!(l.try_lock());
            assert!(l.is_locked());
            assert!(!l.try_lock());
            l.unlock();
            assert!(!l.is_locked());
            assert!(l.try_lock());
            l.unlock();
        }
        check::<TasLock>();
        check::<TicketLock>();
        check::<McsLock>();
        check::<OptikLock>();
    }

    #[test]
    fn guard_releases_on_drop() {
        let l = OptikLock::new();
        {
            let _g = lock_guard(&l);
            assert!(l.is_locked());
            assert!(l.try_lock_version(l.version()).is_none());
        }
        assert!(!l.is_locked());
        let v = l.version();
        assert!(l.try_lock_version(v).is_some());
        assert!(!l.is_locked(), "the unbound guard released at once");
        let g = l.try_lock_version(l.version()).expect("free lock");
        assert!(l.is_locked());
        drop(g);
        assert_eq!(l.version(), v + 4);
    }

    #[test]
    #[cfg_attr(miri, ignore = "asserts on wall-clock wait times")]
    fn contended_wait_is_recorded() {
        let _ = csds_metrics::take_and_reset();
        let lock = Arc::new(TicketLock::new());
        lock.lock();
        let l2 = Arc::clone(&lock);
        let h = std::thread::spawn(move || {
            let _g = lock_guard(&*l2); // will wait
            csds_metrics::take_and_reset()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        lock.unlock();
        let snap = h.join().unwrap();
        assert_eq!(snap.contended_acquires, 1);
        assert!(
            snap.lock_wait_ns >= 10_000_000,
            "waited {}ns",
            snap.lock_wait_ns
        );
    }
}
