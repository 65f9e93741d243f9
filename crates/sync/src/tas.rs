//! Test-and-set spin lock.
//!
//! A [`TasLock`] is a single byte — this matters because the lazy list and
//! the optimistic skiplist embed one lock *per node* (paper §3.2). The
//! slow path measures wait time from the first failed attempt until
//! acquisition and reports it to `csds-metrics`.

use crate::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::{Backoff, RawMutex};

/// Classic test-and-set spin lock (one byte of state).
pub struct TasLock {
    flag: AtomicBool,
}

impl RawMutex for TasLock {
    fn new() -> Self {
        TasLock {
            flag: AtomicBool::new(false),
        }
    }

    #[inline]
    fn lock(&self) {
        // Fast path: uncontended CAS.
        if self
            .flag
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            csds_metrics::lock_acquire(false);
            return;
        }
        self.lock_slow();
    }

    #[inline]
    fn try_acquire(&self) -> bool {
        self.flag
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    fn unlock(&self) {
        self.flag.store(false, Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

impl TasLock {
    #[cold]
    fn lock_slow(&self) {
        let start = Instant::now();
        let mut backoff = Backoff::new();
        loop {
            // Wait until it looks free before hitting it with a CAS again
            // (avoids cache-line ping-pong).
            while self.flag.load(Ordering::Relaxed) {
                backoff.snooze();
            }
            if self
                .flag
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        csds_metrics::lock_wait(start.elapsed().as_nanos() as u64);
        csds_metrics::lock_acquire(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tas_is_one_byte() {
        assert_eq!(std::mem::size_of::<TasLock>(), 1);
    }

    #[test]
    fn lock_unlock_cycles() {
        let l = TasLock::new();
        for _ in 0..100 {
            l.lock();
            assert!(l.is_locked());
            l.unlock();
            assert!(!l.is_locked());
        }
    }
}
