//! Ticket lock — FIFO-fair spin lock.
//!
//! This is the lock the paper uses to *measure* waiting: "once a thread has
//! acquired its ticket, if it is not immediately its turn to be served, we
//! measure the time until this event occurs" (§5.1). The fast path (ticket ==
//! now-serving) records no time at all.

use crate::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use crate::{Backoff, RawMutex};

/// FIFO ticket lock (8 bytes of state).
pub struct TicketLock {
    next: AtomicU32,
    serving: AtomicU32,
}

impl RawMutex for TicketLock {
    fn new() -> Self {
        TicketLock {
            next: AtomicU32::new(0),
            serving: AtomicU32::new(0),
        }
    }

    #[inline]
    fn lock(&self) {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        if self.serving.load(Ordering::Acquire) == ticket {
            csds_metrics::lock_acquire(false);
            return;
        }
        self.wait_for_turn(ticket);
    }

    #[inline]
    fn try_acquire(&self) -> bool {
        let serving = self.serving.load(Ordering::Relaxed);
        let next = self.next.load(Ordering::Relaxed);
        if serving != next {
            return false;
        }
        // Taking the lock = claiming ticket `next` while it is being served.
        self.next
            .compare_exchange(
                next,
                next.wrapping_add(1),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    #[inline]
    fn unlock(&self) {
        // Only the holder advances `serving`; a plain store is sufficient.
        let s = self.serving.load(Ordering::Relaxed);
        self.serving.store(s.wrapping_add(1), Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        self.serving.load(Ordering::Relaxed) != self.next.load(Ordering::Relaxed)
    }
}

impl TicketLock {
    #[cold]
    fn wait_for_turn(&self, ticket: u32) {
        let start = Instant::now();
        let mut backoff = Backoff::new();
        while self.serving.load(Ordering::Acquire) != ticket {
            backoff.snooze();
        }
        csds_metrics::lock_wait(start.elapsed().as_nanos() as u64);
        csds_metrics::lock_acquire(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        // Thread A holds the lock; B then C queue up. B must acquire first.
        let lock = Arc::new(TicketLock::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        lock.lock();
        let mut handles = Vec::new();
        for id in 0..2u32 {
            let lock = Arc::clone(&lock);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                // Stagger queueing so ticket order is deterministic.
                std::thread::sleep(std::time::Duration::from_millis(20 * (id as u64 + 1)));
                lock.lock();
                order.lock().unwrap().push(id);
                lock.unlock();
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(80));
        lock.unlock();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(&*order.lock().unwrap(), &[0, 1]);
    }

    #[test]
    fn try_lock_only_when_free() {
        let l = TicketLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn wrapping_tickets() {
        let l = TicketLock::new();
        // Force the counters near the wrap point and make sure nothing breaks.
        l.next.store(u32::MAX, Ordering::Relaxed);
        l.serving.store(u32::MAX, Ordering::Relaxed);
        l.lock();
        assert!(l.is_locked());
        l.unlock();
        assert!(!l.is_locked());
        assert_eq!(l.serving.load(Ordering::Relaxed), 0);
    }
}
