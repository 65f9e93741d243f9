//! MCS queue lock.
//!
//! Each waiter spins on its *own* queue node, so the lock generates no
//! global cache traffic under contention. The paper finds MCS unnecessary
//! for CSDSs ("no benefits ... due to the low degree of contention for any
//! particular lock", §3.2); we include it so that finding is reproducible
//! (`fig0_substrate` times it beside the simpler locks, and the lazy list
//! is generic over its node lock).
//!
//! The textbook MCS interface threads a queue node through `lock`/`unlock`.
//! To satisfy the uniform [`RawMutex`] interface the lock keeps a per-thread
//! pool of queue nodes and stashes the holder's node in the lock itself;
//! only the holder touches that slot, so a relaxed store suffices.

use crate::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::cell::RefCell;
use std::ptr;
use std::time::Instant;

use crate::{Backoff, RawMutex};

/// A waiter's spin cell. Cache-line padded: the whole point of MCS is that
/// each waiter spins on private state, which only holds if pooled nodes of
/// different waiters never share a line.
#[repr(align(128))]
struct QNode {
    locked: AtomicBool,
    next: AtomicPtr<QNode>,
}

impl QNode {
    fn new() -> Box<QNode> {
        Box::new(QNode {
            locked: AtomicBool::new(false),
            next: AtomicPtr::new(ptr::null_mut()),
        })
    }
}

thread_local! {
    // Pool of queue nodes for this thread. A thread can hold several MCS
    // locks at once (hand-over-hand traversals), so this is a stack, not a
    // single slot. The nodes must be boxed: their addresses are published
    // into the lock's queue and have to stay stable while pooled.
    #[allow(clippy::vec_box)]
    static NODE_POOL: RefCell<Vec<Box<QNode>>> = const { RefCell::new(Vec::new()) };
}

fn pool_pop() -> Box<QNode> {
    NODE_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_else(QNode::new)
}

fn pool_push(node: Box<QNode>) {
    NODE_POOL.with(|p| p.borrow_mut().push(node));
}

/// Mellor-Crummey–Scott queue lock.
///
/// `tail` (swapped by every arriving waiter) lives on its own cache line,
/// away from `owner` (touched only by the holder), so enqueue traffic never
/// invalidates the holder's line.
pub struct McsLock {
    tail: crate::CachePadded<AtomicPtr<QNode>>,
    /// Queue node of the current holder; written only by the holder.
    owner: AtomicPtr<QNode>,
}

impl RawMutex for McsLock {
    fn new() -> Self {
        McsLock {
            tail: crate::CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            owner: AtomicPtr::new(ptr::null_mut()),
        }
    }

    fn lock(&self) {
        let node = Box::into_raw(pool_pop());
        // SAFETY: `node` is freshly owned by us; fields reset before enqueue.
        unsafe {
            (*node).locked.store(true, Ordering::Relaxed);
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        let pred = self.tail.swap(node, Ordering::AcqRel);
        if pred.is_null() {
            self.owner.store(node, Ordering::Relaxed);
            csds_metrics::lock_acquire(false);
            return;
        }
        // SAFETY: `pred` stays valid until its owner dequeues, which cannot
        // happen before it observes our `next` link and hands the lock over.
        unsafe {
            (*pred).next.store(node, Ordering::Release);
        }
        let start = Instant::now();
        let mut backoff = Backoff::new();
        // SAFETY: we own `node` until we release the lock.
        unsafe {
            while (*node).locked.load(Ordering::Acquire) {
                backoff.snooze();
            }
        }
        self.owner.store(node, Ordering::Relaxed);
        csds_metrics::lock_wait(start.elapsed().as_nanos() as u64);
        csds_metrics::lock_acquire(true);
    }

    fn try_lock(&self) -> bool {
        if !self.tail.load(Ordering::Relaxed).is_null() {
            return false;
        }
        let node = Box::into_raw(pool_pop());
        // SAFETY: freshly owned node, reset before publication.
        unsafe {
            (*node).locked.store(true, Ordering::Relaxed);
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        match self
            .tail
            .compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => {
                self.owner.store(node, Ordering::Relaxed);
                csds_metrics::lock_acquire(false);
                true
            }
            Err(_) => {
                // SAFETY: node was never published; reclaim it.
                pool_push(unsafe { Box::from_raw(node) });
                false
            }
        }
    }

    fn unlock(&self) {
        let node = self.owner.load(Ordering::Relaxed);
        debug_assert!(!node.is_null(), "unlock without holding McsLock");
        // SAFETY: `node` is the holder's node; we are the holder.
        unsafe {
            let mut next = (*node).next.load(Ordering::Acquire);
            if next.is_null() {
                // No known successor: try to swing tail back to null.
                if self
                    .tail
                    .compare_exchange(node, ptr::null_mut(), Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    pool_push(Box::from_raw(node));
                    return;
                }
                // A successor is enqueueing; wait for its link to appear.
                let mut backoff = Backoff::new();
                loop {
                    next = (*node).next.load(Ordering::Acquire);
                    if !next.is_null() {
                        break;
                    }
                    backoff.snooze();
                }
            }
            (*next).locked.store(false, Ordering::Release);
            pool_push(Box::from_raw(node));
        }
    }

    fn is_locked(&self) -> bool {
        !self.tail.load(Ordering::Relaxed).is_null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn handoff_between_threads() {
        let lock = Arc::new(McsLock::new());
        lock.lock();
        let l2 = Arc::clone(&lock);
        let h = std::thread::spawn(move || {
            l2.lock();
            l2.unlock();
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        lock.unlock();
        h.join().unwrap();
        assert!(!lock.is_locked());
    }

    #[test]
    fn reentrant_pool_supports_two_locks() {
        // A thread holding two MCS locks simultaneously must get two distinct
        // queue nodes from the pool.
        let a = McsLock::new();
        let b = McsLock::new();
        a.lock();
        b.lock();
        assert!(a.is_locked() && b.is_locked());
        b.unlock();
        a.unlock();
        assert!(!a.is_locked() && !b.is_locked());
    }
}
