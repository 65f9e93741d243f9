//! The lazy concurrent list-based set (Heller, Herlihy, Luchangco, Moir,
//! Scherer, Shavit — "A Lazy Concurrent List-Based Set Algorithm" [24]).
//!
//! This is the best-performing blocking list in the paper and the structure
//! behind its linked-list results (Figs. 1, 3–9). Its asynchronized shape:
//!
//! * `get` traverses `next` pointers with **no stores and no restarts**;
//! * updates **parse** to the `(pred, curr)` window without synchronization,
//!   then lock only `pred` (insert) or `pred` and `curr` (remove), validate
//!   (`!pred.marked && !curr.marked && pred.next == curr`), and apply;
//! * removal is **lazy**: mark `curr` (logical delete), then unlink
//!   (physical delete); readers ignore marked nodes.
//!
//! In [`SyncMode::Elision`] the write phase runs as an emulated hardware
//! transaction instead of taking the per-node locks (paper §5.4); the
//! validation becomes the transaction's read set and the two stores its
//! write set. When speculation gives up, the operation runs the one locked
//! write phase, which enters the region after its last lock and before it
//! validates.

use csds_sync::atomic::{AtomicUsize, Ordering};

use csds_ebr::{pin, Atomic, Guard, Shared};
use csds_htm::{attempt_elision, Elided, SpecStep, TxRegion};
use csds_sync::{lock_guard, RawMutex, TasLock};

use crate::key::{self, HEAD_IKEY, TAIL_IKEY};
use crate::{GuardedMap, RmwFn, RmwOutcome, SyncMode, ELISION_RETRIES};

/// `marked` state: node is live.
const LIVE: usize = 0;
/// `marked` state: node is logically deleted (readers treat the key as
/// absent).
const DELETED: usize = 1;
/// `marked` state: node was atomically replaced by a same-key node carrying
/// a new value ([`LazyList::rmw_in`]). The key is still present; readers
/// that raced onto this node return its (now stale) value and linearize
/// before the replacement, while writer validation (`marked != 0`) treats
/// the node as gone.
const SUPERSEDED: usize = 2;

struct Node<V, L: RawMutex> {
    key: u64,
    value: Option<V>,
    lock: L,
    /// [`LIVE`], [`DELETED`] or `SUPERSEDED`. `usize` so the HTM
    /// emulation can address it transactionally.
    marked: AtomicUsize,
    next: Atomic<Node<V, L>>,
}

impl<V, L: RawMutex> Node<V, L> {
    fn sentinel(ikey: u64) -> Self {
        Node {
            key: ikey,
            value: None,
            lock: L::new(),
            marked: AtomicUsize::new(0),
            next: Atomic::null(),
        }
    }

    /// Writer validation: the node left the list (deleted *or* superseded);
    /// any window involving it is stale.
    #[inline]
    fn is_marked(&self) -> bool {
        self.marked.load(Ordering::Acquire) != LIVE
    }

    /// Reader predicate: the key is absent through this node. A
    /// `SUPERSEDED` node still represents its (continuously present) key,
    /// so readers do not treat it as deleted.
    #[inline]
    fn is_deleted(&self) -> bool {
        self.marked.load(Ordering::Acquire) == DELETED
    }
}

/// A `(pred, curr)` pair returned by the parse phase.
type NodePair<'g, V, L> = (Shared<'g, Node<V, L>>, Shared<'g, Node<V, L>>);

/// Lazy list-based set. See the module docs.
///
/// Generic over the per-node lock `L` (default [`TasLock`], as in the
/// paper §3.2), so a comparison of node locks for the paper's "no benefit
/// from more complex locks" observation names e.g.
/// `LazyList<u64, csds_sync::McsLock>` directly.
pub struct LazyList<V, L: RawMutex = TasLock> {
    head: Atomic<Node<V, L>>,
    region: Option<TxRegion>,
}

impl<V: Clone + Send + Sync, L: RawMutex + 'static> Default for LazyList<V, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Send + Sync, L: RawMutex + 'static> LazyList<V, L> {
    /// Empty list using per-node locks for write phases.
    pub fn new() -> Self {
        Self::with_mode(SyncMode::Locks)
    }

    /// Empty list with an explicit write-phase synchronization mode.
    pub fn with_mode(mode: SyncMode) -> Self {
        let tail = Atomic::new(Node::sentinel(TAIL_IKEY));
        let mut head = Node::sentinel(HEAD_IKEY);
        head.next = tail;
        LazyList {
            head: Atomic::new(head),
            region: match mode {
                SyncMode::Locks => None,
                SyncMode::Elision => Some(TxRegion::new()),
            },
        }
    }

    /// Parse phase: find `(pred, curr)` with `pred.key < ikey <= curr.key`.
    /// Synchronization-free; never restarts.
    fn search<'g>(&self, ikey: u64, guard: &'g Guard) -> NodePair<'g, V, L> {
        let mut pred = self.head.load(guard);
        // SAFETY: the head sentinel is never retired.
        let mut curr = unsafe { pred.deref() }.next.load(guard);
        loop {
            // SAFETY: nodes reachable while pinned are not freed (EBR).
            let c = unsafe { curr.deref() };
            if c.key >= ikey {
                return (pred, curr);
            }
            pred = curr;
            curr = c.next.load(guard);
        }
    }

    /// Guard-scoped `get`: clone-free reference valid for `'g`.
    pub fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        let ikey = key::ikey(key);
        let (_, curr_s) = self.search(ikey, guard);
        // SAFETY: pinned.
        let curr = unsafe { curr_s.deref() };
        if curr.key == ikey && !curr.is_deleted() {
            curr.value.as_ref()
        } else {
            None
        }
    }

    /// Guard-scoped `insert`.
    pub fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        let ikey = key::ikey(key);
        // The new node is allocated once and reused across restarts.
        let mut new_node: Option<Shared<'_, Node<V, L>>> = None;
        let mut value = Some(value);
        loop {
            let (pred_s, curr_s) = self.search(ikey, guard);
            // SAFETY: pinned.
            let pred = unsafe { pred_s.deref() };
            let curr = unsafe { curr_s.deref() };
            if curr.key == ikey {
                if curr.is_marked() {
                    // A removal of the same key is mid-flight; re-parse.
                    csds_metrics::restart();
                    continue;
                }
                if let Some(n) = new_node.take() {
                    // SAFETY: never published; we still own the allocation.
                    unsafe { drop(n.into_box()) };
                }
                return false;
            }
            let new_s = *new_node.get_or_insert_with(|| {
                Shared::boxed(Node {
                    key: ikey,
                    value: value.take(),
                    lock: L::new(),
                    marked: AtomicUsize::new(0),
                    next: Atomic::null(),
                })
            });
            // SAFETY: `new_s` is unpublished; we have exclusive access.
            unsafe { new_s.deref() }.next.store(curr_s);

            if let Some(region) = &self.region {
                match attempt_elision(region, ELISION_RETRIES, |tx| {
                    if tx.read(&pred.marked) != 0 {
                        return SpecStep::Invalid;
                    }
                    if tx.read(pred.next.as_raw_atomic()) != curr_s.as_raw() {
                        return SpecStep::Invalid;
                    }
                    tx.write(pred.next.as_raw_atomic(), new_s.as_raw());
                    SpecStep::Commit(())
                }) {
                    Elided::Committed(()) => return true,
                    Elided::Invalid => {
                        csds_metrics::restart();
                        continue;
                    }
                    Elided::FellBack => {}
                }
            }

            // Write phase: lock pred, (elision mode) enter the region,
            // validate, link.
            let g = lock_guard(&pred.lock);
            let fb = self.region.as_ref().map(TxRegion::enter_fallback);
            if pred.is_marked() || curr.is_marked() || pred.next.load(guard) != curr_s {
                drop(fb);
                drop(g);
                csds_metrics::restart();
                continue;
            }
            pred.next.store(new_s);
            drop(fb);
            drop(g);
            return true;
        }
    }

    /// Guard-scoped `remove`.
    pub fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        let ikey = key::ikey(key);
        loop {
            let (pred_s, curr_s) = self.search(ikey, guard);
            // SAFETY: pinned.
            let pred = unsafe { pred_s.deref() };
            let curr = unsafe { curr_s.deref() };
            if curr.key != ikey {
                return None;
            }
            match curr.marked.load(Ordering::Acquire) {
                // Already logically deleted by someone else.
                DELETED => return None,
                // Replaced by a same-key node: the key is still present in
                // its new node; re-parse and remove that one.
                SUPERSEDED => {
                    csds_metrics::restart();
                    continue;
                }
                _ => {}
            }

            if let Some(region) = &self.region {
                match attempt_elision(region, ELISION_RETRIES, |tx| {
                    if tx.read(&pred.marked) != 0 || tx.read(&curr.marked) != 0 {
                        return SpecStep::Invalid;
                    }
                    if tx.read(pred.next.as_raw_atomic()) != curr_s.as_raw() {
                        return SpecStep::Invalid;
                    }
                    let succ = tx.read(curr.next.as_raw_atomic());
                    tx.write(&curr.marked, 1);
                    tx.write(pred.next.as_raw_atomic(), succ);
                    SpecStep::Commit(())
                }) {
                    Elided::Committed(()) => {
                        let v = curr.value.clone();
                        // SAFETY: `curr` is unlinked (committed atomically)
                        // and retired exactly once by this remover.
                        unsafe { guard.defer_drop(curr_s) };
                        return v;
                    }
                    Elided::Invalid => {
                        csds_metrics::restart();
                        continue;
                    }
                    Elided::FellBack => {}
                }
            }

            // Write phase: lock pred and curr in list order, (elision mode)
            // enter the region, validate, mark and unlink.
            let gp = lock_guard(&pred.lock);
            let gc = lock_guard(&curr.lock);
            let fb = self.region.as_ref().map(TxRegion::enter_fallback);
            if pred.is_marked() || curr.is_marked() || pred.next.load(guard) != curr_s {
                drop(fb);
                drop(gc);
                drop(gp);
                csds_metrics::restart();
                continue;
            }
            curr.marked.store(1, Ordering::Release); // logical delete
            pred.next.store(curr.next.load(guard)); // physical delete
            drop(fb);
            drop(gc);
            drop(gp);
            let v = curr.value.clone();
            // SAFETY: `curr` is unlinked; only this remover retires it (the
            // marked flag flipped under both locks guarantees uniqueness).
            unsafe { guard.defer_drop(curr_s) };
            return v;
        }
    }

    /// Guard-scoped element count (O(n); quiescently consistent).
    pub fn len_in(&self, guard: &Guard) -> usize {
        let mut n = 0;
        // SAFETY: head never retired; traversal is pinned.
        let mut curr = unsafe { self.head.load(guard).deref() }.next.load(guard);
        loop {
            // SAFETY: pinned traversal.
            let c = unsafe { curr.deref() };
            if c.key == TAIL_IKEY {
                return n;
            }
            if !c.is_deleted() {
                n += 1;
            }
            curr = c.next.load(guard);
        }
    }

    /// Guard-scoped atomic closure RMW; the native override behind
    /// [`GuardedMap::rmw_in`].
    ///
    /// Present key: the write phase locks `pred` and `curr` (the same
    /// discipline as `remove_in`), re-validates the window, and atomically
    /// replaces `curr` with a fresh same-key node carrying the closure's
    /// value — the old node is marked `SUPERSEDED` and unlinked in the
    /// same critical section, so no reader can observe the key absent.
    /// **Linearization point: the `pred.next` store** (lock release order
    /// for racing writers). Absent key: the insert linearizes at the
    /// `pred.next` store of the standard insert write phase. Read-only
    /// decisions linearize at the parse phase's observation of `curr`.
    pub fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        let ikey = key::ikey(key);
        loop {
            let (pred_s, curr_s) = self.search(ikey, guard);
            // SAFETY: pinned.
            let pred = unsafe { pred_s.deref() };
            let curr = unsafe { curr_s.deref() };
            if curr.key == ikey {
                if curr.is_marked() {
                    // Deleted (await unlink) or superseded (stale window):
                    // re-parse either way.
                    csds_metrics::restart();
                    continue;
                }
                let current = curr.value.as_ref().expect("live node holds a value");
                let Some(new_value) = f(Some(current)) else {
                    // Read-only decision: linearizes at the parse.
                    return RmwOutcome {
                        prev: Some(current.clone()),
                        cur: Some(current),
                        applied: false,
                    };
                };
                // Write phase: both locks, fallback seq-lock (elision mode)
                // held across validation *and* stores.
                let gp = lock_guard(&pred.lock);
                let gc = lock_guard(&curr.lock);
                let fb = self.region.as_ref().map(TxRegion::enter_fallback);
                if pred.is_marked() || curr.is_marked() || pred.next.load(guard) != curr_s {
                    drop(fb);
                    drop(gc);
                    drop(gp);
                    csds_metrics::restart();
                    continue;
                }
                let new_s = Shared::boxed(Node {
                    key: ikey,
                    value: Some(new_value),
                    lock: L::new(),
                    marked: AtomicUsize::new(LIVE),
                    next: Atomic::null(),
                });
                // SAFETY: unpublished; `curr.next` is stable under `gc`
                // (any writer of that edge locks `curr` first).
                unsafe { new_s.deref() }.next.store(curr.next.load(guard));
                curr.marked.store(SUPERSEDED, Ordering::Release);
                pred.next.store(new_s); // linearization point
                drop(fb);
                drop(gc);
                drop(gp);
                let prev = curr.value.clone();
                // SAFETY: unlinked under both locks; the SUPERSEDED
                // transition makes this replacer the unique retirer.
                unsafe { guard.defer_drop(curr_s) };
                // SAFETY: published; pinned.
                let cur = unsafe { new_s.deref() }.value.as_ref();
                return RmwOutcome {
                    prev,
                    cur,
                    applied: true,
                };
            }
            // Absent.
            let Some(new_value) = f(None) else {
                return RmwOutcome {
                    prev: None,
                    cur: None,
                    applied: false,
                };
            };
            let new_s = Shared::boxed(Node {
                key: ikey,
                value: Some(new_value),
                lock: L::new(),
                marked: AtomicUsize::new(LIVE),
                next: Atomic::null(),
            });
            // SAFETY: unpublished.
            unsafe { new_s.deref() }.next.store(curr_s);
            let gp = lock_guard(&pred.lock);
            let fb = self.region.as_ref().map(TxRegion::enter_fallback);
            if pred.is_marked() || curr.is_marked() || pred.next.load(guard) != curr_s {
                drop(fb);
                drop(gp);
                // SAFETY: never published.
                unsafe { drop(new_s.into_box()) };
                csds_metrics::restart();
                continue;
            }
            pred.next.store(new_s); // linearization point
            drop(fb);
            drop(gp);
            // SAFETY: published; pinned.
            let cur = unsafe { new_s.deref() }.value.as_ref();
            return RmwOutcome {
                prev: None,
                cur,
                applied: true,
            };
        }
    }

    /// Guard-scoped emptiness: early-exits at the first live node.
    pub fn is_empty_in(&self, guard: &Guard) -> bool {
        // SAFETY: head never retired; traversal is pinned.
        let mut curr = unsafe { self.head.load(guard).deref() }.next.load(guard);
        loop {
            // SAFETY: pinned traversal.
            let c = unsafe { curr.deref() };
            if c.key == TAIL_IKEY {
                return true;
            }
            if !c.is_deleted() {
                return false;
            }
            curr = c.next.load(guard);
        }
    }

    /// Snapshot of the user keys currently present (racy but memory-safe;
    /// intended for tests and diagnostics on quiescent structures).
    pub fn keys(&self) -> Vec<u64> {
        let g = pin();
        let mut out = Vec::new();
        // SAFETY: head never retired; traversal is pinned.
        let mut curr = unsafe { self.head.load(&g).deref() }.next.load(&g);
        loop {
            // SAFETY: pinned traversal.
            let c = unsafe { curr.deref() };
            if c.key == TAIL_IKEY {
                return out;
            }
            if !c.is_deleted() {
                out.push(key::ukey(c.key));
            }
            curr = c.next.load(&g);
        }
    }
}

impl<V: Clone + Send + Sync, L: RawMutex + 'static> GuardedMap<V> for LazyList<V, L> {
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        LazyList::get_in(self, key, guard)
    }

    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        LazyList::insert_in(self, key, value, guard)
    }

    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        LazyList::remove_in(self, key, guard)
    }

    fn len_in(&self, guard: &Guard) -> usize {
        LazyList::len_in(self, guard)
    }

    fn is_empty_in(&self, guard: &Guard) -> bool {
        LazyList::is_empty_in(self, guard)
    }

    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        LazyList::rmw_in(self, key, f, guard)
    }
}

impl<V, L: RawMutex> Drop for LazyList<V, L> {
    fn drop(&mut self) {
        // Exclusive access: walk the raw chain and free every node,
        // sentinels included. Retired (unlinked) nodes are owned by EBR.
        let mut p = self.head.load_raw();
        while p != 0 {
            // SAFETY: &mut self gives exclusive ownership of all linked
            // nodes; each was allocated via Box.
            let node = unsafe { Box::from_raw(p as *mut Node<V, L>) };
            p = node.next.load_raw();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{testutil, ConcurrentMap};
    use std::sync::Arc;

    #[test]
    fn basic_semantics() {
        let l = LazyList::<u64>::new();
        assert!(l.is_empty());
        assert!(l.insert(5, 50));
        assert!(!l.insert(5, 51), "duplicate insert must fail");
        assert_eq!(l.get(5), Some(50));
        assert_eq!(l.get(6), None);
        assert!(l.insert(3, 30));
        assert!(l.insert(7, 70));
        assert_eq!(l.len(), 3);
        assert_eq!(l.keys(), vec![3, 5, 7]);
        assert_eq!(l.remove(5), Some(50));
        assert_eq!(l.remove(5), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn boundary_keys() {
        let l = LazyList::<u64>::new();
        assert!(l.insert(0, 1));
        assert!(l.insert(key::MAX_USER_KEY, 2));
        assert_eq!(l.get(0), Some(1));
        assert_eq!(l.get(key::MAX_USER_KEY), Some(2));
        assert_eq!(l.remove(0), Some(1));
        assert_eq!(l.remove(key::MAX_USER_KEY), Some(2));
        assert!(l.is_empty());
    }

    #[test]
    fn sequential_model() {
        testutil::sequential_model_check(LazyList::<u64>::new(), 4_000, 64);
    }

    #[test]
    fn sequential_model_elision() {
        testutil::sequential_model_check(LazyList::<u64>::with_mode(SyncMode::Elision), 4_000, 64);
    }

    #[test]
    fn concurrent_net_effect() {
        testutil::concurrent_net_effect(Arc::new(LazyList::<u64>::new()), 4, 5_000, 32);
    }

    #[test]
    fn concurrent_net_effect_elision() {
        testutil::concurrent_net_effect(
            Arc::new(LazyList::<u64>::with_mode(SyncMode::Elision)),
            4,
            3_000,
            32,
        );
    }

    #[test]
    fn reads_never_restart() {
        let _ = csds_metrics::take_and_reset();
        let l = LazyList::<u64>::new();
        for k in 0..100 {
            l.insert(k, k);
        }
        let _ = csds_metrics::take_and_reset();
        for k in 0..200 {
            let _ = l.get(k);
        }
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.restarts, 0, "lazy-list reads must not restart");
        assert_eq!(snap.lock_acquires, 0, "lazy-list reads must not lock");
    }

    #[test]
    fn drop_frees_without_leak_or_crash() {
        let l = LazyList::<Vec<u64>>::new();
        for k in 0..100 {
            l.insert(k, vec![k; 4]);
        }
        for k in 0..50 {
            l.remove(k);
        }
        drop(l); // must not double-free retired nodes
    }
}
