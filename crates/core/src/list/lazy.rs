//! The lazy concurrent list-based set (Heller, Herlihy, Luchangco, Moir,
//! Scherer, Shavit — "A Lazy Concurrent List-Based Set Algorithm" [24]).
//!
//! This is the best-performing blocking list in the paper and the structure
//! behind its linked-list results (Figs. 1, 3–9). Its asynchronized shape:
//!
//! * `get` traverses `next` pointers with **no stores and no restarts**;
//! * updates **parse** to the `(pred, curr)` window without synchronization,
//!   then lock only `pred` (a link) or `pred` and `curr` (a replace or an
//!   unlink), validate (`!pred.marked && !curr.marked && pred.next ==
//!   curr`), and apply;
//! * removal is **lazy**: mark `curr` (logical delete), then unlink
//!   (physical delete); readers ignore marked nodes.
//!
//! `insert_in`, `remove_in` and `rmw_in` run one write loop, `write`: it
//! parses, asks its caller's decision (keep, put a value, or remove) about
//! the node found, and makes that one write through `apply`. A stale window
//! parses and decides again.
//!
//! `apply` is written once, over [`csds_htm::Exec`]: [`SyncMode::Locks`]
//! runs it through a lock set that takes the per-node locks. In
//! [`SyncMode::Elision`] a link, a replace or an unlink first runs it as an
//! emulated hardware transaction (paper §5.4): the validation becomes the
//! transaction's read set, the stores its write set, and the locks it
//! names its commit's lock set. A write whose speculation gave up runs it
//! through the lock set.

use csds_sync::atomic::{AtomicUsize, Ordering};

use csds_ebr::{pin, Atomic, Guard, Shared};
use csds_htm::{Exec, TxRegion};
use csds_sync::{RawMutex, TasLock};

use crate::key::{self, HEAD_IKEY, TAIL_IKEY};
use crate::write::{Decide, Insert, Remove, Write, Written};
use crate::{GuardedMap, RmwFn, RmwOutcome, SyncMode, ELISION_RETRIES};

/// `marked` state: node is live.
const LIVE: usize = 0;
/// `marked` state: node is logically deleted (readers treat the key as
/// absent).
const DELETED: usize = 1;
/// `marked` state: node was atomically replaced by a same-key node carrying
/// a new value (a put on a present key). The key is still present; readers
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

    /// The write loop behind `insert_in`, `remove_in` and `rmw_in`: parse
    /// to the `(pred, curr)` window, decide on what it holds, then write
    /// through [`apply`](Self::apply), which [`csds_htm::run`] runs
    /// through the lock set, or in elision mode first through
    /// transactions; a stale window parses and decides again. A
    /// `SUPERSEDED` `curr` re-parses before the decision: its key lives on
    /// in the replacing node. A `DELETED` one reads as absent, and a put
    /// waits for the remover to unlink it. Read-only decisions linearize at
    /// the parse's observation of `curr`.
    fn write<'g>(
        &'g self,
        key: u64,
        mut decide: impl Decide<V>,
        guard: &'g Guard,
    ) -> Written<'g, V> {
        let ikey = key::ikey(key);
        loop {
            let (pred_s, curr_s) = self.search(ikey, guard);
            // SAFETY: pinned.
            let (pred, curr) = unsafe { (pred_s.deref(), curr_s.deref()) };
            let found = curr.key == ikey;
            let state = curr.marked.load(Ordering::Acquire);
            if found && state == SUPERSEDED {
                csds_metrics::restart();
                continue;
            }
            let cur = (found && state == LIVE)
                .then(|| curr.value.as_ref().expect("live node holds a value"));
            let new_s = match decide.decide(cur) {
                Write::Keep => return Written::kept(cur),
                Write::Put(v) if found && cur.is_none() => {
                    decide.unapplied(v);
                    csds_metrics::restart();
                    continue;
                }
                Write::Put(v) => Some(Shared::boxed(Node {
                    key: ikey,
                    value: Some(v),
                    lock: L::new(),
                    marked: AtomicUsize::new(LIVE),
                    next: Atomic::null(),
                })),
                Write::Remove => None,
            };
            let present = cur.is_some();
            if csds_htm::run::<L, 2>(
                self.region.as_ref(),
                ELISION_RETRIES,
                |tx| Self::apply(tx, pred, curr_s, present, new_s),
                |locks| Self::apply(locks, pred, curr_s, present, new_s),
            ) {
                if present {
                    // SAFETY: unlinked by this writer, whose mark (made
                    // holding both locks, by the locked write or by a
                    // commit) makes it the unique retirer.
                    unsafe { guard.defer_drop(curr_s) };
                }
                // SAFETY: published; pinned.
                let put = new_s.and_then(|n| unsafe { n.deref() }.value.as_ref());
                return Written::wrote(cur, put);
            }
            csds_metrics::restart();
            if let Some(n) = new_s {
                // SAFETY: never published; the value goes back to the
                // decision.
                decide.unapplied(
                    unsafe { n.into_box() }
                        .value
                        .expect("put nodes hold a value"),
                );
            }
        }
    }

    /// The write phase on the parsed window: link `new_s` in front of
    /// `curr` (`present` false), replace a present `curr` by `new_s`, or
    /// unlink it (`new_s` `None`). Lock `pred` (and a present `curr`, in
    /// list order), validate the window (`!pred.marked && !curr.marked &&
    /// pred.next == curr`) and store. A link or a replace linearizes at the
    /// `pred.next` store, an unlink at its `DELETED` mark; a replaced node
    /// is marked `SUPERSEDED` in the same critical section, so no reader
    /// sees the key absent. `false`: the window went stale.
    fn apply<'a>(
        e: &mut impl Exec<'a, L>,
        pred: &'a Node<V, L>,
        curr_s: Shared<'a, Node<V, L>>,
        present: bool,
        new_s: Option<Shared<'a, Node<V, L>>>,
    ) -> bool {
        // SAFETY: pinned.
        let curr = unsafe { curr_s.deref() };
        e.lock(&pred.lock);
        if present {
            e.lock(&curr.lock);
        }
        let link = pred.next.as_raw_atomic();
        if e.read(&pred.marked) != LIVE
            || e.read(&curr.marked) != LIVE
            || e.read(link) != curr_s.as_raw()
        {
            return false;
        }
        // `curr.next` is stable under `curr`'s lock: any writer of that edge
        // locks `curr` first.
        let succ = if present {
            let mark = if new_s.is_some() { SUPERSEDED } else { DELETED };
            e.write(&curr.marked, mark);
            e.read(curr.next.as_raw_atomic())
        } else {
            curr_s.as_raw()
        };
        if let Some(n) = new_s {
            // SAFETY: unpublished until the link store below.
            e.write(unsafe { n.deref() }.next.as_raw_atomic(), succ);
        }
        e.write(link, new_s.map_or(succ, |n| n.as_raw()));
        true
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
    /// Clone-free reference valid for `'g`; no stores, no restarts.
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
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

    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        self.write(key, Insert(Some(value)), guard).applied
    }

    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        self.write(key, Remove, guard).prev.cloned()
    }

    fn len_in(&self, guard: &Guard) -> usize {
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

    /// Early-exits at the first live node.
    fn is_empty_in(&self, guard: &Guard) -> bool {
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

    /// The write loop with the closure's decision: a present key is
    /// replaced by a fresh same-key node, an absent one linked as insert
    /// links it; both linearize at the `pred.next` store.
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        self.write(key, f, guard).into()
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

    #[test]
    fn elided_replace_speculates() {
        // A replace runs the one write phase, speculation included: an
        // uncontended upsert of a present key commits without a lock.
        let m = LazyList::<u64>::with_mode(SyncMode::Elision);
        assert!(m.insert(10, 1));
        let _ = csds_metrics::take_and_reset();
        assert_eq!(m.upsert(10, 2), Some(1));
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.elide_commits, 1);
        assert_eq!(snap.lock_acquires, 0);
        assert_eq!(m.get(10), Some(2));
    }
}
