//! BST-TK: external binary search tree with versioned ticket trylocks
//! (David, Guerraoui, Trigonakis — ASPLOS'15 [9]; locks per OPTIK [22]).
//!
//! *External* tree: internal nodes are pure routers; key-value pairs live
//! only in leaves. A search key `x` descends left when `x < node.key`,
//! right otherwise.
//!
//! * `get` descends with no stores;
//! * `insert` replaces the leaf's parent-slot with a freshly built internal
//!   node (two leaves) — it needs the **parent** only;
//! * `remove` unlinks the leaf *and* its parent, splicing the sibling into
//!   the **grandparent**'s slot — it needs grandparent and parent.
//!
//! Both updates record [`OptikLock`] versions during the parse and acquire
//! via `try_lock_version`: a version mismatch means the neighborhood
//! changed, and the operation restarts instead of waiting. The root slot is
//! guarded by a dedicated holder lock so the tree can shrink to a single
//! leaf or to empty.
//!
//! Each acquisition is a guard that runs the critical-section delay hook
//! and unlocks on drop. The one lock never released is the parent router a
//! `remove` splices out: its guard is consumed by `retire`, which leaves the
//! version odd for good, so a thread holding a stale pointer to the router
//! can never lock it again.

use csds_sync::atomic::{AtomicUsize, Ordering};

use csds_ebr::{Atomic, Guard, Shared};
use csds_htm::{attempt_elision, Elided, SpecStep, TxRegion};
use csds_sync::{OptikLock, RawMutex};

use crate::{key, GuardedMap, RmwFn, RmwOutcome, SyncMode, ELISION_RETRIES};

struct Node<V> {
    key: u64,
    /// `Some` for leaves, `None` for internal (router) nodes.
    value: Option<V>,
    leaf: bool,
    lock: OptikLock,
    /// 0 = in tree, 1 = unlinked (validated by speculative sections).
    removed: AtomicUsize,
    left: Atomic<Node<V>>,
    right: Atomic<Node<V>>,
}

impl<V> Node<V> {
    fn leaf(key: u64, value: V) -> Self {
        Node {
            key,
            value: Some(value),
            leaf: true,
            lock: OptikLock::new(),
            removed: AtomicUsize::new(0),
            left: Atomic::null(),
            right: Atomic::null(),
        }
    }

    fn internal(key: u64) -> Self {
        Node {
            key,
            value: None,
            leaf: false,
            lock: OptikLock::new(),
            removed: AtomicUsize::new(0),
            left: Atomic::null(),
            right: Atomic::null(),
        }
    }

    #[inline]
    fn child(&self, go_left: bool) -> &Atomic<Node<V>> {
        if go_left {
            &self.left
        } else {
            &self.right
        }
    }
}

/// One parse-phase edge: the slot that points at the current node, the lock
/// guarding that slot, the version observed *before* reading the slot, and
/// the owner's removed flag (None for the root holder).
struct Edge<'g, V> {
    slot: &'g Atomic<Node<V>>,
    lock: &'g OptikLock,
    ver: u64,
    owner: Option<Shared<'g, Node<V>>>,
}

impl<'g, V> Edge<'g, V> {
    fn owner_removed(&self) -> Option<&'g AtomicUsize> {
        // SAFETY: owner (if any) is pinned for 'g.
        self.owner.map(|o| &unsafe { o.deref() }.removed)
    }

    /// Write-phase validation, run with this edge's lock (and, in elision
    /// mode, the region) held: the owner is still in the tree and the slot
    /// still points at `expected`. In locking mode a matched version already
    /// implies it; elided commits move no version, so there it is needed.
    fn holds(&self, expected: Shared<'_, Node<V>>) -> bool {
        self.owner_removed()
            .map_or(true, |r| r.load(Ordering::Acquire) == 0)
            && self.slot.load_raw() == expected.as_raw()
    }
}

/// Result of the parse phase: `(grandparent_edge, parent_edge, leaf)`.
type ParseResult<'g, V> = (
    Option<Edge<'g, V>>,
    Edge<'g, V>,
    Option<Shared<'g, Node<V>>>,
);

/// BST-TK external search tree. See the module docs.
pub struct BstTk<V> {
    root: Atomic<Node<V>>,
    root_lock: OptikLock,
    region: Option<TxRegion>,
}

impl<V: Clone + Send + Sync> Default for BstTk<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Send + Sync> BstTk<V> {
    /// Empty tree with versioned trylocks.
    pub fn new() -> Self {
        Self::with_mode(SyncMode::Locks)
    }

    /// Empty tree with an explicit write-phase synchronization mode.
    pub fn with_mode(mode: SyncMode) -> Self {
        BstTk {
            root: Atomic::null(),
            root_lock: OptikLock::new(),
            region: match mode {
                SyncMode::Locks => None,
                SyncMode::Elision => Some(TxRegion::new()),
            },
        }
    }

    /// Parse phase: descend to the leaf responsible for `key`. Returns
    /// `(grandparent_edge, parent_edge, leaf)`; `None` leaf means the tree
    /// is empty. No stores, no restarts.
    fn parse<'g>(&'g self, key: u64, guard: &'g Guard) -> ParseResult<'g, V> {
        let mut gp: Option<Edge<'g, V>> = None;
        let mut p = Edge {
            slot: &self.root,
            lock: &self.root_lock,
            ver: self.root_lock.version(),
            owner: None,
        };
        let mut curr = p.slot.load(guard);
        loop {
            if curr.is_null() {
                return (gp, p, None);
            }
            // SAFETY: pinned.
            let c = unsafe { curr.deref() };
            if c.leaf {
                return (gp, p, Some(curr));
            }
            let ver = c.lock.version();
            let go_left = key < c.key;
            let next = Edge {
                slot: c.child(go_left),
                lock: &c.lock,
                ver,
                owner: Some(curr),
            };
            gp = Some(p);
            p = next;
            curr = p.slot.load(guard);
        }
    }

    /// The locked write phase on edge `p`: a versioned trylock on its lock,
    /// restarting on any version movement (BST-TK never waits); then, in
    /// elision mode, the region; then the validation and `write`. Both
    /// guards are released on return, the region first. `false` means
    /// restart.
    #[inline]
    fn write_locked(
        &self,
        p: &Edge<'_, V>,
        expected: Shared<'_, Node<V>>,
        write: impl FnOnce(),
    ) -> bool {
        let Some(_pg) = p.lock.try_lock_version(p.ver) else {
            return false;
        };
        let _fb = self.region.as_ref().map(TxRegion::enter_fallback);
        if !p.holds(expected) {
            return false;
        }
        write();
        true
    }

    /// The write phase of an absent key, shared by `insert_in` and
    /// `rmw_in`: replace `leaf` — the one `p`'s slot held at parse time,
    /// `None` for an empty tree — by a new leaf for `k` (alone, or beside
    /// the old leaf under a new router). Speculates first in elision mode.
    /// Returns the published value, or `Err(value)` when the operation
    /// must restart.
    fn link_leaf<'g>(
        &'g self,
        k: u64,
        value: V,
        p: &Edge<'g, V>,
        leaf: Option<Shared<'g, Node<V>>>,
    ) -> Result<&'g V, V> {
        let new_leaf = Shared::boxed(Node::leaf(k, value));
        let replacement = match leaf {
            None => new_leaf,
            Some(old_leaf) => {
                // SAFETY: pinned.
                let ol = unsafe { old_leaf.deref() };
                // Router key: the larger of the two; smaller goes left.
                let internal = Shared::boxed(Node::internal(k.max(ol.key)));
                // SAFETY: unpublished.
                let i = unsafe { internal.deref() };
                let (left, right) = if k < ol.key {
                    (new_leaf, old_leaf)
                } else {
                    (old_leaf, new_leaf)
                };
                i.left.store(left);
                i.right.store(right);
                internal
            }
        };
        let expected = leaf.unwrap_or_else(Shared::null);
        // SAFETY: published by the caller's successful write; pinned.
        let published = || {
            Ok(unsafe { new_leaf.deref() }
                .value
                .as_ref()
                .expect("leaves hold values"))
        };
        // Free the unpublished replacement and hand the value back (the
        // old leaf stays in the tree and is not ours to free).
        let restart = || {
            // SAFETY: never published; `new_leaf` is `replacement` itself
            // or one of the router's children (nodes have no Drop impl, so
            // dropping the router frees only the router).
            unsafe {
                if leaf.is_some() {
                    drop(replacement.into_box());
                }
                Err(new_leaf
                    .into_box()
                    .value
                    .take()
                    .expect("leaves hold values"))
            }
        };

        if let Some(region) = &self.region {
            let p_removed = p.owner_removed();
            match attempt_elision(region, ELISION_RETRIES, |tx| {
                if let Some(r) = p_removed {
                    if tx.read(r) != 0 {
                        return SpecStep::Invalid;
                    }
                }
                if tx.read(p.slot.as_raw_atomic()) != expected.as_raw() {
                    return SpecStep::Invalid;
                }
                tx.write(p.slot.as_raw_atomic(), replacement.as_raw());
                SpecStep::Commit(())
            }) {
                Elided::Committed(()) => return published(),
                Elided::Invalid => return restart(),
                Elided::FellBack => {}
            }
        }
        // Linearization point: the slot store.
        if self.write_locked(p, expected, || p.slot.store(replacement)) {
            published()
        } else {
            restart()
        }
    }

    /// Guard-scoped `insert`.
    pub fn insert_in(&self, k: u64, mut value: V, guard: &Guard) -> bool {
        key::check_user_key(k);
        loop {
            let (_gp, p, leaf) = self.parse(k, guard);
            if let Some(leaf_s) = leaf {
                // SAFETY: pinned.
                if unsafe { leaf_s.deref() }.key == k {
                    return false;
                }
            }
            match self.link_leaf(k, value, &p, leaf) {
                Ok(_) => return true,
                Err(v) => {
                    value = v;
                    csds_metrics::restart();
                }
            }
        }
    }

    /// Guard-scoped `remove`.
    pub fn remove_in(&self, k: u64, guard: &Guard) -> Option<V> {
        key::check_user_key(k);
        let key = k;
        loop {
            let (gp, p, leaf) = self.parse(key, guard);
            let leaf_s = leaf?;
            // SAFETY: pinned.
            let l = unsafe { leaf_s.deref() };
            if l.key != key {
                return None;
            }
            let mut speculated = false;
            match gp {
                None => {
                    // The leaf is the entire tree: empty it.
                    if let Some(region) = &self.region {
                        match attempt_elision(region, ELISION_RETRIES, |tx| {
                            if tx.read(&l.removed) != 0 {
                                return SpecStep::Invalid;
                            }
                            if tx.read(p.slot.as_raw_atomic()) != leaf_s.as_raw() {
                                return SpecStep::Invalid;
                            }
                            tx.write(p.slot.as_raw_atomic(), 0);
                            tx.write(&l.removed, 1);
                            SpecStep::Commit(())
                        }) {
                            Elided::Committed(()) => speculated = true,
                            Elided::Invalid => {
                                csds_metrics::restart();
                                continue;
                            }
                            Elided::FellBack => {}
                        }
                    }
                    if !speculated
                        && !self.write_locked(&p, leaf_s, || {
                            p.slot.store(Shared::null());
                            l.removed.store(1, Ordering::Release);
                        })
                    {
                        csds_metrics::restart();
                        continue;
                    }
                    let out = l.value.clone();
                    // SAFETY: unlinked; retired once by this remover (the
                    // winning unlink).
                    unsafe { guard.defer_drop(leaf_s) };
                    return out;
                }
                Some(gp) => {
                    // Unlink the leaf and its parent router; splice the
                    // sibling into the grandparent slot.
                    let parent_s = p.owner.expect("edge below root has an owner");
                    // SAFETY: pinned.
                    let parent = unsafe { parent_s.deref() };
                    let sibling_slot = if std::ptr::eq(p.slot, &parent.left) {
                        &parent.right
                    } else {
                        &parent.left
                    };

                    if let Some(region) = &self.region {
                        let gp_removed = gp.owner_removed();
                        match attempt_elision(region, ELISION_RETRIES, |tx| {
                            if let Some(r) = gp_removed {
                                if tx.read(r) != 0 {
                                    return SpecStep::Invalid;
                                }
                            }
                            if tx.read(&parent.removed) != 0 || tx.read(&l.removed) != 0 {
                                return SpecStep::Invalid;
                            }
                            if tx.read(gp.slot.as_raw_atomic()) != parent_s.as_raw() {
                                return SpecStep::Invalid;
                            }
                            if tx.read(p.slot.as_raw_atomic()) != leaf_s.as_raw() {
                                return SpecStep::Invalid;
                            }
                            let sibling = tx.read(sibling_slot.as_raw_atomic());
                            tx.write(gp.slot.as_raw_atomic(), sibling);
                            tx.write(&parent.removed, 1);
                            tx.write(&l.removed, 1);
                            SpecStep::Commit(())
                        }) {
                            Elided::Committed(()) => speculated = true,
                            Elided::Invalid => {
                                csds_metrics::restart();
                                continue;
                            }
                            Elided::FellBack => {}
                        }
                    }
                    if !speculated {
                        // Grandparent first, then parent — both versioned
                        // trylocks; restart on failure. Guards drop in
                        // reverse: region, parent, grandparent.
                        let Some(_gpg) = gp.lock.try_lock_version(gp.ver) else {
                            csds_metrics::restart();
                            continue;
                        };
                        let Some(pg) = p.lock.try_lock_version(p.ver) else {
                            csds_metrics::restart();
                            continue;
                        };
                        let _fb = self.region.as_ref().map(TxRegion::enter_fallback);
                        if !(gp.holds(parent_s) && p.holds(leaf_s)) {
                            csds_metrics::restart();
                            continue;
                        }
                        let sibling = sibling_slot.load(guard);
                        gp.slot.store(sibling);
                        parent.removed.store(1, Ordering::Release);
                        l.removed.store(1, Ordering::Release);
                        // The unlinked router stays locked *forever*: a
                        // thread that reached it through a stale pointer
                        // and then read its (post-unlink) version must not
                        // be able to acquire it — its version word is odd
                        // for the rest of its (EBR-bounded) lifetime, so
                        // every try_lock_version on it fails. Without this,
                        // a stale insert could link below a dead router
                        // (lost update) or a stale remove could splice out
                        // of one (double retire).
                        pg.retire();
                    }
                    let out = l.value.clone();
                    // SAFETY: both unlinked by the winning unlink; retired
                    // exactly once.
                    unsafe {
                        guard.defer_drop(parent_s);
                        guard.defer_drop(leaf_s);
                    }
                    return out;
                }
            }
        }
    }
}

impl<V: Clone + Send + Sync> BstTk<V> {
    /// Guard-scoped atomic closure RMW; the native override behind
    /// [`GuardedMap::rmw_in`].
    ///
    /// The external tree makes replacement structural and atomic: a present
    /// key's leaf is swapped wholesale for a fresh leaf carrying the
    /// closure's value, via one store into the parent slot under the
    /// parent's versioned trylock (elision-mode trees then also enter the
    /// region); an absent key reuses the insert write phase (new leaf, or
    /// router + two leaves). **Linearization
    /// point: the parent-slot store**; read-only decisions linearize at the
    /// parse phase's leaf read. Version mismatches restart, as everywhere
    /// in BST-TK.
    pub fn rmw_in<'g>(&'g self, k: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        key::check_user_key(k);
        loop {
            let (_gp, p, leaf) = self.parse(k, guard);
            let matched = leaf.and_then(|ls| {
                // SAFETY: pinned.
                let l = unsafe { ls.deref() };
                (l.key == k).then_some((ls, l))
            });
            if let Some((leaf_s, l)) = matched {
                let current = l.value.as_ref().expect("leaves hold values");
                let Some(new_value) = f(Some(current)) else {
                    return RmwOutcome {
                        prev: Some(current.clone()),
                        cur: Some(current),
                        applied: false,
                    };
                };
                let new_leaf = Shared::boxed(Node::leaf(k, new_value));
                // Write phase: replace the leaf in its parent slot.
                if !self.write_locked(&p, leaf_s, || {
                    p.slot.store(new_leaf); // linearization point
                    l.removed.store(1, Ordering::Release);
                }) {
                    // SAFETY: never published.
                    unsafe { drop(new_leaf.into_box()) };
                    csds_metrics::restart();
                    continue;
                }
                let prev = l.value.clone();
                // SAFETY: unlinked by the winning slot store; retired once.
                unsafe { guard.defer_drop(leaf_s) };
                // SAFETY: published; pinned.
                let cur = unsafe { new_leaf.deref() }.value.as_ref();
                return RmwOutcome {
                    prev,
                    cur,
                    applied: true,
                };
            }
            // Absent: the closure may decline or insert.
            let Some(new_value) = f(None) else {
                return RmwOutcome {
                    prev: None,
                    cur: None,
                    applied: false,
                };
            };
            match self.link_leaf(k, new_value, &p, leaf) {
                Ok(cur) => {
                    return RmwOutcome {
                        prev: None,
                        cur: Some(cur),
                        applied: true,
                    }
                }
                // The closure re-runs against the re-parsed tree.
                Err(_) => csds_metrics::restart(),
            }
        }
    }

    /// Guard-scoped `get`: clone-free reference valid for `'g`. The paper's
    /// BST-TK search — no stores, no version checks, no restarts — in both
    /// [`SyncMode`]s.
    ///
    /// Linearizable as it stands. The tree is external and leaves are
    /// immutable after publication (an RMW replaces the leaf wholesale), so
    /// the answer depends only on *which* leaf the descent reaches. A router
    /// keeps its child pointers once it is unlinked (its lock stays held
    /// forever, or its `removed` flag fails every later write phase), so a
    /// child pointer read from it is the one it held at some instant when it
    /// was still on `k`'s search path. By induction from the root load, every
    /// node the descent reaches — the leaf included — was on the search path
    /// at some instant inside the call, and the read linearizes there.
    pub fn get_in<'g>(&'g self, k: u64, guard: &'g Guard) -> Option<&'g V> {
        key::check_user_key(k);
        let mut curr = self.root.load(guard);
        loop {
            if curr.is_null() {
                return None;
            }
            // SAFETY: pinned.
            let c = unsafe { curr.deref() };
            if c.leaf {
                return if c.key == k { c.value.as_ref() } else { None };
            }
            curr = c.child(k < c.key).load(guard);
        }
    }

    /// Guard-scoped element count (O(n); quiescently consistent).
    pub fn len_in(&self, guard: &Guard) -> usize {
        let mut n = 0;
        let mut stack = vec![self.root.load(guard)];
        while let Some(s) = stack.pop() {
            if s.is_null() {
                continue;
            }
            // SAFETY: pinned traversal.
            let node = unsafe { s.deref() };
            if node.leaf {
                n += 1;
            } else {
                stack.push(node.left.load(guard));
                stack.push(node.right.load(guard));
            }
        }
        n
    }
}

impl<V: Clone + Send + Sync> GuardedMap<V> for BstTk<V> {
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        BstTk::get_in(self, key, guard)
    }

    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        BstTk::insert_in(self, key, value, guard)
    }

    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        BstTk::remove_in(self, key, guard)
    }

    fn len_in(&self, guard: &Guard) -> usize {
        BstTk::len_in(self, guard)
    }

    fn is_empty_in(&self, guard: &Guard) -> bool {
        // O(1): leaves are the only value carriers and the root of an empty
        // external tree is null.
        self.root.load(guard).is_null()
    }

    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        BstTk::rmw_in(self, key, f, guard)
    }
}

impl<V> Drop for BstTk<V> {
    fn drop(&mut self) {
        let mut stack = vec![self.root.load_raw()];
        while let Some(p) = stack.pop() {
            if p == 0 {
                continue;
            }
            // SAFETY: exclusive via &mut self.
            let node = unsafe { Box::from_raw(p as *mut Node<V>) };
            stack.push(node.left.load_raw());
            stack.push(node.right.load_raw());
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
        let t = BstTk::new();
        assert!(t.is_empty());
        assert!(t.insert(50, 1));
        assert!(t.insert(30, 2));
        assert!(t.insert(70, 3));
        assert!(!t.insert(50, 9));
        assert_eq!(t.get(30), Some(2));
        assert_eq!(t.get(31), None);
        assert_eq!(t.remove(30), Some(2));
        assert_eq!(t.remove(30), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn shrink_to_empty_and_regrow() {
        let t = BstTk::new();
        assert!(t.insert(5, 5));
        assert_eq!(t.remove(5), Some(5));
        assert!(t.is_empty());
        assert!(t.insert(6, 6));
        assert!(t.insert(2, 2));
        assert_eq!(t.remove(6), Some(6));
        assert_eq!(t.remove(2), Some(2));
        assert!(t.is_empty());
    }

    #[test]
    fn sequential_model() {
        testutil::sequential_model_check(BstTk::new(), 5_000, 128);
    }

    #[test]
    fn sequential_model_elision() {
        testutil::sequential_model_check(BstTk::with_mode(SyncMode::Elision), 5_000, 128);
    }

    #[test]
    fn concurrent_net_effect() {
        testutil::concurrent_net_effect(Arc::new(BstTk::new()), 4, 5_000, 64);
    }

    #[test]
    fn concurrent_net_effect_elision() {
        testutil::concurrent_net_effect(
            Arc::new(BstTk::with_mode(SyncMode::Elision)),
            4,
            3_000,
            64,
        );
    }

    #[test]
    fn updates_never_wait_for_locks() {
        // BST-TK's locking-mode updates use trylocks only: lock-wait time
        // must be zero even under contention (paper Fig. 5, BST column).
        let t = Arc::new(BstTk::new());
        let mut handles = Vec::new();
        for id in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let _ = csds_metrics::take_and_reset();
                const ITERS: u64 = if cfg!(miri) { 100 } else { 3_000 };
                for i in 0..ITERS {
                    let k = (i * 7 + id) % 32;
                    if i % 2 == 0 {
                        t.insert(k, k);
                    } else {
                        t.remove(k);
                    }
                }
                csds_metrics::take_and_reset()
            }));
        }
        for h in handles {
            let snap = h.join().unwrap();
            assert_eq!(snap.lock_wait_ns, 0, "BST-TK must not wait for locks");
        }
    }

    #[test]
    fn unlinked_router_stays_locked() {
        // insert 10, 20 ⇒ root = router(20) over leaves 10 and 20.
        let t = BstTk::new();
        assert!(t.insert(10, 1));
        assert!(t.insert(20, 2));
        let guard = csds_ebr::pin();
        let router_s = t.root.load(&guard);
        // SAFETY: pinned; retired routers stay allocated until we unpin.
        let router = unsafe { router_s.deref() };
        assert!(!router.leaf);
        assert!(!router.lock.is_locked());
        assert_eq!(t.remove_in(10, &guard), Some(1));
        assert_ne!(t.root.load(&guard), router_s, "router spliced out");
        assert!(router.lock.is_locked(), "a spliced-out router stays locked");
        assert!(router.lock.read_begin().is_none());
        assert!(router
            .lock
            .try_lock_version(router.lock.version())
            .is_none());
        assert!(!t.root_lock.is_locked(), "the grandparent was released");
        assert_eq!(t.get_in(20, &guard), Some(&2));
    }

    #[test]
    fn elided_rmw_of_an_absent_key_speculates() {
        // The absent arm shares `insert_in`'s write phase, speculation
        // included: an uncontended rmw-insert commits without a lock.
        let t = BstTk::with_mode(SyncMode::Elision);
        assert!(t.insert(10, 1));
        let _ = csds_metrics::take_and_reset();
        assert_eq!(t.rmw(20, &mut |_| Some(2)), (None, Some(2), true));
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.elide_commits, 1);
        assert_eq!(snap.lock_acquires, 0);
        assert_eq!(t.get(20), Some(2));
    }

    #[test]
    fn external_tree_routing_is_consistent() {
        let t = BstTk::new();
        let keys = [8u64, 3, 10, 1, 6, 14, 4, 7, 13];
        for &k in &keys {
            assert!(t.insert(k, k * 10));
        }
        for &k in &keys {
            assert_eq!(t.get(k), Some(k * 10), "key {k}");
        }
        assert_eq!(t.len(), keys.len());
        // Remove in a different order.
        for &k in &[6u64, 8, 1, 14, 3, 13, 10, 4, 7] {
            assert_eq!(t.remove(k), Some(k * 10), "remove {k}");
        }
        assert!(t.is_empty());
    }
}
