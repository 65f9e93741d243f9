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
//! * an RMW replaces a present key's leaf wholesale in its parent slot.
//!
//! The updates run one write loop, `write`, which asks its caller's
//! decision (keep, put a value, or remove) about the leaf found: a put goes
//! through `put_leaf` and its `link` body, a remove through `unlink_leaf`
//! and its `unlink` body. Both record [`OptikLock`] versions during the
//! parse and acquire at those versions: a version mismatch means the
//! neighborhood changed, and the operation restarts instead of waiting. The
//! root slot is guarded by a dedicated holder lock so the tree can shrink
//! to a single leaf or to empty.
//!
//! The bodies are written once, over [`csds_htm::VersionExec`].
//! [`SyncMode::Locks`] runs them through a lock set, whose acquisitions are
//! `try_lock_version` guards that run the critical-section delay hook and
//! unlock on drop. The one lock never released is the parent router a
//! `remove` splices out: the body names it with `retire_version`, and the
//! committing set leaves its version odd for good, so a thread holding a
//! stale pointer to the router can never lock it again. In
//! [`SyncMode::Elision`] a body first runs as an emulated hardware
//! transaction that names the same locks at the same parsed versions; its
//! commit takes them, moves their versions as a guard does, and leaves a
//! spliced-out router's lock held for good.

use csds_ebr::{Atomic, Guard, Shared};
use csds_htm::{TxRegion, VersionExec};
use csds_sync::{OptikLock, RawMutex};

use crate::write::{Decide, Insert, Remove, Write, Written};
use crate::{key, GuardedMap, RmwFn, RmwOutcome, SyncMode, ELISION_RETRIES};

struct Node<V> {
    key: u64,
    /// `Some` for leaves, `None` for internal (router) nodes.
    value: Option<V>,
    leaf: bool,
    lock: OptikLock,
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
/// the slot's owner (None for the root holder). Taking the lock at `ver`
/// proves the slot unchanged and the owner still in the tree.
struct Edge<'g, V> {
    slot: &'g Atomic<Node<V>>,
    lock: &'g OptikLock,
    ver: u64,
    owner: Option<Shared<'g, Node<V>>>,
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

    /// The write loop behind `insert_in`, `remove_in` and `rmw_in`: parse
    /// to the leaf responsible for `k`, decide on what it holds, then write
    /// through [`put_leaf`](Self::put_leaf) or
    /// [`unlink_leaf`](Self::unlink_leaf). Any version movement restarts,
    /// as everywhere in BST-TK: the write phases never wait. Read-only
    /// decisions linearize at the parse's leaf read.
    fn write<'g>(&'g self, k: u64, mut decide: impl Decide<V>, guard: &'g Guard) -> Written<'g, V> {
        key::check_user_key(k);
        loop {
            let (gp, p, leaf) = self.parse(k, guard);
            // SAFETY: pinned.
            let found = leaf.filter(|l| unsafe { l.deref() }.key == k);
            // SAFETY: pinned.
            let cur = found.map(|l| {
                unsafe { l.deref() }
                    .value
                    .as_ref()
                    .expect("leaves hold values")
            });
            match decide.decide(cur) {
                Write::Put(value) => match self.put_leaf(k, value, &p, leaf, found.is_some()) {
                    Ok(put) => {
                        if let Some(old) = found {
                            // SAFETY: unlinked by the winning slot store;
                            // retired once.
                            unsafe { guard.defer_drop(old) };
                        }
                        return Written::wrote(cur, Some(put));
                    }
                    Err(value) => decide.unapplied(value),
                },
                Write::Remove if found.is_some() => {
                    if self.unlink_leaf(gp.as_ref(), &p, found.expect("present"), guard) {
                        return Written::wrote(cur, None);
                    }
                }
                _ => return Written::kept(cur),
            }
            csds_metrics::restart();
        }
    }

    /// A put on edge `p`, whose slot held `leaf` (`None` for an empty tree)
    /// at parse time. An absent key's new leaf replaces `leaf` alone, or
    /// beside it under a new router; with `replace`, the new leaf replaces
    /// the present key's `leaf` wholesale (leaves are immutable).
    /// [`csds_htm::run`] runs the [`link`](Self::link) body. Returns the
    /// published value, or `Err(value)` when the operation must restart.
    fn put_leaf<'g>(
        &'g self,
        k: u64,
        value: V,
        p: &Edge<'g, V>,
        leaf: Option<Shared<'g, Node<V>>>,
        replace: bool,
    ) -> Result<&'g V, V> {
        let new_leaf = Shared::boxed(Node::leaf(k, value));
        let replacement = match leaf {
            Some(old_leaf) if !replace => {
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
            _ => new_leaf,
        };
        if csds_htm::run::<OptikLock, 1>(
            self.region.as_ref(),
            ELISION_RETRIES,
            |tx| Self::link(tx, p, replacement),
            |locks| Self::link(locks, p, replacement),
        ) {
            // SAFETY: published; pinned.
            return Ok(unsafe { new_leaf.deref() }
                .value
                .as_ref()
                .expect("leaves hold values"));
        }
        // Free the unpublished replacement and hand the value back (the old
        // leaf stays in the tree and is not ours to free).
        // SAFETY: never published; `new_leaf` is `replacement` itself or one
        // of the router's children (nodes have no Drop impl, so dropping the
        // router frees only the router).
        unsafe {
            if replacement != new_leaf {
                drop(replacement.into_box());
            }
            Err(new_leaf
                .into_box()
                .value
                .take()
                .expect("leaves hold values"))
        }
    }

    /// The write phase of a put: take `p`'s lock at its parsed version and
    /// store the replacement in its slot. **Linearization point: the slot
    /// store.** `false`: the version moved.
    fn link<'a>(
        e: &mut impl VersionExec<'a>,
        p: &Edge<'a, V>,
        replacement: Shared<'a, Node<V>>,
    ) -> bool {
        if !e.lock_version(p.lock, p.ver) {
            return false;
        }
        e.write(p.slot.as_raw_atomic(), replacement.as_raw());
        true
    }

    /// A remove: unlink `leaf_s`, the leaf `p`'s slot held at parse time,
    /// through [`csds_htm::run`] and the [`unlink`](Self::unlink) body.
    /// Below the root this splices the leaf's sibling into the
    /// grandparent's slot, unlinking the parent router too; a root leaf
    /// empties the tree. `false` means restart.
    fn unlink_leaf(
        &self,
        gp: Option<&Edge<'_, V>>,
        p: &Edge<'_, V>,
        leaf_s: Shared<'_, Node<V>>,
        guard: &Guard,
    ) -> bool {
        // Below the root: the parent router and the leaf's sibling slot.
        let parent = gp.map(|_| {
            let parent_s = p.owner.expect("edge below root has an owner");
            // SAFETY: pinned.
            let parent = unsafe { parent_s.deref() };
            let sibling = if std::ptr::eq(p.slot, &parent.left) {
                &parent.right
            } else {
                &parent.left
            };
            (parent_s, sibling)
        });
        let splice = gp.zip(parent.map(|(_, sibling)| sibling));
        if !csds_htm::run::<OptikLock, 2>(
            self.region.as_ref(),
            ELISION_RETRIES,
            |tx| Self::unlink(tx, p, splice),
            |locks| Self::unlink(locks, p, splice),
        ) {
            return false;
        }
        // SAFETY: unlinked by the winning unlink; retired exactly once.
        unsafe {
            if let Some((parent_s, _)) = parent {
                guard.defer_drop(parent_s);
            }
            guard.defer_drop(leaf_s);
        }
        true
    }

    /// The write phase of a remove: take the grandparent's lock, then the
    /// parent's, each at its parsed version, and store the leaf's sibling
    /// in the grandparent's slot; a root leaf (`splice` `None`) takes the
    /// root holder's lock and empties the slot. **Linearization point: the
    /// slot store.** `false`: a version moved.
    ///
    /// The spliced-out parent router's lock stays held *forever* once the
    /// write commits: a thread that reached the router through a stale
    /// pointer and then read its (post-unlink) version must not be able to
    /// acquire it. Its version word is odd for the rest of its
    /// (EBR-bounded) lifetime, so every `try_lock_version` on it fails;
    /// without this, a stale insert could link below a dead router (lost
    /// update) or a stale remove could splice out of one (double retire).
    fn unlink<'a>(
        e: &mut impl VersionExec<'a>,
        p: &Edge<'a, V>,
        splice: Option<(&Edge<'a, V>, &'a Atomic<Node<V>>)>,
    ) -> bool {
        let Some((gp, sibling)) = splice else {
            if !e.lock_version(p.lock, p.ver) {
                return false;
            }
            e.write(p.slot.as_raw_atomic(), 0);
            return true;
        };
        if !e.lock_version(gp.lock, gp.ver) || !e.retire_version(p.lock, p.ver) {
            return false;
        }
        let to = e.read(sibling.as_raw_atomic());
        e.write(gp.slot.as_raw_atomic(), to);
        true
    }
}

impl<V: Clone + Send + Sync> GuardedMap<V> for BstTk<V> {
    /// Clone-free reference valid for `'g`. The paper's BST-TK search — no
    /// stores, no version checks, no restarts — in both [`SyncMode`]s.
    ///
    /// Linearizable as it stands. The tree is external and leaves are
    /// immutable after publication (an RMW replaces the leaf wholesale), so
    /// the answer depends only on *which* leaf the descent reaches. A router
    /// keeps its child pointers once it is unlinked (its lock stays held
    /// forever, so every later write phase on it fails), so a child pointer
    /// read from it is the one it held at some instant when it was still on
    /// `k`'s search path. By induction from the root load, every
    /// node the descent reaches — the leaf included — was on the search path
    /// at some instant inside the call, and the read linearizes there.
    fn get_in<'g>(&'g self, k: u64, guard: &'g Guard) -> Option<&'g V> {
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

    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        self.write(key, Insert(Some(value)), guard).applied
    }

    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        self.write(key, Remove, guard).prev.cloned()
    }

    fn len_in(&self, guard: &Guard) -> usize {
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

    fn is_empty_in(&self, guard: &Guard) -> bool {
        // O(1): leaves are the only value carriers and the root of an empty
        // external tree is null.
        self.root.load(guard).is_null()
    }

    /// The write loop with the closure's decision: a present key's leaf is
    /// swapped wholesale for a fresh leaf, an absent key linked as insert
    /// links it; both linearize at the parent-slot store.
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        self.write(key, f, guard).into()
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
        let ops = if cfg!(miri) { 100 } else { 5_000 };
        testutil::concurrent_net_effect(Arc::new(BstTk::new()), 4, ops, 64);
    }

    #[test]
    fn concurrent_net_effect_elision() {
        testutil::concurrent_net_effect(
            Arc::new(BstTk::with_mode(SyncMode::Elision)),
            4,
            if cfg!(miri) { 100 } else { 3_000 },
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

    #[test]
    fn elided_replace_speculates() {
        // A replace runs the one write phase, speculation included: an
        // uncontended upsert of a present key commits without a lock.
        let m = BstTk::<u64>::with_mode(SyncMode::Elision);
        assert!(m.insert(10, 1));
        let _ = csds_metrics::take_and_reset();
        assert_eq!(m.upsert(10, 2), Some(1));
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.elide_commits, 1);
        assert_eq!(snap.lock_acquires, 0);
        assert_eq!(m.get(10), Some(2));
    }
}
