//! Lock-free skiplist (Fraser [18] / Herlihy–Shavit style).
//!
//! Mark bits live in the tag of each level's `next` pointer. Removal marks
//! the tower top-down; the level-0 mark is the linearization point. A
//! subsequent `find` physically snips the node out of every level it still
//! occupies, **top-down**, so the thread whose CAS removes the node from
//! level 0 knows the node is fully unlinked and is the unique retirer.
//!
//! An inserter that discovers (after linking an upper level) that its node
//! was concurrently marked runs one more `find` to guarantee the node is
//! snipped from whatever it just linked, before unpinning — this closes the
//! link-after-retire race without reference counting.

// Per-level windows live in fixed arrays indexed by level; iterating the
// level as an index keeps preds/succs visibly in lockstep.
#![allow(clippy::needless_range_loop)]

use csds_ebr::{pin, Atomic, Guard, Shared};

use crate::key::{self, HEAD_IKEY, TAIL_IKEY};
use crate::skiplist::{
    alloc_node, free_all, node, random_level, reclaim, retire, Header, MAX_LEVEL,
};
use crate::{GuardedMap, RmwFn, RmwOutcome};

/// Tag bit: the node owning this `next` pointer is deleted at this level.
const MARK: usize = 1;

/// The node header; its successors follow it in the same block (see the
/// [module layout](super)).
///
/// The value lives behind an atomic pointer (null in sentinels), exactly
/// like [`HarrisList`](crate::list::HarrisList)'s protocol: presence stays
/// the level-0 `next` mark; the winning remover **claims** the value (swap
/// to null) right after its level-0 mark CAS; a compound RMW replaces a
/// clean node's value with one CAS on `value` and linearizes there — a
/// replace that lands between a remover's mark and its claim linearizes
/// immediately before the remove, which then returns the replaced-in
/// value.
struct Node<V> {
    key: u64,
    value: Atomic<V>,
    top_level: u8,
}

// 24 bytes, so a node up to height 5 fits in 64.
const _: () = assert!(std::mem::size_of::<Node<u64>>() == 24);

// SAFETY: `top_level` is never written after construction.
unsafe impl<V> Header for Node<V> {
    #[inline]
    fn top_level(&self) -> usize {
        usize::from(self.top_level)
    }
}

impl<V> Node<V> {
    fn new(ikey: u64, value: Option<V>, height: usize) -> Self {
        Node {
            key: ikey,
            value: value.map_or_else(Atomic::null, Atomic::new),
            top_level: (height - 1) as u8,
        }
    }
}

impl<V> Drop for Node<V> {
    fn drop(&mut self) {
        let raw = self.value.load_raw();
        if raw != 0 {
            // SAFETY: dropping a node owns its current value box; claimed
            // or replaced boxes were nulled/swapped out and retired
            // separately.
            unsafe { drop(Box::from_raw(raw as *mut V)) };
        }
    }
}

/// Fraser-style lock-free skiplist. See the module docs.
pub struct LockFreeSkipList<V> {
    head: Atomic<Node<V>>,
}

impl<V: Clone + Send + Sync> Default for LockFreeSkipList<V> {
    fn default() -> Self {
        Self::new()
    }
}

type Windows<'g, V> = (
    [Shared<'g, Node<V>>; MAX_LEVEL],
    [Shared<'g, Node<V>>; MAX_LEVEL],
);

impl<V: Clone + Send + Sync> LockFreeSkipList<V> {
    /// Empty skiplist.
    pub fn new() -> Self {
        let tail = alloc_node(Node::new(TAIL_IKEY, None, MAX_LEVEL));
        let head = alloc_node(Node::new(HEAD_IKEY, None, MAX_LEVEL));
        for l in 0..MAX_LEVEL {
            // SAFETY: owned, unpublished.
            unsafe { node(head) }.next(l).store(tail);
        }
        LockFreeSkipList {
            head: Atomic::from(head),
        }
    }

    /// Find per-level windows, snipping marked nodes top-down. The thread
    /// whose CAS removes a node from level 0 retires it.
    fn find<'g>(&self, ikey: u64, guard: &'g Guard) -> (Windows<'g, V>, bool) {
        'retry: loop {
            let mut preds = [Shared::null(); MAX_LEVEL];
            let mut succs = [Shared::null(); MAX_LEVEL];
            let mut pred = self.head.load(guard);
            for level in (0..MAX_LEVEL).rev() {
                // SAFETY: pinned traversal; head never retired.
                let mut curr = unsafe { node(pred) }.next(level).load(guard).with_tag(0);
                loop {
                    // SAFETY: pinned.
                    let c = unsafe { node(curr) };
                    let mut succ = c.next(level).load(guard);
                    while succ.tag() == MARK {
                        // curr is deleted at this level: snip it.
                        // SAFETY: pinned.
                        let p = unsafe { node(pred) };
                        match p
                            .next(level)
                            .compare_exchange(curr, succ.with_tag(0), guard)
                        {
                            Ok(_) => {
                                if level == 0 {
                                    // Fully unlinked (upper levels were
                                    // snipped by this or earlier finds).
                                    // SAFETY: unique retirer — the winning
                                    // level-0 snip.
                                    unsafe { retire(guard, curr) };
                                }
                            }
                            Err(_) => {
                                csds_metrics::restart();
                                continue 'retry;
                            }
                        }
                        curr = succ.with_tag(0);
                        // SAFETY: pinned.
                        succ = unsafe { node(curr) }.next(level).load(guard);
                    }
                    // SAFETY: pinned.
                    if unsafe { node(curr) }.key < ikey {
                        pred = curr;
                        curr = succ.with_tag(0);
                    } else {
                        break;
                    }
                }
                preds[level] = pred;
                succs[level] = curr;
            }
            // SAFETY: pinned.
            let found = unsafe { node(succs[0]) }.key == ikey;
            return ((preds, succs), found);
        }
    }

    /// Present user keys (racy but safe).
    pub fn keys(&self) -> Vec<u64> {
        let g = pin();
        let mut out = Vec::new();
        // SAFETY: pinned bottom-level traversal.
        let mut curr = unsafe { node(self.head.load(&g)) }
            .next(0)
            .load(&g)
            .with_tag(0);
        loop {
            // SAFETY: pinned.
            let c = unsafe { node(curr) };
            if c.key == TAIL_IKEY {
                return out;
            }
            let next = c.next(0).load(&g);
            if next.tag() != MARK {
                out.push(key::ukey(c.key));
            }
            curr = next.with_tag(0);
        }
    }

    /// Guard-scoped pop-min: remove and return the smallest present key —
    /// the Lotan–Shavit lock-free priority queue over the Harris-marked
    /// towers. The bottom level is walked from the head, skipping
    /// logically-deleted (marked) nodes; the first live node is claimed by
    /// winning its level-0 mark CAS (**the linearization point**), after
    /// which physical unlinking is batched into one `find` descent,
    /// exactly as for [`remove_in`](Self::remove_in).
    ///
    /// Upper levels are marked *before* the level-0 CAS: the `find` whose
    /// level-0 snip wins retires the node immediately, relying on the same
    /// descent having already snipped every marked upper level. Marking a
    /// node another popper just claimed is harmless — its memory is pinned
    /// by our guard and the stray marks touch an unreachable tower.
    ///
    /// Lost head races (a marked candidate, a failed mark CAS) are counted
    /// into the pq-pop contention metric. The returned reference stays valid
    /// for `'g`: the caller's pin blocks the reclamation epoch from
    /// advancing past its own deferred retirement.
    pub fn pop_min_in<'g>(&'g self, guard: &'g Guard) -> Option<(u64, &'g V)> {
        let mut lost = 0u64;
        let out = 'op: {
            // SAFETY: pinned bottom-level traversal; head never retired.
            let mut curr = unsafe { node(self.head.load(guard)) }
                .next(0)
                .load(guard)
                .with_tag(0);
            loop {
                // SAFETY: pinned.
                let c = unsafe { node(curr) };
                if c.key == TAIL_IKEY {
                    break 'op None;
                }
                let next = c.next(0).load(guard);
                if next.tag() == MARK {
                    curr = next.with_tag(0);
                    continue;
                }
                // Candidate head. Mark its upper levels top-down first
                // (idempotent; see the method docs for why level 0 is last).
                for l in (1..=c.top_level()).rev() {
                    loop {
                        let nxt = c.next(l).load(guard);
                        if nxt.tag() == MARK {
                            break;
                        }
                        if c.next(l)
                            .compare_exchange(nxt, nxt.with_tag(MARK), guard)
                            .is_ok()
                        {
                            break;
                        }
                    }
                }
                match c.next(0).compare_exchange(next, next.with_tag(MARK), guard) {
                    Ok(_) => {
                        // Claim the value (serializes with `rmw_in`
                        // replacement, exactly as in `remove_in`).
                        let vptr = c.value.swap(Shared::null(), guard);
                        debug_assert!(!vptr.is_null(), "mark winner claims exactly once");
                        // Batched physical unlink: the find that performs
                        // the level-0 snip retires the node.
                        let _ = self.find(c.key, guard);
                        // SAFETY: claimed by our CAS; the caller's pin keeps
                        // the box alive across its own deferred retirement.
                        let val = unsafe { vptr.deref() };
                        // SAFETY: unlinked from the node by the claim.
                        unsafe { guard.defer_drop(vptr) };
                        csds_metrics::pq_pop();
                        break 'op Some((key::ukey(c.key), val));
                    }
                    Err(_) => {
                        // A racing popper/remover marked it, or an insert
                        // swung the successor: reload and retry this
                        // candidate (a fresh mark sends us onward).
                        lost += 1;
                        csds_metrics::restart();
                    }
                }
            }
        };
        if lost > 0 {
            csds_metrics::pq_pop_contention(lost);
        }
        out
    }

    /// Guard-scoped peek-min: the smallest present key without removing it
    /// (quiescently consistent — a racing pop may already have claimed the
    /// value box, in which case the walk moves past the node).
    pub fn peek_min_in<'g>(&'g self, guard: &'g Guard) -> Option<(u64, &'g V)> {
        // SAFETY: pinned bottom-level traversal.
        let mut curr = unsafe { node(self.head.load(guard)) }
            .next(0)
            .load(guard)
            .with_tag(0);
        loop {
            // SAFETY: pinned.
            let c = unsafe { node(curr) };
            if c.key == TAIL_IKEY {
                return None;
            }
            let next = c.next(0).load(guard);
            if next.tag() != MARK {
                // SAFETY: value boxes are EBR-retired; pinned.
                if let Some(v) = unsafe { c.value.load(guard).as_ref() } {
                    return Some((key::ukey(c.key), v));
                }
            }
            curr = next.with_tag(0);
        }
    }
}

impl<V: Clone + Send + Sync> GuardedMap<V> for LockFreeSkipList<V> {
    /// Guard-scoped `get`: clone-free reference valid for `'g`.
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        let ikey = key::ikey(key);
        // Wait-free traversal: descend without snipping (no stores).
        let mut pred = self.head.load(guard);
        let mut candidate = Shared::null();
        for level in (0..MAX_LEVEL).rev() {
            // SAFETY: pinned; head never retired.
            let mut curr = unsafe { node(pred) }.next(level).load(guard).with_tag(0);
            loop {
                // SAFETY: pinned.
                let c = unsafe { node(curr) };
                if c.key < ikey {
                    pred = curr;
                    curr = c.next(level).load(guard).with_tag(0);
                } else {
                    if c.key == ikey && candidate.is_null() {
                        candidate = curr;
                    }
                    break;
                }
            }
        }
        if candidate.is_null() {
            return None;
        }
        // SAFETY: pinned.
        let c = unsafe { node(candidate) };
        if c.next(0).load(guard).tag() == MARK {
            None
        } else {
            // Null means a racing remove (marked after our tag check)
            // already claimed the value: absent.
            // SAFETY: value boxes are EBR-retired; pinned.
            unsafe { c.value.load(guard).as_ref() }
        }
    }

    /// Guard-scoped `insert`.
    fn insert_in(&self, ukey: u64, value: V, guard: &Guard) -> bool {
        let ikey = key::ikey(ukey);
        let height = random_level();
        let top = height - 1;
        let mut new_node: Option<Shared<'_, Node<V>>> = None;
        let mut value = Some(value);
        loop {
            let ((preds, succs), found) = self.find(ikey, guard);
            if found {
                if let Some(n) = new_node.take() {
                    // SAFETY: never published.
                    unsafe { drop(reclaim(n)) };
                }
                return false;
            }
            let new_s =
                *new_node.get_or_insert_with(|| alloc_node(Node::new(ikey, value.take(), height)));
            // SAFETY: unpublished (level 0 not linked yet).
            let new_ref = unsafe { node(new_s) };
            for l in 0..=top {
                new_ref.next(l).store(succs[l]);
            }
            // Level-0 CAS is the linearization point.
            // SAFETY: pinned.
            let p0 = unsafe { node(preds[0]) };
            if p0.next(0).compare_exchange(succs[0], new_s, guard).is_err() {
                csds_metrics::restart();
                continue;
            }
            // Link upper levels (best effort; abandon if we get deleted).
            for l in 1..=top {
                loop {
                    let nl = new_ref.next(l).load(guard);
                    if nl.tag() == MARK {
                        // Concurrently deleted: make sure whatever we linked
                        // is snipped before we unpin.
                        let _ = self.find(ikey, guard);
                        return true;
                    }
                    let ((preds2, succs2), _) = self.find(ikey, guard);
                    if succs2[0] != new_s {
                        // Our node is gone from level 0: deleted + snipped.
                        return true;
                    }
                    if nl.with_tag(0) != succs2[l]
                        && new_ref
                            .next(l)
                            .compare_exchange(nl, succs2[l], guard)
                            .is_err()
                    {
                        // Marked underneath us; handled on next loop.
                        continue;
                    }
                    // SAFETY: pinned.
                    let p = unsafe { node(preds2[l]) };
                    if p.next(l).compare_exchange(succs2[l], new_s, guard).is_ok() {
                        // If a remover marked us while we linked, snip.
                        if new_ref.next(0).load(guard).tag() == MARK {
                            let _ = self.find(ikey, guard);
                            return true;
                        }
                        break;
                    }
                    csds_metrics::restart();
                }
            }
            return true;
        }
    }

    /// Guard-scoped `remove`.
    fn remove_in(&self, ukey: u64, guard: &Guard) -> Option<V> {
        let ikey = key::ikey(ukey);
        let ((_, succs), found) = self.find(ikey, guard);
        if !found {
            return None;
        }
        let victim = succs[0];
        // SAFETY: pinned.
        let v = unsafe { node(victim) };
        // Mark upper levels top-down (idempotent).
        for l in (1..=v.top_level()).rev() {
            loop {
                let nxt = v.next(l).load(guard);
                if nxt.tag() == MARK {
                    break;
                }
                if v.next(l)
                    .compare_exchange(nxt, nxt.with_tag(MARK), guard)
                    .is_ok()
                {
                    break;
                }
            }
        }
        // Level-0 mark: linearization; only one remover can win it.
        loop {
            let nxt = v.next(0).load(guard);
            if nxt.tag() == MARK {
                return None; // another remover linearized first
            }
            if v.next(0)
                .compare_exchange(nxt, nxt.with_tag(MARK), guard)
                .is_ok()
            {
                // Claim the value: the level-0 mark winner swaps the value
                // pointer to null, serializing this removal against
                // concurrent value replacement.
                let vptr = v.value.swap(Shared::null(), guard);
                debug_assert!(!vptr.is_null(), "mark winner claims exactly once");
                // SAFETY: claimed under pin.
                let out = Some(unsafe { vptr.deref() }.clone());
                // SAFETY: unlinked from the node by the claim; retired once.
                unsafe { guard.defer_drop(vptr) };
                // Snip it out of every level (the find that performs the
                // level-0 snip retires the node).
                let _ = self.find(ikey, guard);
                return out;
            }
            csds_metrics::restart();
        }
    }

    /// Guard-scoped element count (O(n); quiescently consistent).
    fn len_in(&self, guard: &Guard) -> usize {
        let mut n = 0;
        // SAFETY: pinned bottom-level traversal.
        let mut curr = unsafe { node(self.head.load(guard)) }
            .next(0)
            .load(guard)
            .with_tag(0);
        loop {
            // SAFETY: pinned.
            let c = unsafe { node(curr) };
            if c.key == TAIL_IKEY {
                return n;
            }
            let next = c.next(0).load(guard);
            if next.tag() != MARK {
                n += 1;
            }
            curr = next.with_tag(0);
        }
    }

    /// Guard-scoped emptiness: bottom-level walk that early-exits at the
    /// first live node instead of the default full O(n) count.
    fn is_empty_in(&self, guard: &Guard) -> bool {
        // SAFETY: pinned bottom-level traversal.
        let mut curr = unsafe { node(self.head.load(guard)) }
            .next(0)
            .load(guard)
            .with_tag(0);
        loop {
            // SAFETY: pinned.
            let c = unsafe { node(curr) };
            if c.key == TAIL_IKEY {
                return true;
            }
            let next = c.next(0).load(guard);
            if next.tag() != MARK {
                return false;
            }
            curr = next.with_tag(0);
        }
    }

    /// Guard-scoped atomic closure RMW; the native override behind
    /// [`GuardedMap::rmw_in`] — lock-free value-pointer replacement (see
    /// the `Node` protocol). **Linearization point: the successful CAS
    /// on the node's `value` pointer** for a present key, the level-0
    /// publish CAS for an absent one, the `value` load for read-only
    /// decisions.
    fn rmw_in<'g>(&'g self, ukey: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        let ikey = key::ikey(ukey);
        loop {
            let ((_, succs), found) = self.find(ikey, guard);
            if found {
                let node_s = succs[0];
                // SAFETY: pinned.
                let n = unsafe { node(node_s) };
                let vptr = n.value.load(guard);
                if vptr.is_null() {
                    // A remove linearized and claimed; `find` will snip it.
                    csds_metrics::restart();
                    continue;
                }
                // SAFETY: value boxes are EBR-retired; pinned.
                let current = unsafe { vptr.deref() };
                let Some(new_value) = f(Some(current)) else {
                    return RmwOutcome {
                        prev: Some(current.clone()),
                        cur: Some(current),
                        applied: false,
                    };
                };
                let new_b = Shared::boxed(new_value);
                match n.value.compare_exchange(vptr, new_b, guard) {
                    Ok(_) => {
                        let prev = Some(current.clone());
                        // SAFETY: swapped out by our CAS; retired once.
                        unsafe { guard.defer_drop(vptr) };
                        // SAFETY: published; pinned.
                        let cur = Some(unsafe { new_b.deref() });
                        return RmwOutcome {
                            prev,
                            cur,
                            applied: true,
                        };
                    }
                    Err(_) => {
                        // SAFETY: never published.
                        unsafe { drop(new_b.into_box()) };
                        csds_metrics::restart();
                        continue;
                    }
                }
            }
            // Absent: publish a fresh node (the insert write phase), keeping
            // hold of the value box so `cur` references exactly the value
            // this operation installed.
            let Some(new_value) = f(None) else {
                return RmwOutcome {
                    prev: None,
                    cur: None,
                    applied: false,
                };
            };
            let (preds, succs) = {
                let ((p, s), _) = self.find(ikey, guard);
                (p, s)
            };
            // SAFETY: pinned.
            if unsafe { node(succs[0]) }.key == ikey {
                // Appeared since the decision; re-run the closure.
                csds_metrics::restart();
                continue;
            }
            let height = random_level();
            let top = height - 1;
            let new_s = alloc_node(Node::new(ikey, Some(new_value), height));
            // SAFETY: unpublished (level 0 not linked yet).
            let new_ref = unsafe { node(new_s) };
            for l in 0..=top {
                new_ref.next(l).store(succs[l]);
            }
            let vraw = new_ref.value.load(guard);
            // Level-0 CAS is the linearization point.
            // SAFETY: pinned.
            let p0 = unsafe { node(preds[0]) };
            if p0.next(0).compare_exchange(succs[0], new_s, guard).is_err() {
                // SAFETY: never published; Node::drop frees the value.
                unsafe { drop(reclaim(new_s)) };
                csds_metrics::restart();
                continue;
            }
            // SAFETY: published; even if a racing remove claims and retires
            // the box, our pin (taken before the publish) keeps it alive.
            let cur = Some(unsafe { vraw.deref() });
            // Link upper levels (best effort; abandon if we get deleted) —
            // the same protocol as `insert_in`.
            for l in 1..=top {
                loop {
                    let nl = new_ref.next(l).load(guard);
                    if nl.tag() == MARK {
                        let _ = self.find(ikey, guard);
                        return RmwOutcome {
                            prev: None,
                            cur,
                            applied: true,
                        };
                    }
                    let ((preds2, succs2), _) = self.find(ikey, guard);
                    if succs2[0] != new_s {
                        return RmwOutcome {
                            prev: None,
                            cur,
                            applied: true,
                        };
                    }
                    if nl.with_tag(0) != succs2[l]
                        && new_ref
                            .next(l)
                            .compare_exchange(nl, succs2[l], guard)
                            .is_err()
                    {
                        continue;
                    }
                    // SAFETY: pinned.
                    let p = unsafe { node(preds2[l]) };
                    if p.next(l).compare_exchange(succs2[l], new_s, guard).is_ok() {
                        if new_ref.next(0).load(guard).tag() == MARK {
                            let _ = self.find(ikey, guard);
                            return RmwOutcome {
                                prev: None,
                                cur,
                                applied: true,
                            };
                        }
                        break;
                    }
                    csds_metrics::restart();
                }
            }
            return RmwOutcome {
                prev: None,
                cur,
                applied: true,
            };
        }
    }
}

impl<V> Drop for LockFreeSkipList<V> {
    fn drop(&mut self) {
        // SAFETY: exclusive via &mut self; retired nodes are EBR-owned.
        unsafe { free_all(&self.head) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{testutil, ConcurrentMap};
    use std::sync::Arc;

    #[test]
    fn basic_semantics() {
        let s = LockFreeSkipList::new();
        assert!(s.insert(8, 80));
        assert!(s.insert(3, 30));
        assert!(!s.insert(8, 88));
        assert_eq!(s.get(8), Some(80));
        assert_eq!(s.remove(8), Some(80));
        assert_eq!(s.remove(8), None);
        assert_eq!(s.keys(), vec![3]);
    }

    #[test]
    fn sequential_model() {
        testutil::sequential_model_check(LockFreeSkipList::new(), 4_000, 96);
    }

    #[test]
    fn concurrent_net_effect() {
        let ops = if cfg!(miri) { 100 } else { 4_000 };
        testutil::concurrent_net_effect(Arc::new(LockFreeSkipList::new()), 4, ops, 32);
    }

    #[test]
    fn pop_min_drains_in_order() {
        let s = LockFreeSkipList::new();
        for k in [12u64, 4, 8, 2, 6] {
            assert!(s.insert(k, k + 100));
        }
        let g = pin();
        assert_eq!(s.peek_min_in(&g).map(|(k, v)| (k, *v)), Some((2, 102)));
        let mut popped = Vec::new();
        while let Some((k, v)) = s.pop_min_in(&g) {
            popped.push((k, *v));
        }
        assert_eq!(
            popped,
            vec![(2, 102), (4, 104), (6, 106), (8, 108), (12, 112)]
        );
        assert!(s.pop_min_in(&g).is_none());
        assert!(s.peek_min_in(&g).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_poppers_drain_exactly_once() {
        let s = Arc::new(LockFreeSkipList::new());
        let n = if cfg!(miri) { 100 } else { 2_000u64 };
        for k in 0..n {
            assert!(s.insert(k, k));
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    let g = pin();
                    match s.pop_min_in(&g) {
                        Some((k, _)) => got.push(k),
                        None => return got,
                    }
                }
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "each key popped once");
        assert!(s.is_empty());
    }

    #[test]
    fn pop_min_races_inserts() {
        let s = Arc::new(LockFreeSkipList::new());
        const N: u64 = if cfg!(miri) { 100 } else { 3_000 };
        let producer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for k in 0..N {
                    assert!(s.insert(k, k));
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < N as usize {
            let g = pin();
            if let Some((k, _)) = s.pop_min_in(&g) {
                got.push(k);
            }
        }
        producer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..N).collect::<Vec<_>>());
        assert!(s.is_empty());
    }

    #[test]
    fn insert_remove_interleaving_on_one_key() {
        let s = Arc::new(LockFreeSkipList::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                const ITERS: u64 = if cfg!(miri) { 100 } else { 2_500 };
                for i in 0..ITERS {
                    if (i + t) % 2 == 0 {
                        s.insert(11, i);
                    } else {
                        s.remove(11);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let present = s.get(11).is_some();
        assert_eq!(s.len(), usize::from(present));
    }
}
