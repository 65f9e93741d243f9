//! Pugh's concurrent skiplist maintenance [53].
//!
//! The second blocking skiplist of the paper's Table 1. Unlike the
//! optimistic Herlihy skiplist — which locks *all* predecessors after an
//! unsynchronized parse — Pugh's algorithm updates the structure **one
//! level at a time**: it holds the lock of the node being inserted/removed
//! plus one predecessor lock, kept across consecutive levels while it is
//! the next level's predecessor too:
//!
//! * reads descend without any synchronization;
//! * `insert` takes the new node's lock, then links it bottom-up; each
//!   level locks a predecessor (`lock_pred`) and walks right (`walk_locked`);
//! * `remove` and pop-min take the victim's lock, flip its `deleted` flag
//!   (linearization point), then unlink top-down (`unlink_tower`);
//! * an RMW swaps a present node's value box under the same node lock.
//!
//! `insert_in`, `remove_in` and `rmw_in` run one write loop, `write`: it
//! parses, asks its caller's decision (keep, put a value, or remove), and
//! makes that one write — a link through `insert_node`, a replace or a
//! remove under the node's lock.
//!
//! A thread waits for a lock only while holding at most its own node's
//! lock — a held predecessor is released before any wait — and only for a
//! node with a smaller key than its own: no waits-for cycle, no deadlock.

use csds_sync::atomic::{AtomicU32, Ordering};

use csds_ebr::{pin, Atomic, Guard, Shared};
use csds_sync::{lock_guard, LockGuard, RawMutex, TasLock};

use crate::key::{self, HEAD_IKEY, TAIL_IKEY};
use crate::skiplist::{
    alloc_node, free_all, node, random_level, reclaim, retire, Header, MAX_LEVEL,
};
use crate::write::{Decide, Insert, Remove, Write, Written};
use crate::{GuardedMap, RmwFn, RmwOutcome};

/// The node header; its successors follow it in the same block (see the
/// [module layout](super)).
///
/// The value lives behind an atomic pointer (null only in sentinels):
/// Pugh's incremental level-by-level relinking rules out atomically
/// swapping a whole tower, so a compound RMW instead **replaces the value
/// box in place under the node's lock** — the lock removers hold to set
/// `deleted` — so replacement and removal serialize per node while readers
/// stay lock-free (a replaced box is EBR-retired, the last one dropped with
/// the node).
struct Node<V> {
    key: u64,
    value: Atomic<V>,
    /// 0 = live, 1 = deleted (set under the node's lock).
    deleted: AtomicU32,
    lock: TasLock,
    top_level: u8,
}

// 24 bytes, so a node up to height 5 (97 % of them) fits in 64.
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
            deleted: AtomicU32::new(0),
            lock: TasLock::new(),
            top_level: (height - 1) as u8,
        }
    }

    #[inline]
    fn is_deleted(&self) -> bool {
        self.deleted.load(Ordering::Acquire) != 0
    }

    /// Take the value back out of a reclaimed node's header.
    fn take_value(&mut self) -> Option<V> {
        let raw = self.value.load_raw();
        self.value = Atomic::null();
        if raw == 0 {
            None
        } else {
            // SAFETY: exclusive ownership; pointer came from Atomic::new.
            Some(*unsafe { Box::from_raw(raw as *mut V) })
        }
    }
}

impl<V> Drop for Node<V> {
    fn drop(&mut self) {
        // A node owns its current value box; replaced boxes were swapped
        // out and retired separately.
        drop(self.take_value());
    }
}

/// Result of the parse phase: per-level predecessors plus the found node.
type FindResult<'g, V> = (
    [Shared<'g, Node<V>>; MAX_LEVEL],
    Option<Shared<'g, Node<V>>>,
);

/// A node together with the guard that holds its lock.
type Held<'g, V> = (Shared<'g, Node<V>>, LockGuard<'g, TasLock>);

/// Pugh-style skiplist. See the module docs.
pub struct PughSkipList<V> {
    head: Atomic<Node<V>>,
}

impl<V: Clone + Send + Sync> Default for PughSkipList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Send + Sync> PughSkipList<V> {
    /// Empty skiplist.
    pub fn new() -> Self {
        let tail = alloc_node(Node::new(TAIL_IKEY, None, MAX_LEVEL));
        let head = alloc_node(Node::new(HEAD_IKEY, None, MAX_LEVEL));
        for l in 0..MAX_LEVEL {
            // SAFETY: owned, unpublished.
            unsafe { node(head) }.next(l).store(tail);
        }
        PughSkipList {
            head: Atomic::from(head),
        }
    }

    /// Unsynchronized parse: per-level predecessors and the found node.
    fn find<'g>(&self, ikey: u64, guard: &'g Guard) -> FindResult<'g, V> {
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut found = None;
        let mut pred = self.head.load(guard);
        for level in (0..MAX_LEVEL).rev() {
            // SAFETY: pinned traversal; head never retired.
            let mut curr = unsafe { node(pred) }.next(level).load(guard);
            loop {
                // SAFETY: pinned.
                let c = unsafe { node(curr) };
                if c.key < ikey {
                    pred = curr;
                    curr = c.next(level).load(guard);
                } else {
                    if c.key == ikey && found.is_none() {
                        found = Some(curr);
                    }
                    break;
                }
            }
            preds[level] = pred;
        }
        (preds, found)
    }

    /// Lock `pred`, the start of a level's locked walk — unless it is the
    /// predecessor `held` from the previous level, which stays locked. A
    /// different held predecessor is released *before* `pred` is locked.
    fn lock_pred<'g>(held: Option<Held<'g, V>>, pred: Shared<'g, Node<V>>) -> Held<'g, V>
    where
        V: 'g,
    {
        if let Some(h) = held {
            if h.0 == pred {
                return h;
            }
        }
        Self::lock(pred)
    }

    /// Lock `n` and pair it with its guard.
    fn lock<'g>(n: Shared<'g, Node<V>>) -> Held<'g, V>
    where
        V: 'g,
    {
        // SAFETY: pinned.
        (n, lock_guard(&unsafe { node(n) }.header().lock))
    }

    /// Locked walk at `level` from the locked `pred`: returns a **locked**,
    /// live predecessor with `pred.key < ikey <= pred.next(level).key`, or
    /// `None`, holding nothing, if the walk ran into a deleted node (caller
    /// re-parses). Each step releases the current node before locking the
    /// next.
    fn walk_locked<'g>(
        mut pred: Held<'g, V>,
        ikey: u64,
        level: usize,
        guard: &'g Guard,
    ) -> Option<Held<'g, V>>
    where
        V: 'g,
    {
        loop {
            // SAFETY: pinned.
            let p = unsafe { node(pred.0) };
            if p.is_deleted() {
                return None;
            }
            let next = p.next(level).load(guard);
            // SAFETY: pinned.
            if unsafe { node(next) }.key >= ikey {
                return Some(pred);
            }
            drop(pred);
            pred = Self::lock(next);
        }
    }

    /// Present user keys (racy but safe).
    pub fn keys(&self) -> Vec<u64> {
        let g = pin();
        let mut out = Vec::new();
        // SAFETY: pinned bottom-level traversal.
        let mut curr = unsafe { node(self.head.load(&g)) }.next(0).load(&g);
        loop {
            // SAFETY: pinned.
            let c = unsafe { node(curr) };
            if c.key == TAIL_IKEY {
                return out;
            }
            if !c.is_deleted() {
                out.push(key::ukey(c.key));
            }
            curr = c.next(0).load(&g);
        }
    }

    /// The write loop behind `insert_in`, `remove_in` and `rmw_in`: parse,
    /// decide on the value found, then write; a stale parse runs again.
    ///
    /// An absent key is linked by [`insert_node`](Self::insert_node); a
    /// deleted node with the key reads as absent, and a put waits for its
    /// unlink. A present key's decision reads its value box without a lock,
    /// as `get_in` does, and read-only decisions linearize there. A replace
    /// or a remove then takes the node's lock, the one the inserter holds
    /// while linking and the one every replace and remove serializes on,
    /// and validates. A replace needs the node live and its value box
    /// unchanged since the decision; it swaps the box (the linearization
    /// point) and retires the old one. A remove flips `deleted` (the
    /// linearization point) and unlinks the tower with `unlink_tower`.
    fn write<'g>(
        &'g self,
        ukey: u64,
        mut decide: impl Decide<V>,
        guard: &'g Guard,
    ) -> Written<'g, V> {
        let ikey = key::ikey(ukey);
        loop {
            let (preds, found) = self.find(ikey, guard);
            // SAFETY: pinned.
            let Some(node_s) = found.filter(|&f| !unsafe { node(f) }.is_deleted()) else {
                match decide.decide(None) {
                    Write::Put(value) if found.is_some() => decide.unapplied(value),
                    Write::Put(value) => match self.insert_node(ikey, value, preds, guard) {
                        Ok(put) => return Written::wrote(None, Some(put)),
                        Err(value) => decide.unapplied(value),
                    },
                    Write::Keep | Write::Remove => return Written::kept(None),
                }
                csds_metrics::restart();
                continue;
            };
            // SAFETY: pinned.
            let n = unsafe { node(node_s) };
            let seen = n.value.load(guard);
            // SAFETY: a user node's value is never null; replaced boxes are
            // EBR-retired; pinned.
            let cur = unsafe { seen.deref() };
            let put = match decide.decide(Some(cur)) {
                Write::Keep => return Written::kept(Some(cur)),
                Write::Put(value) => Some(value),
                Write::Remove => None,
            };
            let g = lock_guard(&n.lock);
            match put {
                Some(value) if !n.is_deleted() && n.value.load(guard) == seen => {
                    let new_b = Shared::boxed(value);
                    n.value.store(new_b); // linearization point
                    drop(g);
                    // SAFETY: swapped out under the lock; retired once.
                    unsafe { guard.defer_drop(seen) };
                    // SAFETY: published; pinned.
                    return Written::wrote(Some(cur), Some(unsafe { new_b.deref() }));
                }
                // Removed or replaced since the decision.
                Some(value) => decide.unapplied(value),
                None if n.is_deleted() => return Written::kept(None), // lost to another remover
                None => {
                    n.deleted.store(1, Ordering::Release); // linearization point
                    self.unlink_tower(node_s, preds, guard);
                    drop(g);
                    // SAFETY: as `cur`; no replace follows the deleted flag.
                    let prev = unsafe { n.value.load(guard).deref() };
                    // SAFETY: the deleted flag made us the node's unique
                    // retirer.
                    unsafe { retire(guard, node_s) };
                    return Written::wrote(Some(prev), None);
                }
            }
            drop(g);
            csds_metrics::restart();
        }
    }

    /// Link a fresh node for the absent key `ikey`, level by level from
    /// the parsed `preds`, keeping a predecessor locked into the next level
    /// while it is that level's predecessor too. The node's own lock is
    /// held throughout, so removers and replacers wait for the link.
    /// Linearizes at the level-0 link. Returns the published value box —
    /// captured *before* publication, so it stays valid (under the caller's
    /// pin) even if a racing `rmw_in` replaces it right after the link —
    /// or the value back when a same-key node holds level 0 (nothing of
    /// ours is linked then).
    fn insert_node<'g>(
        &'g self,
        ikey: u64,
        value: V,
        mut preds: [Shared<'g, Node<V>>; MAX_LEVEL],
        guard: &'g Guard,
    ) -> Result<&'g V, V> {
        let height = random_level();
        let new_s = alloc_node(Node::new(ikey, Some(value), height));
        // SAFETY: published below level by level; we hold its lock for the
        // whole linking phase.
        let new_ref = unsafe { node(new_s) };
        let vraw = new_ref.value.load(guard);
        let ng = lock_guard(&new_ref.lock);
        // SAFETY: nothing linked; we still own the node.
        let lost = || {
            Err(unsafe { reclaim(new_s) }
                .take_value()
                .expect("unpublished node holds the value"))
        };
        let mut held = None;
        for level in 0..height {
            loop {
                held = Self::walk_locked(Self::lock_pred(held, preds[level]), ikey, level, guard);
                let Some((pred, _)) = held else {
                    // Predecessor chain hit a deleted node; re-parse and
                    // retry this level (lower levels stay linked).
                    csds_metrics::restart();
                    let (np, nf) = self.find(ikey, guard);
                    if nf.is_some_and(|f| f != new_s) {
                        // A competing node holds level 0.
                        debug_assert!(level == 0);
                        drop(ng);
                        return lost();
                    }
                    preds = np;
                    continue;
                };
                // SAFETY: pinned; `pred` is locked and live.
                let p = unsafe { node(pred) };
                let succ = p.next(level).load(guard);
                // SAFETY: pinned.
                if level == 0 && unsafe { node(succ) }.key == ikey {
                    // Lost the level-0 race to a competing insert.
                    drop((held, ng));
                    return lost();
                }
                new_ref.next(level).store(succ);
                p.next(level).store(new_s);
                break;
            }
        }
        drop((held, ng));
        // SAFETY: the box was owned by the (then-unpublished) node and is
        // kept alive by the caller's pin from before publication.
        Ok(unsafe { vraw.deref() })
    }

    /// Unlink the tower of `victim` — locked by the caller, its `deleted`
    /// flag set — level by level, top-down, each level's locked walk
    /// starting from `preds[level]` (held over from the level above when it
    /// is the same node). The seeds are re-parsed only when a walk hits a
    /// deleted node or the victim is not behind the predecessor it found.
    fn unlink_tower<'g>(
        &self,
        victim: Shared<'g, Node<V>>,
        mut preds: [Shared<'g, Node<V>>; MAX_LEVEL],
        guard: &'g Guard,
    ) {
        // SAFETY: pinned.
        let v = unsafe { node(victim) };
        let mut held = None;
        for level in (0..=v.top_level()).rev() {
            loop {
                held = Self::walk_locked(Self::lock_pred(held, preds[level]), v.key, level, guard);
                if let Some((pred, _)) = held {
                    // SAFETY: pinned; locked.
                    let p = unsafe { node(pred) };
                    if p.next(level).load(guard) == victim {
                        p.next(level).store(v.next(level).load(guard));
                        break;
                    }
                    held = None;
                }
                csds_metrics::restart();
                preds = self.find(v.key, guard).0;
            }
        }
    }

    /// Guard-scoped pop-min: remove and return the smallest present key —
    /// the blocking half of the skiplist priority-queue family (Pugh towers
    /// with the head run deleted under per-node locks).
    ///
    /// Walks the bottom level from the head to the first non-deleted node,
    /// locks it, and re-checks the `deleted` flag: losing the head race to
    /// another popper restarts the walk (counted as pop contention). The
    /// winner's `deleted` store is the linearization point; the tower is
    /// then unlinked as [`remove_in`](Self::remove_in) does it, but with
    /// every level seeded with the head — in front of the minimum there are
    /// only deleted nodes and keys pushed since — so an uncontended pop
    /// locks the victim and the head once each and never parses.
    ///
    /// The returned reference stays valid for `'g`: the caller's pin blocks
    /// the reclamation epoch from advancing past its own deferred retirement.
    pub fn pop_min_in<'g>(&'g self, guard: &'g Guard) -> Option<(u64, &'g V)> {
        let mut lost = 0u64;
        let out = 'op: loop {
            // SAFETY: pinned bottom-level traversal; head never retired.
            let mut curr = unsafe { node(self.head.load(guard)) }.next(0).load(guard);
            let victim = loop {
                // SAFETY: pinned.
                let c = unsafe { node(curr) };
                if c.key == TAIL_IKEY {
                    break 'op None;
                }
                if !c.is_deleted() {
                    break curr;
                }
                curr = c.next(0).load(guard);
            };
            // SAFETY: pinned.
            let v = unsafe { node(victim) };
            let vg = lock_guard(&v.lock);
            if v.is_deleted() {
                // Lost the head to a racing popper/remover; rescan.
                drop(vg);
                lost += 1;
                csds_metrics::restart();
                continue;
            }
            v.deleted.store(1, Ordering::Release); // linearization point
            self.unlink_tower(victim, [self.head.load(guard); MAX_LEVEL], guard);
            drop(vg);
            // SAFETY: a user node's value is never null; the caller's pin
            // keeps it alive across the node's deferred retirement.
            let val = unsafe { v.value.load(guard).deref() };
            // SAFETY: the deleted flag made us the node's unique retirer.
            unsafe { retire(guard, victim) };
            csds_metrics::pq_pop();
            break Some((key::ukey(v.key), val));
        };
        if lost > 0 {
            csds_metrics::pq_pop_contention(lost);
        }
        out
    }

    /// Guard-scoped peek-min: the smallest present key without removing it
    /// (quiescently consistent — a node a racing pop already marked deleted
    /// is walked past).
    pub fn peek_min_in<'g>(&'g self, guard: &'g Guard) -> Option<(u64, &'g V)> {
        // SAFETY: pinned bottom-level traversal.
        let mut curr = unsafe { node(self.head.load(guard)) }.next(0).load(guard);
        loop {
            // SAFETY: pinned.
            let c = unsafe { node(curr) };
            if c.key == TAIL_IKEY {
                return None;
            }
            if !c.is_deleted() {
                // SAFETY: a user node's value is never null; replaced boxes
                // are EBR-retired; pinned.
                return Some((key::ukey(c.key), unsafe { c.value.load(guard).deref() }));
            }
            curr = c.next(0).load(guard);
        }
    }
}

impl<V: Clone + Send + Sync> GuardedMap<V> for PughSkipList<V> {
    /// Clone-free reference valid for `'g`; no stores, no restarts.
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        let ikey = key::ikey(key);
        let (_, found) = self.find(ikey, guard);
        // SAFETY: pinned.
        let n = unsafe { node(found?) };
        if n.is_deleted() {
            None
        } else {
            // SAFETY: a user node's value is never null; replaced boxes are
            // EBR-retired; pinned.
            Some(unsafe { n.value.load(guard).deref() })
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
        // SAFETY: pinned bottom-level traversal.
        let mut curr = unsafe { node(self.head.load(guard)) }.next(0).load(guard);
        loop {
            // SAFETY: pinned.
            let c = unsafe { node(curr) };
            if c.key == TAIL_IKEY {
                return n;
            }
            if !c.is_deleted() {
                n += 1;
            }
            curr = c.next(0).load(guard);
        }
    }

    fn is_empty_in(&self, guard: &Guard) -> bool {
        // Early-exit bottom-level walk (stops at the first live node).
        // SAFETY: pinned traversal.
        let mut curr = unsafe { node(self.head.load(guard)) }.next(0).load(guard);
        loop {
            // SAFETY: pinned.
            let c = unsafe { node(curr) };
            if c.key == TAIL_IKEY {
                return true;
            }
            if !c.is_deleted() {
                return false;
            }
            curr = c.next(0).load(guard);
        }
    }

    /// The write loop with the closure's decision: a present key's value
    /// box is swapped under the node's lock, an absent key linked as insert
    /// links it.
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        self.write(key, f, guard).into()
    }
}

impl<V> Drop for PughSkipList<V> {
    fn drop(&mut self) {
        // SAFETY: exclusive via &mut self.
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
        let s = PughSkipList::new();
        assert!(s.insert(4, 40));
        assert!(s.insert(2, 20));
        assert!(!s.insert(4, 44));
        assert_eq!(s.get(4), Some(40));
        assert_eq!(s.remove(4), Some(40));
        assert_eq!(s.remove(4), None);
        assert_eq!(s.keys(), vec![2]);
    }

    #[test]
    fn sequential_model() {
        testutil::sequential_model_check(PughSkipList::new(), 4_000, 96);
    }

    #[test]
    fn concurrent_net_effect() {
        let ops = if cfg!(miri) { 100 } else { 3_000 };
        testutil::concurrent_net_effect(Arc::new(PughSkipList::new()), 4, ops, 32);
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn sequential_model_through_pops_and_removes() {
        // `remove_in` and `pop_min_in` share `unlink_tower`; interleave
        // both with inserts against a `BTreeMap`.
        let s = PughSkipList::new();
        let mut model = std::collections::BTreeMap::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..6_000u64 {
            let k = xorshift(&mut state) % 64;
            let g = pin();
            match xorshift(&mut state) % 4 {
                0 | 1 => {
                    let vacant = !model.contains_key(&k);
                    if vacant {
                        model.insert(k, i);
                    }
                    assert_eq!(s.insert_in(k, i, &g), vacant, "insert({k}) at op {i}");
                }
                2 => assert_eq!(
                    s.remove_in(k, &g),
                    model.remove(&k),
                    "remove({k}) at op {i}"
                ),
                _ => assert_eq!(
                    s.pop_min_in(&g).map(|(k, v)| (k, *v)),
                    model.pop_first(),
                    "pop_min at op {i}"
                ),
            }
        }
        assert_eq!(s.keys(), model.into_keys().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_net_effect_through_pops_and_removes() {
        // Per key, successful inserts minus successful removals (a pop
        // removes the key it returns) must equal final presence.
        const KEYS: u64 = 32;
        let s = Arc::new(PughSkipList::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut net = [0i64; KEYS as usize];
                    let mut state = 0xDEAD_BEEF ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for _ in 0..if cfg!(miri) { 100 } else { 3_000 } {
                        let k = xorshift(&mut state) % KEYS;
                        let g = pin();
                        let removed = match xorshift(&mut state) % 3 {
                            0 => {
                                net[k as usize] += i64::from(s.insert_in(k, k, &g));
                                None
                            }
                            1 => s.remove_in(k, &g).map(|v| (k, v)),
                            _ => s.pop_min_in(&g).map(|(k, v)| (k, *v)),
                        };
                        if let Some((k, v)) = removed {
                            assert_eq!(k, v, "value travelled with its key");
                            net[k as usize] -= 1;
                        }
                    }
                    net
                })
            })
            .collect();
        let mut net = [0i64; KEYS as usize];
        for h in handles {
            for (total, n) in net.iter_mut().zip(h.join().unwrap()) {
                *total += n;
            }
        }
        let present = s.keys();
        for k in 0..KEYS {
            let want = i64::from(present.contains(&k));
            assert_eq!(net[k as usize], want, "key {k}: net effect");
        }
    }

    #[test]
    fn pop_and_new_minimum_push_lock_twice_at_any_height() {
        // Own node and head, once each: a push of a new minimum keeps the
        // head locked up its whole tower, and a pop seeds every level with
        // the head and keeps it locked down the whole tower.
        let s = PughSkipList::new();
        let g = pin();
        for k in (0..256u64).rev() {
            let _ = csds_metrics::take_and_reset();
            assert!(s.insert_in(k, k, &g));
            let locks = csds_metrics::take_and_reset().lock_acquires;
            assert_eq!(locks, 2, "push of new minimum {k}");
        }
        let mut tallest = 0;
        for k in 0..256u64 {
            let (_, found) = s.find(key::ikey(k), &g);
            // SAFETY: pinned; present.
            let top = unsafe { node(found.expect("present")) }.top_level();
            tallest = tallest.max(top);
            let _ = csds_metrics::take_and_reset();
            assert_eq!(s.pop_min_in(&g).map(|(k, v)| (k, *v)), Some((k, k)));
            let locks = csds_metrics::take_and_reset().lock_acquires;
            assert_eq!(locks, 2, "pop of {k} (top level {top})");
        }
        assert!(tallest >= 3, "towers too short to test: {tallest}");
    }

    #[test]
    fn pop_min_drains_in_order() {
        let s = PughSkipList::new();
        for k in [7u64, 3, 9, 1, 5] {
            assert!(s.insert(k, k * 10));
        }
        let g = pin();
        assert_eq!(s.peek_min_in(&g).map(|(k, v)| (k, *v)), Some((1, 10)));
        let mut popped = Vec::new();
        while let Some((k, v)) = s.pop_min_in(&g) {
            popped.push((k, *v));
        }
        assert_eq!(popped, vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
        assert!(s.pop_min_in(&g).is_none());
        assert!(s.peek_min_in(&g).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_poppers_drain_exactly_once() {
        let s = Arc::new(PughSkipList::new());
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
    fn bulk_insert_remove_roundtrip() {
        let s = PughSkipList::new();
        for k in 0..200 {
            assert!(s.insert(k, k * 3));
        }
        assert_eq!(s.len(), 200);
        for k in 0..200 {
            assert_eq!(s.remove(k), Some(k * 3));
        }
        assert!(s.is_empty());
    }
}
