//! The optimistic lazy skiplist (Herlihy, Lev, Luchangco, Shavit —
//! "A simple optimistic skiplist algorithm", SIROCCO'07 [28]).
//!
//! The blocking skiplist used throughout the paper's evaluation. Shape:
//!
//! * `get` descends the towers with no stores and no restarts;
//! * `insert` parses to the per-level `(pred, succ)` windows, locks the
//!   distinct predecessors bottom-up, validates
//!   (`!pred.marked && !succ.marked && pred.next(l) == succ`), links the new
//!   tower bottom-up and finally sets `fully_linked`;
//! * `remove` locks the victim, sets `marked` (linearization point), then
//!   locks the predecessors and unlinks every level.

// Per-level windows live in fixed arrays indexed by level; iterating the
// level as an index keeps preds/succs visibly in lockstep.
#![allow(clippy::needless_range_loop)]
//!
//! An update that needs several locks makes the skiplist the structure with
//! the largest speculative footprint under HTM elision — which is exactly
//! why the paper's Table 2 reports its highest fallback rate and Table 3 its
//! largest elision speedup.

use csds_sync::atomic::{AtomicUsize, Ordering};

use csds_ebr::{pin, Atomic, Guard, Shared};
use csds_htm::{attempt_elision, Elided, SpecStep, TxRegion};
use csds_sync::{lock_guard, LockGuard, RawMutex, TasLock};

use crate::key::{self, HEAD_IKEY, TAIL_IKEY};
use crate::skiplist::{
    alloc_node, free_all, node, random_level, reclaim, retire, Header, MAX_LEVEL,
};
use crate::{GuardedMap, RmwFn, RmwOutcome, SyncMode, ELISION_RETRIES};

/// `marked` state: node is live.
const LIVE: usize = 0;
/// `marked` state: node is logically deleted.
const DELETED: usize = 1;
/// `marked` state: the whole tower was atomically replaced by a same-key
/// tower carrying a new value ([`HerlihySkipList::rmw_in`]). The key is
/// still present; readers that raced onto this tower return its (stale)
/// value and linearize before the replacement, while writer validation
/// (`marked != 0`) treats it as gone.
const SUPERSEDED: usize = 2;

/// The node header; its successors follow it in the same block (see the
/// [module layout](super)). `marked` and `fully_linked` stay word-sized:
/// the elided write phases read and write them through the transaction's
/// `&AtomicUsize` interface.
struct Node<V> {
    key: u64,
    value: Option<V>,
    /// [`LIVE`], [`DELETED`] or `SUPERSEDED`.
    marked: AtomicUsize,
    /// 0 until the full tower is linked; readers ignore half-built towers.
    fully_linked: AtomicUsize,
    lock: TasLock,
    top_level: u8,
}

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
            value,
            marked: AtomicUsize::new(0),
            fully_linked: AtomicUsize::new(0),
            lock: TasLock::new(),
            top_level: (height - 1) as u8,
        }
    }

    /// Writer validation: the node left the list (deleted or superseded).
    #[inline]
    fn is_marked(&self) -> bool {
        self.marked.load(Ordering::Acquire) != LIVE
    }

    /// Reader predicate: a `SUPERSEDED` tower still represents its
    /// (continuously present) key, so readers only honor [`DELETED`].
    #[inline]
    fn is_deleted(&self) -> bool {
        self.marked.load(Ordering::Acquire) == DELETED
    }

    #[inline]
    fn is_fully_linked(&self) -> bool {
        self.fully_linked.load(Ordering::Acquire) != 0
    }
}

/// Optimistic lazy skiplist. See the module docs.
pub struct HerlihySkipList<V> {
    head: Atomic<Node<V>>,
    region: Option<TxRegion>,
}

impl<V: Clone + Send + Sync> Default for HerlihySkipList<V> {
    fn default() -> Self {
        Self::new()
    }
}

type Windows<'g, V> = (
    [Shared<'g, Node<V>>; MAX_LEVEL],
    [Shared<'g, Node<V>>; MAX_LEVEL],
);

impl<V: Clone + Send + Sync> HerlihySkipList<V> {
    /// Empty skiplist with per-node locks.
    pub fn new() -> Self {
        Self::with_mode(SyncMode::Locks)
    }

    /// Empty skiplist with an explicit write-phase synchronization mode.
    pub fn with_mode(mode: SyncMode) -> Self {
        let tail = alloc_node(Node::new(TAIL_IKEY, None, MAX_LEVEL));
        let head = alloc_node(Node::new(HEAD_IKEY, None, MAX_LEVEL));
        // SAFETY: owned, unpublished.
        let (h, t) = unsafe { (node(head), node(tail)) };
        for l in 0..MAX_LEVEL {
            h.next(l).store(tail);
        }
        // Sentinels are always "fully linked".
        h.fully_linked.store(1, Ordering::Relaxed);
        t.fully_linked.store(1, Ordering::Relaxed);
        HerlihySkipList {
            head: Atomic::from(head),
            region: match mode {
                SyncMode::Locks => None,
                SyncMode::Elision => Some(TxRegion::new()),
            },
        }
    }

    /// Parse phase: per-level windows. Returns the level at which `ikey`
    /// was found, if any. No stores, no restarts.
    fn find<'g>(&self, ikey: u64, guard: &'g Guard) -> (Windows<'g, V>, Option<usize>) {
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
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
                    break;
                }
            }
            // SAFETY: pinned.
            if found.is_none() && unsafe { node(curr) }.key == ikey {
                found = Some(level);
            }
            preds[level] = pred;
            succs[level] = curr;
        }
        ((preds, succs), found)
    }

    /// Lock the distinct predecessors of levels `0..=top`, bottom-up.
    /// (Duplicate predecessors across levels are consecutive, so comparing
    /// with the previous level suffices.)
    fn lock_preds<'g>(
        preds: &[Shared<'g, Node<V>>; MAX_LEVEL],
        top: usize,
    ) -> Vec<LockGuard<'g, TasLock>>
    where
        V: 'g,
    {
        let mut guards = Vec::with_capacity(top + 1);
        let mut prev = Shared::null();
        for (_l, &p) in preds.iter().enumerate().take(top + 1) {
            if p != prev {
                // SAFETY: pinned (shared refs outlive the guards we return).
                guards.push(lock_guard(&unsafe { node(p) }.header().lock));
                prev = p;
            }
        }
        guards
    }

    fn validate_windows(
        &self,
        preds: &[Shared<'_, Node<V>>; MAX_LEVEL],
        succs: &[Shared<'_, Node<V>>; MAX_LEVEL],
        top: usize,
        guard: &Guard,
    ) -> bool {
        for l in 0..=top {
            // SAFETY: pinned.
            let p = unsafe { node(preds[l]) };
            let s = unsafe { node(succs[l]) };
            if p.is_marked() || s.is_marked() || p.next(l).load(guard) != succs[l] {
                return false;
            }
        }
        true
    }

    /// Guard-scoped `insert`.
    pub fn insert_in(&self, ukey: u64, value: V, guard: &Guard) -> bool {
        let ikey = key::ikey(ukey);
        let height = random_level();
        let top = height - 1;
        let mut new_node: Option<Shared<'_, Node<V>>> = None;
        let mut value = Some(value);
        loop {
            let ((preds, succs), found) = self.find(ikey, guard);
            if let Some(lf) = found {
                // SAFETY: pinned.
                let n = unsafe { node(succs[lf]) };
                if !n.is_marked() {
                    // Wait until it is fully linked, then report "present".
                    while !n.is_fully_linked() {
                        std::hint::spin_loop();
                    }
                    if let Some(n) = new_node.take() {
                        // SAFETY: never published.
                        unsafe { drop(reclaim(n)) };
                    }
                    return false;
                }
                // Marked: its removal is in flight; re-parse.
                csds_metrics::restart();
                continue;
            }
            let new_s =
                *new_node.get_or_insert_with(|| alloc_node(Node::new(ikey, value.take(), height)));
            // SAFETY: unpublished; exclusive access.
            let new_ref = unsafe { node(new_s) };
            for l in 0..=top {
                new_ref.next(l).store(succs[l]);
            }

            if let Some(region) = &self.region {
                // Speculative write phase: validate, link all levels and
                // publish `fully_linked` in one transaction.
                match attempt_elision(region, ELISION_RETRIES, |tx| {
                    for l in 0..=top {
                        // SAFETY: pinned.
                        let p = unsafe { node(preds[l]) };
                        let s = unsafe { node(succs[l]) };
                        if tx.read(&p.header().marked) != 0 || tx.read(&s.header().marked) != 0 {
                            return SpecStep::Invalid;
                        }
                        if tx.read(p.next(l).as_raw_atomic()) != succs[l].as_raw() {
                            return SpecStep::Invalid;
                        }
                    }
                    // Written first, so a reader that sees a link sees it.
                    tx.write(&new_ref.header().fully_linked, 1);
                    for l in 0..=top {
                        // SAFETY: pinned.
                        let p = unsafe { node(preds[l]) };
                        tx.write(p.next(l).as_raw_atomic(), new_s.as_raw());
                    }
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

            // Write phase: lock the predecessors, (elision mode) enter the
            // region, validate, link bottom-up, publish.
            let guards = Self::lock_preds(&preds, top);
            let fb = self.region.as_ref().map(TxRegion::enter_fallback);
            if !self.validate_windows(&preds, &succs, top, guard) {
                drop(fb);
                drop(guards);
                csds_metrics::restart();
                continue;
            }
            for l in 0..=top {
                // SAFETY: pinned.
                unsafe { node(preds[l]) }.next(l).store(new_s);
            }
            new_ref.fully_linked.store(1, Ordering::Release);
            drop(fb);
            drop(guards);
            return true;
        }
    }

    /// Guard-scoped `remove`.
    ///
    /// In elision mode the victim is marked and unlinked in one speculative
    /// transaction; once speculation gives up, `speculate` turns off and the
    /// operation re-finds the victim and takes the locking path.
    pub fn remove_in(&self, ukey: u64, guard: &Guard) -> Option<V> {
        let ikey = key::ikey(ukey);
        let mut speculate = self.region.as_ref();
        // Locking path: identify, lock and mark the victim once, holding its
        // lock across retries, as in the published algorithm.
        let mut victim_s: Option<Shared<'_, Node<V>>> = None;
        let mut victim_guard: Option<LockGuard<'_, TasLock>> = None;
        loop {
            let ((preds, succs), found) = self.find(ikey, guard);
            if victim_s.is_none() {
                let lf = found?;
                // SAFETY: pinned.
                let v = unsafe { node(succs[lf]) };
                // Only delete nodes that are fully linked at their full
                // height and not already marked.
                if !v.is_fully_linked() || v.top_level() != lf {
                    return None;
                }
                match v.marked.load(Ordering::Acquire) {
                    DELETED => return None,
                    SUPERSEDED => {
                        // Replaced by a same-key tower: the key is still
                        // present; re-parse and remove the replacement.
                        csds_metrics::restart();
                        continue;
                    }
                    _ => {}
                }

                if speculate.is_none() {
                    let g = lock_guard(&v.header().lock);
                    let fb = self.region.as_ref().map(TxRegion::enter_fallback);
                    match v.marked.load(Ordering::Acquire) {
                        DELETED => return None, // lost to another remover
                        SUPERSEDED => {
                            drop(fb);
                            drop(g);
                            csds_metrics::restart();
                            continue;
                        }
                        _ => {}
                    }
                    v.marked.store(DELETED, Ordering::Release); // linearization
                    drop(fb);
                    victim_guard = Some(g);
                }
                victim_s = Some(succs[lf]);
            }
            let victim = victim_s.unwrap();
            // SAFETY: pinned; marked nodes stay reachable until unlinked.
            let v = unsafe { node(victim) };
            let top = v.top_level();

            if let Some(region) = speculate {
                match attempt_elision(region, ELISION_RETRIES, |tx| {
                    if tx.read(&v.header().marked) != 0 {
                        return SpecStep::Invalid; // another remover won
                    }
                    for l in 0..=top {
                        // SAFETY: pinned.
                        let p = unsafe { node(preds[l]) };
                        if tx.read(&p.header().marked) != 0 {
                            return SpecStep::Invalid;
                        }
                        if tx.read(p.next(l).as_raw_atomic()) != victim.as_raw() {
                            return SpecStep::Invalid;
                        }
                    }
                    tx.write(&v.header().marked, 1);
                    for l in 0..=top {
                        // SAFETY: pinned.
                        let p = unsafe { node(preds[l]) };
                        let succ = tx.read(v.next(l).as_raw_atomic());
                        tx.write(p.next(l).as_raw_atomic(), succ);
                    }
                    SpecStep::Commit(())
                }) {
                    Elided::Committed(()) => {
                        let out = v.value.clone();
                        // SAFETY: unlinked at all levels in one commit;
                        // retired exactly once by this remover.
                        unsafe { retire(guard, victim) };
                        return out;
                    }
                    Elided::Invalid => {
                        if v.is_deleted() {
                            return None; // lost to a concurrent remover
                        }
                        csds_metrics::restart();
                    }
                    Elided::FellBack => speculate = None,
                }
                victim_s = None;
                continue;
            }

            // Locking path: victim already marked and locked; lock preds,
            // (elision mode) enter the region, validate, unlink.
            let guards = Self::lock_preds(&preds, top);
            let fb = self.region.as_ref().map(TxRegion::enter_fallback);
            let mut valid = true;
            for l in 0..=top {
                // SAFETY: pinned.
                let p = unsafe { node(preds[l]) };
                if p.is_marked() || p.next(l).load(guard) != victim {
                    valid = false;
                    break;
                }
            }
            if !valid {
                drop(fb);
                drop(guards);
                csds_metrics::restart();
                continue; // victim stays marked & locked; re-find windows
            }
            for l in (0..=top).rev() {
                // SAFETY: pinned.
                let p = unsafe { node(preds[l]) };
                p.next(l).store(v.next(l).load(guard));
            }
            drop(fb);
            drop(guards);
            drop(victim_guard.take());
            let out = v.value.clone();
            // SAFETY: unlinked at every level; retired once by this remover
            // (uniqueness guaranteed by the marked flag).
            unsafe { retire(guard, victim) };
            return out;
        }
    }

    /// Present user keys (racy but safe; tests/diagnostics).
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
            if !c.is_deleted() && c.is_fully_linked() {
                out.push(key::ukey(c.key));
            }
            curr = c.next(0).load(&g);
        }
    }

    /// Guard-scoped `get`: clone-free reference valid for `'g`.
    pub fn get_in<'g>(&'g self, ukey: u64, guard: &'g Guard) -> Option<&'g V> {
        let ikey = key::ikey(ukey);
        let ((_, succs), found) = self.find(ikey, guard);
        let lf = found?;
        // SAFETY: pinned.
        let n = unsafe { node(succs[lf]) };
        if n.is_fully_linked() && !n.is_deleted() {
            n.header().value.as_ref()
        } else {
            None
        }
    }

    /// Guard-scoped element count (O(n); quiescently consistent).
    pub fn len_in(&self, guard: &Guard) -> usize {
        let mut n = 0;
        // SAFETY: pinned bottom-level traversal.
        let mut curr = unsafe { node(self.head.load(guard)) }.next(0).load(guard);
        loop {
            // SAFETY: pinned.
            let c = unsafe { node(curr) };
            if c.key == TAIL_IKEY {
                return n;
            }
            if !c.is_deleted() && c.is_fully_linked() {
                n += 1;
            }
            curr = c.next(0).load(guard);
        }
    }

    /// Guard-scoped emptiness: bottom-level walk that early-exits at the
    /// first live node instead of the default full O(n) count.
    pub fn is_empty_in(&self, guard: &Guard) -> bool {
        // SAFETY: pinned bottom-level traversal.
        let mut curr = unsafe { node(self.head.load(guard)) }.next(0).load(guard);
        loop {
            // SAFETY: pinned.
            let c = unsafe { node(curr) };
            if c.key == TAIL_IKEY {
                return true;
            }
            if !c.is_deleted() && c.is_fully_linked() {
                return false;
            }
            curr = c.next(0).load(guard);
        }
    }

    /// Guard-scoped atomic closure RMW; the native override behind
    /// [`GuardedMap::rmw_in`].
    ///
    /// Present key: the write phase locks the victim and its distinct
    /// predecessors (the `remove` discipline), validates every level, then
    /// swaps in a **fresh tower of the same height** — each level's
    /// predecessor pointer is swung to the replacement while the old tower
    /// is marked `SUPERSEDED`, all inside the critical section, so the
    /// key is never observably absent. **Linearization point: the level-0
    /// predecessor store.** Absent key: the standard insert write phase
    /// (lock, validate, link bottom-up; linearizes at the level-0 link).
    /// Read-only decisions linearize at the parse phase's tower read.
    pub fn rmw_in<'g>(&'g self, ukey: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        let ikey = key::ikey(ukey);
        loop {
            let ((preds, succs), found) = self.find(ikey, guard);
            if let Some(lf) = found {
                let victim = succs[lf];
                // SAFETY: pinned.
                let v = unsafe { node(victim) };
                if !v.is_fully_linked() || v.top_level() != lf || v.is_marked() {
                    // Half-built, deleted, or superseded: in every case the
                    // authoritative state is only a re-parse away.
                    csds_metrics::restart();
                    continue;
                }
                let current = v.header().value.as_ref().expect("live node holds a value");
                let Some(new_value) = f(Some(current)) else {
                    return RmwOutcome {
                        prev: Some(current.clone()),
                        cur: Some(current),
                        applied: false,
                    };
                };
                let top = v.top_level();
                let vg = lock_guard(&v.lock);
                let guards = Self::lock_preds(&preds, top);
                let fb = self.region.as_ref().map(TxRegion::enter_fallback);
                let mut valid = !v.is_marked();
                if valid {
                    for l in 0..=top {
                        // SAFETY: pinned.
                        let p = unsafe { node(preds[l]) };
                        if p.is_marked() || p.next(l).load(guard) != victim {
                            valid = false;
                            break;
                        }
                    }
                }
                if !valid {
                    drop(fb);
                    drop(guards);
                    drop(vg);
                    csds_metrics::restart();
                    continue;
                }
                let new_s = alloc_node(Node::new(ikey, Some(new_value), top + 1));
                // SAFETY: unpublished; the victim's next pointers are
                // stable (writers of those edges lock the victim first).
                let new_ref = unsafe { node(new_s) };
                for l in 0..=top {
                    new_ref.next(l).store(v.next(l).load(guard));
                }
                new_ref.fully_linked.store(1, Ordering::Release);
                v.marked.store(SUPERSEDED, Ordering::Release);
                for l in (0..=top).rev() {
                    // SAFETY: pinned; locked. Level 0 last: it is the level
                    // readers and `find` treat as authoritative.
                    unsafe { node(preds[l]) }.next(l).store(new_s);
                }
                drop(fb);
                drop(guards);
                drop(vg);
                let prev = v.value.clone();
                // SAFETY: unlinked at every level under the locks; the
                // SUPERSEDED transition makes us the unique retirer.
                unsafe { retire(guard, victim) };
                let cur = new_ref.header().value.as_ref();
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
            let height = random_level();
            let top = height - 1;
            let new_s = alloc_node(Node::new(ikey, Some(new_value), height));
            // SAFETY: unpublished.
            let new_ref = unsafe { node(new_s) };
            for l in 0..=top {
                new_ref.next(l).store(succs[l]);
            }
            let guards = Self::lock_preds(&preds, top);
            let fb = self.region.as_ref().map(TxRegion::enter_fallback);
            if !self.validate_windows(&preds, &succs, top, guard) {
                drop(fb);
                drop(guards);
                // SAFETY: never published.
                unsafe { drop(reclaim(new_s)) };
                csds_metrics::restart();
                continue;
            }
            new_ref.fully_linked.store(1, Ordering::Release);
            for l in 0..=top {
                // SAFETY: pinned; locked.
                unsafe { node(preds[l]) }.next(l).store(new_s);
            }
            drop(fb);
            drop(guards);
            let cur = new_ref.header().value.as_ref();
            return RmwOutcome {
                prev: None,
                cur,
                applied: true,
            };
        }
    }

    /// Guard-scoped bounded ordered iteration: invoke `f(key, &value)` for
    /// each present key in `range` (user keys, half-open, ascending order)
    /// until `f` returns `false` or the range is exhausted. Returns the
    /// number of entries visited.
    ///
    /// # Consistency contract (epoch-consistent)
    ///
    /// The scan is **not** a snapshot. It descends to the first key `>=
    /// range.start` with the ordinary lock-free parse and then walks the
    /// bottom level under the caller's epoch pin, observing each node's
    /// state at the moment it is visited:
    ///
    /// * every key present for the *entire* scan is visited exactly once,
    ///   with a value that was current at some instant during the scan;
    /// * keys inserted or removed *while* the scan runs may or may not be
    ///   observed (each individual visit is linearizable; the sequence as a
    ///   whole is not);
    /// * a value replaced mid-scan by [`rmw_in`](Self::rmw_in) may be
    ///   reported at its pre-replacement value (the visit linearizes before
    ///   the replacement — the same contract as
    ///   [`get_in`](Self::get_in) on a superseded tower);
    /// * references passed to `f` stay valid for `'g` — nodes unlinked
    ///   mid-scan are EBR-retired, and the caller's pin keeps them alive.
    ///
    /// This is the guarantee the epoch substrate gives away for free; a
    /// snapshot-consistent scan needs a COW table or multi-versioning and
    /// is out of scope here.
    pub fn range_in<'g, F>(
        &'g self,
        range: std::ops::Range<u64>,
        mut f: F,
        guard: &'g Guard,
    ) -> usize
    where
        F: FnMut(u64, &'g V) -> bool,
    {
        if range.start >= range.end {
            return 0;
        }
        let ilo = key::ikey(range.start);
        let ((_, succs), _) = self.find(ilo, guard);
        let mut curr = succs[0];
        let mut visited = 0;
        loop {
            // SAFETY: pinned.
            let c = unsafe { node(curr) };
            // Compare in user-key space: `range.end` may exceed the largest
            // encodable internal key.
            if c.key == TAIL_IKEY || key::ukey(c.key) >= range.end {
                return visited;
            }
            if c.is_fully_linked() && !c.is_deleted() {
                let v = c.header().value.as_ref().expect("live node holds a value");
                visited += 1;
                if !f(key::ukey(c.key), v) {
                    return visited;
                }
            }
            curr = c.next(0).load(guard);
        }
    }
}

impl<V: Clone + Send + Sync> GuardedMap<V> for HerlihySkipList<V> {
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        HerlihySkipList::get_in(self, key, guard)
    }

    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        HerlihySkipList::insert_in(self, key, value, guard)
    }

    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        HerlihySkipList::remove_in(self, key, guard)
    }

    fn len_in(&self, guard: &Guard) -> usize {
        HerlihySkipList::len_in(self, guard)
    }

    fn is_empty_in(&self, guard: &Guard) -> bool {
        HerlihySkipList::is_empty_in(self, guard)
    }

    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        HerlihySkipList::rmw_in(self, key, f, guard)
    }
}

impl<V> Drop for HerlihySkipList<V> {
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
        let s = HerlihySkipList::new();
        assert!(s.insert(10, 100));
        assert!(s.insert(5, 50));
        assert!(s.insert(20, 200));
        assert!(!s.insert(10, 999));
        assert_eq!(s.get(10), Some(100));
        assert_eq!(s.keys(), vec![5, 10, 20]);
        assert_eq!(s.remove(10), Some(100));
        assert_eq!(s.remove(10), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn sequential_model() {
        testutil::sequential_model_check(HerlihySkipList::new(), 4_000, 128);
    }

    #[test]
    fn sequential_model_elision() {
        testutil::sequential_model_check(HerlihySkipList::with_mode(SyncMode::Elision), 4_000, 128);
    }

    #[test]
    fn concurrent_net_effect() {
        let ops = if cfg!(miri) { 100 } else { 4_000 };
        testutil::concurrent_net_effect(Arc::new(HerlihySkipList::new()), 4, ops, 48);
    }

    #[test]
    fn concurrent_net_effect_elision() {
        testutil::concurrent_net_effect(
            Arc::new(HerlihySkipList::with_mode(SyncMode::Elision)),
            4,
            if cfg!(miri) { 100 } else { 2_500 },
            48,
        );
    }

    #[test]
    fn tall_towers_survive_removal() {
        let s = HerlihySkipList::new();
        for k in 0..256 {
            assert!(s.insert(k, k));
        }
        for k in (0..256).step_by(2) {
            assert_eq!(s.remove(k), Some(k));
        }
        for k in 0..256 {
            assert_eq!(s.get(k).is_some(), k % 2 == 1, "key {k}");
        }
        assert_eq!(s.len(), 128);
    }

    #[test]
    fn range_matches_sequential_model() {
        use std::collections::BTreeMap;
        let s = HerlihySkipList::new();
        let mut model = BTreeMap::new();
        // Deterministic xorshift mix of inserts and removes.
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 512;
            if x & (1 << 40) == 0 {
                s.insert(k, k * 7);
                model.insert(k, k * 7);
            } else {
                s.remove(k);
                model.remove(&k);
            }
        }
        let g = pin();
        // An inverted range visits nothing (BTreeMap would panic here).
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 300..100;
        assert_eq!(s.range_in(inverted, |_, _| true, &g), 0);
        for (lo, hi) in [(0u64, 512u64), (100, 300), (511, 512), (17, 18)] {
            let mut got = Vec::new();
            let visited = s.range_in(
                lo..hi,
                |k, v| {
                    got.push((k, *v));
                    true
                },
                &g,
            );
            let want: Vec<(u64, u64)> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "range {lo}..{hi}");
            assert_eq!(visited, want.len());
        }
        // Unbounded-feeling upper end must not overflow key encoding.
        let mut count = 0;
        s.range_in(
            0..u64::MAX,
            |_, _| {
                count += 1;
                true
            },
            &g,
        );
        assert_eq!(count, model.len());
    }

    #[test]
    fn range_early_stop() {
        let s = HerlihySkipList::new();
        for k in 0..100u64 {
            s.insert(k, k);
        }
        let g = pin();
        let mut seen = Vec::new();
        let visited = s.range_in(
            10..90,
            |k, _| {
                seen.push(k);
                seen.len() < 5
            },
            &g,
        );
        assert_eq!(seen, vec![10, 11, 12, 13, 14]);
        assert_eq!(visited, 5);
    }

    #[test]
    fn reads_never_lock_or_restart() {
        let s = HerlihySkipList::new();
        for k in 0..64 {
            s.insert(k, k);
        }
        let _ = csds_metrics::take_and_reset();
        for k in 0..64 {
            assert_eq!(s.get(k), Some(k));
        }
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.restarts, 0);
        assert_eq!(snap.lock_acquires, 0);
    }
}
