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
//!   locks the predecessors and unlinks every level;
//! * an RMW replaces a present key's tower with a fresh one of the same
//!   height under the victim's and the predecessors' locks.
//!
//! The three updates run one write loop, `write`: it parses, asks its
//! caller's decision (keep, put a value, or remove) about the tower found,
//! and makes that one write — a link or a replace through `put_phase`, an
//! unlink through `mark` and `unlink`.
//!
//! Those three bodies are written once, over [`csds_htm::Exec`]:
//! [`SyncMode::Locks`] runs them through lock sets (a remove holds the
//! victim's set from `mark` across `unlink` retries). In
//! [`SyncMode::Elision`] a put first runs `put_phase`, and a remove `mark`
//! and `unlink`, as one emulated hardware transaction each (paper §5.4).

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
use csds_htm::{Exec, LockSet, TxRegion};
use csds_sync::{RawMutex, TasLock};

use crate::key::{self, HEAD_IKEY, TAIL_IKEY};
use crate::skiplist::{
    alloc_node, free_all, node, random_level, reclaim, retire, Header, NodeRef, MAX_LEVEL,
};
use crate::write::{Decide, Insert, Remove, Write, Written};
use crate::{GuardedMap, RmwFn, RmwOutcome, SyncMode, ELISION_RETRIES};

/// `marked` state: node is live.
const LIVE: usize = 0;
/// `marked` state: node is logically deleted.
const DELETED: usize = 1;
/// `marked` state: the whole tower was atomically replaced by a same-key
/// tower carrying a new value (a put on a present key). The key is
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

    /// The write loop behind `insert_in`, `remove_in` and `rmw_in`: parse
    /// the per-level windows, decide on the tower found, then write; a
    /// stale window parses and decides again.
    ///
    /// A `SUPERSEDED` tower re-parses before the decision: its key lives on
    /// in the replacing tower. A `DELETED` or half-linked tower reads as
    /// absent, and a put then waits: for the inserter to publish
    /// `fully_linked` (as insert always has), or for the remover to unlink.
    /// Read-only decisions linearize at the parse's tower read.
    ///
    /// An unlink runs the published algorithm: [`mark`](Self::mark) the
    /// victim `DELETED` (the linearization point), then
    /// [`unlink`](Self::unlink) every level. In elision mode one
    /// transaction runs both bodies; once speculation gives up, `speculate`
    /// turns off. The locked unlink holds the victim's lock from its mark
    /// across re-parses until the unlink succeeds.
    fn write<'g>(
        &'g self,
        ukey: u64,
        mut decide: impl Decide<V>,
        guard: &'g Guard,
    ) -> Written<'g, V> {
        let ikey = key::ikey(ukey);
        let mut speculate = self.region.as_ref();
        let mut doomed: Option<(Shared<'g, Node<V>>, LockSet<'g, TasLock, 1>)> = None;
        loop {
            let (windows, found) = self.find(ikey, guard);
            if doomed.is_none() {
                // SAFETY: pinned.
                let tower = found.map(|lf| (lf, windows.1[lf], unsafe { node(windows.1[lf]) }));
                let state = tower.map_or(LIVE, |(_, _, v)| v.marked.load(Ordering::Acquire));
                if state == SUPERSEDED {
                    csds_metrics::restart();
                    continue;
                }
                let present = tower.filter(|&(lf, _, v)| {
                    state == LIVE && v.is_fully_linked() && v.top_level() == lf
                });
                let cur = present
                    .map(|(_, _, v)| v.header().value.as_ref().expect("live node holds a value"));
                match decide.decide(cur) {
                    Write::Keep => return Written::kept(cur),
                    Write::Put(value) => {
                        if let (None, Some((_, _, v))) = (present, tower) {
                            decide.unapplied(value);
                            if state == LIVE {
                                while !v.is_fully_linked() {
                                    std::hint::spin_loop();
                                }
                            } else {
                                csds_metrics::restart();
                            }
                            continue;
                        }
                        let victim = present.map(|(_, victim, _)| victim);
                        match self.put(ikey, value, &windows, victim, guard) {
                            Ok(put) => return Written::wrote(cur, Some(put)),
                            Err(value) => {
                                decide.unapplied(value);
                                csds_metrics::restart();
                                continue;
                            }
                        }
                    }
                    Write::Remove => {
                        let Some((_, victim, v)) = present else {
                            return Written::kept(None);
                        };
                        let preds = &windows.0;
                        let marked = match speculate.and_then(|region| {
                            csds_htm::speculate(region, ELISION_RETRIES, |tx| {
                                Self::mark(tx, v) && Self::unlink(tx, preds, victim)
                            })
                        }) {
                            Some(true) => {
                                // SAFETY: unlinked at all levels in one
                                // commit; retired once by this remover.
                                unsafe { retire(guard, victim) };
                                return Written::wrote(cur, None);
                            }
                            Some(false) => false,
                            None => {
                                speculate = None;
                                let mut locks = LockSet::default();
                                let marked = Self::mark(&mut locks, v);
                                if marked {
                                    doomed = Some((victim, locks));
                                }
                                marked
                            }
                        };
                        if !marked {
                            if v.is_deleted() {
                                return Written::kept(None); // lost to another remover
                            }
                            csds_metrics::restart();
                            continue;
                        }
                    }
                }
            }
            let victim = doomed
                .as_ref()
                .expect("a marked victim awaits its unlink")
                .0;
            let mut locks = LockSet::<TasLock, MAX_LEVEL>::default();
            if Self::unlink(&mut locks, &windows.0, victim) {
                drop(locks);
                drop(doomed);
                // SAFETY: pinned; retired below, kept alive for 'g by the pin.
                let prev = unsafe { node(victim) }.header().value.as_ref();
                // SAFETY: unlinked at every level; the `DELETED` mark made
                // this remover the unique retirer.
                unsafe { retire(guard, victim) };
                return Written::wrote(prev, None);
            }
            csds_metrics::restart(); // the victim stays marked and locked
        }
    }

    /// One put on the parsed windows: link a fresh tower for an absent key,
    /// or replace the present tower `victim` by a fresh one of the same
    /// height. [`csds_htm::run`] runs [`put_phase`](Self::put_phase)
    /// through the lock set, or in elision mode first through
    /// transactions. `Err` hands the value back: a window went stale.
    fn put<'g>(
        &'g self,
        ikey: u64,
        value: V,
        (preds, succs): &Windows<'g, V>,
        victim: Option<Shared<'g, Node<V>>>,
        guard: &'g Guard,
    ) -> Result<&'g V, V> {
        // SAFETY: pinned.
        let height = victim.map_or_else(random_level, |v| unsafe { node(v) }.top_level() + 1);
        let new_s = alloc_node(Node::new(ikey, Some(value), height));
        let expected = victim.map_or(*succs, |v| [v; MAX_LEVEL]);
        let written = csds_htm::run::<TasLock, { MAX_LEVEL + 1 }>(
            self.region.as_ref(),
            ELISION_RETRIES,
            |tx| Self::put_phase(tx, preds, &expected, victim, new_s),
            |locks| Self::put_phase(locks, preds, &expected, victim, new_s),
        );
        if !written {
            // SAFETY: never published.
            return Err(unsafe { reclaim(new_s) }
                .value
                .expect("put towers hold a value"));
        }
        if let Some(victim) = victim {
            // SAFETY: unlinked at every level under the locks; the
            // `SUPERSEDED` transition makes this writer the unique retirer.
            unsafe { retire(guard, victim) };
        }
        // SAFETY: published; pinned.
        Ok(unsafe { node(new_s) }
            .header()
            .value
            .as_ref()
            .expect("put towers hold a value"))
    }

    /// The write phase of a put: lock the victim and the distinct
    /// predecessors bottom-up, validate every level (`!pred.marked &&
    /// !succ.marked && pred.next(l) == succ`, where the successor is the
    /// victim on a replace), and store.
    ///
    /// A link links bottom-up and linearizes at its `fully_linked` store:
    /// until then readers and removers treat the tower as absent. A replace
    /// publishes the new tower fully linked, marks the victim `SUPERSEDED`
    /// and swings the predecessors top-down, linearizing at level 0, so the
    /// key is never observably absent.
    fn put_phase<'a>(
        e: &mut impl Exec<'a, TasLock>,
        preds: &[Shared<'a, Node<V>>; MAX_LEVEL],
        expected: &[Shared<'a, Node<V>>; MAX_LEVEL],
        victim: Option<Shared<'a, Node<V>>>,
        new_s: Shared<'a, Node<V>>,
    ) -> bool
    where
        V: 'a,
    {
        // SAFETY: pinned; `new_s` is unpublished until a predecessor store.
        let (new, victim) = unsafe { (node(new_s), victim.map(|v| node(v))) };
        let top = new.top_level();
        if let Some(v) = victim {
            e.lock(&v.header().lock);
        }
        for l in 0..=top {
            // SAFETY: pinned.
            let (p, s) = unsafe { (node(preds[l]), node(expected[l])) };
            e.lock(&p.header().lock);
            if e.read(&p.header().marked) != LIVE
                || e.read(&s.header().marked) != LIVE
                || e.read(p.next(l).as_raw_atomic()) != expected[l].as_raw()
            {
                return false;
            }
            // A victim's successors are stable: writers of those edges lock
            // the victim first.
            let succ = match victim {
                Some(v) => e.read(v.next(l).as_raw_atomic()),
                None => expected[l].as_raw(),
            };
            e.write(new.next(l).as_raw_atomic(), succ);
        }
        if let Some(v) = victim {
            e.write(&new.header().fully_linked, 1);
            e.write(&v.header().marked, SUPERSEDED);
        }
        for i in 0..=top {
            // A link links bottom-up. A replace swings top-down, level 0
            // last: it is the level readers and `find` treat as
            // authoritative.
            let l = if victim.is_some() { top - i } else { i };
            // SAFETY: pinned.
            let p = unsafe { node(preds[l]) };
            e.write(p.next(l).as_raw_atomic(), new_s.as_raw());
        }
        if victim.is_none() {
            e.write(&new.header().fully_linked, 1); // a link's linearization point
        }
        true
    }

    /// The first step of an unlink: lock the victim and mark it `DELETED`.
    /// `false`: another writer marked it first.
    fn mark<'a>(e: &mut impl Exec<'a, TasLock>, v: NodeRef<'a, Node<V>>) -> bool
    where
        V: 'a,
    {
        let v = v.header();
        e.lock(&v.lock);
        if e.read(&v.marked) != LIVE {
            return false;
        }
        e.write(&v.marked, DELETED);
        true
    }

    /// The second step: lock the distinct predecessors of a marked victim
    /// (its own lock is held from [`mark`](Self::mark)), validate, and
    /// unlink every level top-down. `false`: a window went stale, and the
    /// caller re-parses.
    fn unlink<'a>(
        e: &mut impl Exec<'a, TasLock>,
        preds: &[Shared<'a, Node<V>>; MAX_LEVEL],
        victim: Shared<'a, Node<V>>,
    ) -> bool
    where
        V: 'a,
    {
        // SAFETY: pinned; marked nodes stay reachable until unlinked.
        let v = unsafe { node(victim) };
        let top = v.top_level();
        for l in 0..=top {
            // SAFETY: pinned.
            let p = unsafe { node(preds[l]) };
            e.lock(&p.header().lock);
            if e.read(&p.header().marked) != LIVE
                || e.read(p.next(l).as_raw_atomic()) != victim.as_raw()
            {
                return false;
            }
        }
        for l in (0..=top).rev() {
            // SAFETY: pinned.
            let succ = e.read(v.next(l).as_raw_atomic());
            e.write(unsafe { node(preds[l]) }.next(l).as_raw_atomic(), succ);
        }
        true
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
    /// Clone-free reference valid for `'g`; no stores, no restarts.
    fn get_in<'g>(&'g self, ukey: u64, guard: &'g Guard) -> Option<&'g V> {
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
            if !c.is_deleted() && c.is_fully_linked() {
                n += 1;
            }
            curr = c.next(0).load(guard);
        }
    }

    /// Bottom-level walk that early-exits at the first live node.
    fn is_empty_in(&self, guard: &Guard) -> bool {
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

    /// The write loop with the closure's decision: a present key's tower is
    /// replaced by a fresh tower of the same height (linearizing at the
    /// level-0 predecessor store), an absent key linked as insert links it
    /// (linearizing at `fully_linked`).
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        self.write(key, f, guard).into()
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

    #[test]
    fn elided_replace_speculates() {
        // A replace runs the one write phase, speculation included: an
        // uncontended upsert of a present key commits without a lock.
        let m = HerlihySkipList::<u64>::with_mode(SyncMode::Elision);
        assert!(m.insert(10, 1));
        let _ = csds_metrics::take_and_reset();
        assert_eq!(m.upsert(10, 2), Some(1));
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.elide_commits, 1);
        assert_eq!(snap.lock_acquires, 0);
        assert_eq!(m.get(10), Some(2));
    }
}
