//! Harris's lock-free linked list [23], with the stepwise physical-deletion
//! variant of Michael [43].
//!
//! The logical-deletion mark lives in the low tag bit of a node's `next`
//! pointer (no interposed objects — compare the wait-free list). Searches
//! physically unlink marked nodes they encounter; a search that loses a
//! cleanup CAS restarts (counted as a restart, feeding Fig. 6's lock-free
//! baseline comparisons).

use csds_ebr::{Atomic, Guard, Shared};

use crate::key::{self, HEAD_IKEY, TAIL_IKEY};
use crate::{GuardedMap, RmwFn, RmwOutcome};

/// Tag bit marking a node as logically deleted (set on its `next` pointer).
const MARK: usize = 1;

/// Values live behind an atomic pointer (null in sentinels), so a compound
/// RMW can replace a live node's value with **one CAS on `value`** — the
/// lock-free analogue of in-place mutation under a bucket lock. Protocol:
///
/// * presence is still the `next`-pointer mark (unchanged);
/// * `remove` first wins the mark CAS (its linearization point, as before),
///   then *claims* the value by swapping `value` to null — the claim is
///   what serializes removal against concurrent value replacement;
/// * a replace CASes `value` old → new on a node whose window was observed
///   clean. If the node was marked between the observation and the CAS, the
///   remover has not yet claimed (claims follow marks), so it will claim
///   the *new* value: the replace linearizes immediately before the remove;
/// * readers load `value` once — null means a racing remove already
///   claimed, i.e. the key is absent.
struct Node<V> {
    key: u64,
    value: Atomic<V>,
    next: Atomic<Node<V>>,
}

impl<V> Drop for Node<V> {
    fn drop(&mut self) {
        let p = self.value.load_raw();
        if p != 0 {
            // SAFETY: dropping a node (via EBR or the list's Drop) owns its
            // current value box; claimed/replaced boxes were nulled or
            // swapped out and retired separately.
            unsafe { drop(Box::from_raw(p as *mut V)) };
        }
    }
}

/// Harris/Michael lock-free sorted list. See the module docs.
pub struct HarrisList<V> {
    head: Atomic<Node<V>>,
}

impl<V: Clone + Send + Sync> Default for HarrisList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Send + Sync> HarrisList<V> {
    /// Empty list.
    pub fn new() -> Self {
        let tail = Atomic::new(Node {
            key: TAIL_IKEY,
            value: Atomic::null(),
            next: Atomic::null(),
        });
        HarrisList {
            head: Atomic::new(Node {
                key: HEAD_IKEY,
                value: Atomic::null(),
                next: tail,
            }),
        }
    }

    /// Find `(pred, curr)` with `pred.key < ikey <= curr.key`, where both
    /// are unmarked; unlinks marked nodes encountered on the way.
    fn search<'g>(
        &self,
        ikey: u64,
        guard: &'g Guard,
    ) -> (Shared<'g, Node<V>>, Shared<'g, Node<V>>) {
        'retry: loop {
            let pred_start = self.head.load(guard);
            let mut pred = pred_start;
            // SAFETY: head is never retired.
            let mut curr = unsafe { pred.deref() }.next.load(guard);
            loop {
                // The mark observed on `curr` as stored in pred.next is the
                // *pred* deletion state only when pred is marked; here curr's
                // own deletion state is the tag on curr.next.
                let curr_ptr = curr.with_tag(0);
                // SAFETY: reachable under pin.
                let c = unsafe { curr_ptr.deref() };
                let next = c.next.load(guard);
                if next.tag() == MARK {
                    // curr is logically deleted: unlink it.
                    // SAFETY: pred reachable under pin.
                    let p = unsafe { pred.with_tag(0).deref() };
                    match p.next.compare_exchange(curr_ptr, next.with_tag(0), guard) {
                        Ok(_) => {
                            // SAFETY: we won the unlink; retire exactly once.
                            unsafe { guard.defer_drop(curr_ptr) };
                            curr = next.with_tag(0);
                            continue;
                        }
                        Err(_) => {
                            csds_metrics::restart();
                            continue 'retry;
                        }
                    }
                }
                if c.key >= ikey {
                    return (pred, curr_ptr);
                }
                pred = curr_ptr;
                curr = next;
            }
        }
    }
}

impl<V: Clone + Send + Sync> GuardedMap<V> for HarrisList<V> {
    /// Guard-scoped `get`: clone-free reference valid for `'g`.
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        let ikey = key::ikey(key);
        // Pure wait-free traversal: no stores, no cleanup, no restarts.
        // SAFETY: head never retired; traversal pinned.
        let mut curr = unsafe { self.head.load(guard).deref() }.next.load(guard);
        loop {
            // SAFETY: pinned traversal.
            let c = unsafe { curr.with_tag(0).deref() };
            if c.key >= ikey {
                if c.key != ikey || c.next.load(guard).tag() == MARK {
                    return None;
                }
                // A null value pointer means a racing remove (marked after
                // our tag check) already claimed the value: absent.
                // SAFETY: the value box is retired through EBR; pinned.
                return unsafe { c.value.load(guard).as_ref() };
            }
            curr = c.next.load(guard);
        }
    }

    /// Guard-scoped `insert`.
    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        let ikey = key::ikey(key);
        let mut new_node: Option<Shared<'_, Node<V>>> = None;
        let mut value = Some(value);
        loop {
            let (pred, curr) = self.search(ikey, guard);
            // SAFETY: pinned.
            let c = unsafe { curr.deref() };
            if c.key == ikey {
                if let Some(n) = new_node.take() {
                    // SAFETY: never published; Node::drop frees the boxed
                    // value.
                    unsafe { drop(n.into_box()) };
                }
                return false;
            }
            let new_s = *new_node.get_or_insert_with(|| {
                Shared::boxed(Node {
                    key: ikey,
                    value: Atomic::new(value.take().expect("retries keep the value boxed")),
                    next: Atomic::null(),
                })
            });
            // SAFETY: unpublished, exclusive.
            unsafe { new_s.deref() }.next.store(curr);
            // SAFETY: pinned.
            let p = unsafe { pred.deref() };
            match p.next.compare_exchange(curr, new_s, guard) {
                Ok(_) => return true,
                Err(_) => {
                    csds_metrics::restart();
                    continue;
                }
            }
        }
    }

    /// Guard-scoped `remove`.
    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        let ikey = key::ikey(key);
        loop {
            let (pred, curr) = self.search(ikey, guard);
            // SAFETY: pinned.
            let c = unsafe { curr.deref() };
            if c.key != ikey {
                return None;
            }
            let next = c.next.load(guard);
            if next.tag() == MARK {
                // Another remover won; the key is logically gone.
                return None;
            }
            // Logical deletion: set the mark on curr.next.
            if c.next
                .compare_exchange(next, next.with_tag(MARK), guard)
                .is_err()
            {
                // next changed (insert after curr, or competing remove).
                csds_metrics::restart();
                continue;
            }
            // Claim the value: the mark winner swaps the value pointer to
            // null, serializing this removal against concurrent value
            // replacement (a replace whose CAS landed before this claim
            // linearized before us — we return the value it installed).
            let vptr = c.value.swap(Shared::null(), guard);
            debug_assert!(!vptr.is_null(), "mark winner claims exactly once");
            // SAFETY: claimed under pin.
            let out = Some(unsafe { vptr.deref() }.clone());
            // SAFETY: unlinked from the node by the claim; retired once.
            unsafe { guard.defer_drop(vptr) };
            // Physical deletion: best effort; on failure a later search
            // cleans up (and retires) the node.
            // SAFETY: pinned.
            let p = unsafe { pred.deref() };
            if p.next
                .compare_exchange(curr, next.with_tag(0), guard)
                .is_ok()
            {
                // SAFETY: we unlinked it; retire exactly once. (Cleanup in
                // `search` only retires nodes *it* unlinks.)
                unsafe { guard.defer_drop(curr) };
            }
            return out;
        }
    }

    /// Guard-scoped element count (O(n); quiescently consistent).
    fn len_in(&self, guard: &Guard) -> usize {
        let mut n = 0;
        // SAFETY: head never retired; traversal pinned.
        let mut curr = unsafe { self.head.load(guard).deref() }.next.load(guard);
        loop {
            // SAFETY: pinned traversal.
            let c = unsafe { curr.with_tag(0).deref() };
            if c.key == TAIL_IKEY {
                return n;
            }
            if c.next.load(guard).tag() != MARK {
                n += 1;
            }
            curr = c.next.load(guard);
        }
    }

    /// Guard-scoped emptiness: early-exits at the first unmarked node.
    fn is_empty_in(&self, guard: &Guard) -> bool {
        // SAFETY: head never retired; traversal pinned.
        let mut curr = unsafe { self.head.load(guard).deref() }.next.load(guard);
        loop {
            // SAFETY: pinned traversal.
            let c = unsafe { curr.with_tag(0).deref() };
            if c.key == TAIL_IKEY {
                return true;
            }
            if c.next.load(guard).tag() != MARK {
                return false;
            }
            curr = c.next.load(guard);
        }
    }

    /// Guard-scoped atomic closure RMW; the native override behind
    /// [`GuardedMap::rmw_in`] — lock-free tagged-pointer value replacement
    /// (see the `Node` protocol).
    ///
    /// Present key: **linearization point is the successful CAS on the
    /// node's `value` pointer** (a replace that raced a remove's mark but
    /// beat its claim linearizes immediately before the remove, which then
    /// observes and returns the replaced-in value). Absent key: the
    /// standard publish CAS on `pred.next`. Read-only decisions linearize
    /// at the `value` load.
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        let ikey = key::ikey(key);
        loop {
            let (pred, curr) = self.search(ikey, guard);
            // SAFETY: pinned.
            let c = unsafe { curr.deref() };
            if c.key == ikey {
                let vptr = c.value.load(guard);
                if vptr.is_null() {
                    // Claimed by a remove that linearized already; the next
                    // search unlinks the marked node.
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
                match c.value.compare_exchange(vptr, new_b, guard) {
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
                        // A competing replace or a remove's claim won.
                        // SAFETY: never published.
                        unsafe { drop(new_b.into_box()) };
                        csds_metrics::restart();
                        continue;
                    }
                }
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
                value: Atomic::new(new_value),
                next: Atomic::null(),
            });
            // SAFETY: unpublished, exclusive.
            unsafe { new_s.deref() }.next.store(curr);
            // Capture the value box *before* publishing: after the CAS a
            // racing remove may claim (null) the node's value pointer, but
            // our pin predates the publish, so the box itself stays alive
            // and `cur` references exactly the value this op installed.
            let vraw = unsafe { new_s.deref() }.value.load(guard);
            // SAFETY: pinned.
            let p = unsafe { pred.deref() };
            match p.next.compare_exchange(curr, new_s, guard) {
                Ok(_) => {
                    // SAFETY: published under a pin taken before the CAS.
                    let cur = Some(unsafe { vraw.deref() });
                    return RmwOutcome {
                        prev: None,
                        cur,
                        applied: true,
                    };
                }
                Err(_) => {
                    // SAFETY: never published; Node::drop frees the value.
                    unsafe { drop(new_s.into_box()) };
                    csds_metrics::restart();
                    continue;
                }
            }
        }
    }
}

impl<V> Drop for HarrisList<V> {
    fn drop(&mut self) {
        let mut p = self.head.load_raw() & !MARK;
        while p != 0 {
            // SAFETY: exclusive access via &mut self; marked-but-unlinked
            // nodes were retired to EBR and are not reachable here.
            let node = unsafe { Box::from_raw(p as *mut Node<V>) };
            p = node.next.load_raw() & !MARK;
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
        let l = HarrisList::new();
        assert!(l.insert(1, 10));
        assert!(l.insert(3, 30));
        assert!(l.insert(2, 20));
        assert!(!l.insert(2, 99));
        assert_eq!(l.get(2), Some(20));
        assert_eq!(l.remove(2), Some(20));
        assert_eq!(l.remove(2), None);
        assert_eq!(l.get(2), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn sequential_model() {
        testutil::sequential_model_check(HarrisList::new(), 4_000, 64);
    }

    #[test]
    fn concurrent_net_effect() {
        testutil::concurrent_net_effect(Arc::new(HarrisList::new()), 4, 5_000, 32);
    }

    #[test]
    fn heavy_same_key_contention() {
        // All threads fight over a single key: exercises mark/unlink races.
        let l = Arc::new(HarrisList::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                const ITERS: u64 = if cfg!(miri) { 100 } else { 3_000 };
                for i in 0..ITERS {
                    if (i + t) % 2 == 0 {
                        l.insert(7, i);
                    } else {
                        l.remove(7);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Structure must still be a consistent sorted list.
        let present = l.get(7).is_some();
        assert_eq!(l.len(), usize::from(present));
    }

    #[test]
    fn reads_are_store_free() {
        let _ = csds_metrics::take_and_reset();
        let l = HarrisList::new();
        for k in 0..50 {
            l.insert(k, k);
        }
        let _ = csds_metrics::take_and_reset();
        for k in 0..50 {
            assert_eq!(l.get(k), Some(k));
        }
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.restarts, 0);
        assert_eq!(snap.lock_acquires, 0);
    }
}
