//! Hand-over-hand (lock-coupling) list [Herlihy & Shavit, 30].
//!
//! Every operation — reads included — acquires locks as it traverses:
//! lock `pred`, lock `curr`, release `pred`, advance. The paper uses this
//! algorithm to show that practical wait-freedom is **not** a property of
//! locking in general: with 20 threads and just 1 % updates, threads spend
//! ≈10 % of their time waiting for locks, "regardless of the structure
//! size" (§5.1), so lock-coupling is *not* practically wait-free.
//!
//! The walk holds locks as guards: `locate` returns `pred`'s and `curr`'s
//! [`LockGuard`]s, and each step moves `curr`'s guard into `pred`, which
//! drops — unlocks — the old one. Every lock is therefore released by drop,
//! on unwind too (a panicking `rmw_in` closure runs holding both), and
//! every acquisition runs the critical-section delay hook.
//!
//! Because every access path holds locks, no unlocked traversals exist and
//! the locking discipline alone keeps traversals safe. Unlinked nodes are
//! nevertheless retired through EBR (rather than freed directly, as an
//! earlier revision did): the guard-scoped read API hands out `&'g V`
//! references that outlive the traversal locks, and the caller's pin is
//! what keeps those referents alive.
//!
//! One amendment to the classic algorithm: the list carries a single
//! [`OptikLock`] version word that every writer bumps around its publish
//! store, which lets `get_in` first attempt a **seqlock read** — a fully
//! lockless walk validated against the version — and take the
//! hand-over-hand locked walk only as fallback. Every update runs one loop,
//! `rmw_rounds`, which asks its caller's decision (keep, put a value, or
//! remove): `insert_in` and `remove_in` go straight to its hand-over-hand
//! round, while `rmw_in`'s first rounds are the same seqlock read with the
//! closure run on its result. A declined decision is certified by the
//! validation alone, and a write goes to the hand-over-hand round (the
//! version word carries read authority only). Inside a [`Bucketed`]
//! table this is exactly the "snapshot bucket version → lockless chain
//! walk → validate" protocol (the chains are short, so the one-word writer
//! serialization is held for two stores). The paper's §5.1 indictment of
//! lock-coupling still stands for the *fallback* path; the fast path shows
//! how little it takes to fix the read side.
//!
//! [`Bucketed`]: crate::hashtable::Bucketed

use csds_sync::atomic::{AtomicUsize, Ordering};

use csds_ebr::{Guard, Shared};
use csds_sync::{lock_guard, LockGuard, OptikLock, RawMutex, TicketLock, OPTIMISTIC_RMW_RETRIES};

use crate::key::{self, HEAD_IKEY, TAIL_IKEY};
use crate::write::{Decide, Insert, Remove, Write, Written};
use crate::{GuardedMap, RmwFn, RmwOutcome};

struct Node<V> {
    key: u64,
    value: Option<V>,
    lock: TicketLock,
    /// Raw pointer to the successor, mutated only under this node's lock.
    /// (Atomic so cross-thread publication is well-defined; the lock's
    /// release/acquire pair provides the ordering.)
    next: AtomicUsize,
}

impl<V> Node<V> {
    fn alloc(ikey: u64, value: Option<V>, next: *mut Node<V>) -> *mut Node<V> {
        Box::into_raw(Box::new(Node {
            key: ikey,
            value,
            lock: TicketLock::new(),
            next: AtomicUsize::new(next as usize),
        }))
    }

    /// The successor, as read by a holder of this node's lock.
    fn next(&self) -> *mut Node<V> {
        self.next.load(Ordering::Relaxed) as *mut Node<V>
    }

    fn addr(&self) -> *mut Node<V> {
        self as *const Node<V> as *mut Node<V>
    }
}

/// A node together with the guard that holds its lock.
type Locked<'a, V> = (&'a Node<V>, LockGuard<'a, TicketLock>);

/// Lock-coupling sorted list. See the module docs.
pub struct CouplingList<V> {
    head: *mut Node<V>,
    /// List-level seqlock: writers hold it across their publish store so
    /// optimistic readers can validate a lockless walk against it.
    version: OptikLock,
}

// SAFETY: all node access is serialized per node by the per-node locks;
// values are only read, never mutated, after publication.
unsafe impl<V: Send + Sync> Send for CouplingList<V> {}
unsafe impl<V: Send + Sync> Sync for CouplingList<V> {}

impl<V: Clone + Send + Sync> Default for CouplingList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Send + Sync> CouplingList<V> {
    /// Empty list.
    pub fn new() -> Self {
        let tail = Node::<V>::alloc(TAIL_IKEY, None, std::ptr::null_mut());
        let head = Node::alloc(HEAD_IKEY, None, tail);
        CouplingList {
            head,
            version: OptikLock::new(),
        }
    }

    /// Lockless walk for the optimistic read path. Safe on a torn list:
    /// every node reachable during the caller's pin is alive (unlinked
    /// nodes are EBR-retired, `next` always points at a node no closer to
    /// the head, and the tail sentinel's key exceeds every user ikey, so
    /// the walk terminates). The result is only *trusted* after
    /// [`OptikLock::read_validate`] proves no writer overlapped.
    fn walk_lockless<'g>(&'g self, ikey: u64, _guard: &'g Guard) -> Option<&'g V> {
        // SAFETY: see above — pinned traversal over EBR-retired nodes.
        unsafe {
            let mut curr = (*self.head).next.load(Ordering::Acquire) as *const Node<V>;
            while (*curr).key < ikey {
                curr = (*curr).next.load(Ordering::Acquire) as *const Node<V>;
            }
            if (*curr).key == ikey {
                (*curr).value.as_ref().map(|v| &*(v as *const V))
            } else {
                None
            }
        }
    }

    /// Lock `n` and pair it with its guard.
    ///
    /// # Safety
    /// `n` must be a live node of this list whose lifetime covers `'a`: the
    /// head, or a node reached through a locked predecessor's `next`.
    unsafe fn lock_node<'a>(n: *mut Node<V>) -> Locked<'a, V> {
        let n = &*n;
        (n, lock_guard(&n.lock))
    }

    /// Hand-over-hand traversal. Returns `(pred, curr)`, **both locked**,
    /// with `pred.key < ikey <= curr.key`. Each step locks the next node
    /// after moving the guard of `curr` into `pred`, which drops — unlocks
    /// — the old `pred`: the walk never holds more than two locks, and
    /// waits holding one.
    fn locate(&self, ikey: u64) -> (Locked<'_, V>, Locked<'_, V>) {
        // SAFETY: head is never freed while &self is alive; every other
        // node is reached through the `next` of a node we hold locked, so
        // it cannot be unlinked (and retired) under us.
        unsafe {
            let mut pred = Self::lock_node(self.head);
            let mut curr = Self::lock_node(pred.0.next());
            while curr.0.key < ikey {
                pred = curr;
                curr = Self::lock_node(pred.0.next());
            }
            (pred, curr)
        }
    }

    /// The paper's lock-coupling read: the locks cover the traversal; the
    /// guard keeps the returned reference alive after they are released
    /// (removers retire nodes through EBR and never mutate published
    /// values).
    fn get_locked<'g>(&'g self, ikey: u64, _guard: &'g Guard) -> Option<&'g V> {
        let (_pred, (curr, _g)) = self.locate(ikey);
        if curr.key == ikey {
            curr.value.as_ref()
        } else {
            None
        }
    }

    /// Store `node` into the locked `pred`'s `next`: the writer window for
    /// optimistic readers. Node locks serialize writers positionally; the
    /// list version serializes them against lockless validated reads.
    fn publish(&self, pred: &Node<V>, node: *mut Node<V>) {
        let _w = lock_guard(&self.version);
        pred.next.store(node as usize, Ordering::Release);
    }

    /// The write loop behind `insert_in`, `remove_in` and `rmw_in`. Each of
    /// the first `snapshots` rounds walks the list lockless and decides; if
    /// the decision is *read-only*, a seqlock validation of the list
    /// version certifies the whole parse, with no lock touched at all.
    /// Only `rmw_in` asks for these rounds.
    ///
    /// A write decision ends those rounds at once: a version-certified
    /// *write* would be unsound here, unlike in the bucket tables.
    /// Positional writers take their node locks during the parse and only
    /// bump the list version around the final publish store, so a writer
    /// between `locate` and `publish` is invisible to
    /// `read_begin`/`try_lock_version`. The list version word carries read
    /// authority, not write authority.
    ///
    /// The last round is the hand-over-hand walk, which ends holding both
    /// `pred`'s and `curr`'s locks, so the read-decide-apply is one critical
    /// section and cannot fail: a present key is replaced by a fresh
    /// same-key node (readers racing past the old one return its value and
    /// linearize before the swap) or unlinked, an absent key is inserted in
    /// place. **Linearization point: the `pred.next` store**, or the
    /// validated or locked observation for read-only decisions. The
    /// closure runs holding both guards, so a panic in it unwinds through
    /// them and releases the locks.
    fn rmw_rounds<'g>(
        &'g self,
        ikey: u64,
        mut decide: impl Decide<V>,
        snapshots: usize,
        guard: &'g Guard,
    ) -> Written<'g, V> {
        'snapshots: {
            for _ in 0..snapshots {
                csds_metrics::optimistic_attempt();
                if let Some(seen) = self.version.read_begin() {
                    let found = self.walk_lockless(ikey, guard);
                    match decide.decide(found) {
                        Write::Keep if self.version.read_validate(seen) => {
                            return Written::kept(found)
                        }
                        Write::Keep => {}
                        // The designed handoff to the locked round, not a
                        // torn snapshot: no failure, no fallback.
                        Write::Put(value) => {
                            decide.unapplied(value);
                            break 'snapshots;
                        }
                        Write::Remove => break 'snapshots,
                    }
                }
                csds_metrics::optimistic_failure();
                csds_metrics::restart();
            }
            if snapshots > 0 {
                csds_metrics::optimistic_fallback();
            }
        }
        let ((pred, pg), (curr, cg)) = self.locate(ikey);
        // Value references handed out are kept alive for 'g by the
        // caller's pin: unlinked nodes are retired, never freed in place,
        // and values are never mutated.
        let found =
            (curr.key == ikey).then(|| curr.value.as_ref().expect("live node holds a value"));
        let put = match decide.decide(found) {
            Write::Put(value) => Some(value),
            Write::Remove if found.is_some() => None,
            _ => return Written::kept(found),
        };
        // The new node, if any, takes `curr`'s place or goes in front of it.
        let succ = if found.is_some() {
            curr.next()
        } else {
            curr.addr()
        };
        let node = put.map(|value| Node::alloc(ikey, Some(value), succ));
        self.publish(pred, node.unwrap_or(succ));
        // SAFETY: published; kept alive for 'g like every node.
        let put = node.and_then(|n| unsafe { &*n }.value.as_ref());
        drop((cg, pg));
        if found.is_some() {
            // SAFETY: unlinked under both locks, so unreachable for new
            // traversals; readers that already returned a reference into
            // it hold a pin. Retired exactly once, by this writer.
            unsafe { guard.defer_drop(Shared::<Node<V>>::from_raw(curr.addr() as usize)) };
        }
        Written::wrote(found, put)
    }
}

impl<V: Clone + Send + Sync> GuardedMap<V> for CouplingList<V> {
    /// Fast path: a seqlock read — lockless walk validated against the list
    /// version ([`OptikLock::optimistic_read`], bounded retries). Fallback
    /// (every attempt torn by concurrent writers): the classic
    /// hand-over-hand locked walk, `get_locked`.
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        let ikey = key::ikey(key);
        if let Some(out) = self
            .version
            .optimistic_read(|| self.walk_lockless(ikey, guard))
        {
            return out;
        }
        csds_metrics::optimistic_fallback();
        self.get_locked(ikey, guard)
    }

    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        self.rmw_rounds(key::ikey(key), Insert(Some(value)), 0, guard)
            .applied
    }

    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        self.rmw_rounds(key::ikey(key), Remove, 0, guard)
            .prev
            .cloned()
    }

    /// Hand-over-hand, as `locate`; O(n).
    fn len_in(&self, _guard: &Guard) -> usize {
        let mut n = 0;
        // SAFETY: same locking discipline as `locate`.
        unsafe {
            let mut pred = Self::lock_node(self.head);
            let mut curr = Self::lock_node(pred.0.next());
            while curr.0.key != TAIL_IKEY {
                n += 1;
                pred = curr;
                curr = Self::lock_node(pred.0.next());
            }
        }
        n
    }

    fn is_empty_in(&self, _guard: &Guard) -> bool {
        // O(1): no logical deletion exists, so emptiness is just "is the
        // first node the tail sentinel" — observed under the head lock.
        // SAFETY: same locking discipline as `locate`.
        unsafe {
            let (head, _g) = Self::lock_node(self.head);
            (*head.next()).key == TAIL_IKEY
        }
    }

    /// `rmw_rounds` with the closure's decision and
    /// [`OPTIMISTIC_RMW_RETRIES`] snapshot rounds, so the closure may run
    /// more than once.
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        self.rmw_rounds(key::ikey(key), f, OPTIMISTIC_RMW_RETRIES, guard)
            .into()
    }
}

impl<V> Drop for CouplingList<V> {
    fn drop(&mut self) {
        let mut p = self.head;
        while !p.is_null() {
            // SAFETY: exclusive access via &mut self; retired (unlinked)
            // nodes are owned by EBR and not reachable here.
            let node = unsafe { Box::from_raw(p) };
            p = node.next.load(Ordering::Relaxed) as *mut Node<V>;
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
        let l = CouplingList::new();
        assert!(l.insert(10, 1));
        assert!(l.insert(20, 2));
        assert!(!l.insert(10, 3));
        assert_eq!(l.get(10), Some(1));
        assert_eq!(l.get(15), None);
        assert_eq!(l.remove(10), Some(1));
        assert_eq!(l.remove(10), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn sequential_model() {
        testutil::sequential_model_check(CouplingList::new(), 3_000, 64);
    }

    #[test]
    fn handle_sequential_model() {
        testutil::sequential_model_check_handle(CouplingList::new(), 2_000, 64);
    }

    #[test]
    fn concurrent_net_effect() {
        testutil::concurrent_net_effect(Arc::new(CouplingList::new()), 4, 2_000, 16);
    }

    #[test]
    fn model_through_the_public_and_the_locked_paths() {
        let l = CouplingList::new();
        testutil::sequential_rmw_model_check(|k, f| l.rmw(k, f), |k| l.get(k), 2_000, 64);

        // No sequential run exhausts the snapshot rounds, so drive both
        // hand-over-hand fallbacks directly: the RMW loop with no snapshot
        // rounds, and the locked read.
        let l = CouplingList::new();
        let _ = csds_metrics::take_and_reset();
        testutil::sequential_rmw_model_check(
            |k, f| {
                let guard = csds_ebr::pin();
                let out = l.rmw_rounds(key::ikey(k), f, 0, &guard);
                (out.prev.cloned(), out.cur.cloned(), out.applied)
            },
            |k| l.get_locked(key::ikey(k), &csds_ebr::pin()).copied(),
            2_000,
            64,
        );
        assert_eq!(csds_metrics::take_and_reset().optimistic_attempts, 0);
    }

    #[test]
    fn reads_do_wait_for_locks() {
        // Unlike the lazy list, the paper's coupling read acquires locks —
        // the very reason the paper rejects it as practically wait-free.
        // `get_in` only reaches it as a fallback now; call it directly.
        let l = CouplingList::new();
        l.insert(1, 1);
        let _ = csds_metrics::take_and_reset();
        assert_eq!(l.get_locked(key::ikey(1), &csds_ebr::pin()), Some(&1));
        let snap = csds_metrics::take_and_reset();
        assert!(snap.lock_acquires > 0);
    }

    #[test]
    fn optimistic_reads_skip_locks() {
        // An uncontended get validates against the list version word
        // instead of coupling locks.
        let l = CouplingList::new();
        l.insert(1, 1);
        let _ = csds_metrics::take_and_reset();
        assert_eq!(l.get(1), Some(1));
        assert_eq!(l.get(2), None);
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.lock_acquires, 0, "optimistic read took a lock");
        assert!(snap.optimistic_attempts >= 2);
        assert_eq!(snap.optimistic_failures, 0);
        assert_eq!(snap.optimistic_fallbacks, 0);
    }
}
