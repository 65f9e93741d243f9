//! Concurrent priority queues over the skiplist substrate — the second
//! structure kind beside the maps, and a direct transfer of the paper's
//! blocking-vs-practically-wait-free argument to the classic PQ designs
//! ("Practical Concurrent Priority Queues", Gruber 2015).
//!
//! Two families, both reusing the `csds_core` skiplist towers verbatim:
//!
//! * [`PughPq`] — **blocking**: pop-min walks the bottom level to the first
//!   live node and deletes its tower under Pugh's per-node locks (flag set
//!   under the victim's lock = linearization point, levels unlinked
//!   top-down from the head, whose lock is held across the levels);
//! * [`LotanShavitPq`] — **lock-free**: pop-min claims the head of the
//!   Harris-marked skiplist by winning the level-0 mark CAS (the
//!   linearization point); physical unlinking is batched into one `find`
//!   descent. This is the Lotan–Shavit design: logical deletion races only
//!   on one CAS, so a descheduled popper blocks nobody.
//!
//! Both retire removed nodes through `csds_ebr`, and both record
//! pop-min head races into the `pq_pop_contention` metric (pop-min is the
//! canonical contended hot spot — every popper fights over the same head
//! run, unlike the key-spread map workloads).
//!
//! Keys are **priorities** (smaller = higher priority) with set semantics:
//! a push of an already-present priority returns `false`, matching the
//! skiplist substrate. Callers that need duplicate priorities compose the
//! priority with a unique low-order discriminant (e.g.
//! `priority << 32 | sequence` — the `task_scheduler` example does exactly
//! this).
//!
//! [`PqHandle`] carries the same per-thread session discipline as
//! `csds_core::MapHandle`: one reusable guard, repinned before every
//! operation, with repin-stall accounting (at most one long-lived handle
//! per thread). [`ConcurrentPq`] is the pin-per-op convenience layer.

use csds_core::skiplist::{LockFreeSkipList, PughSkipList};
use csds_core::{check_user_key, GuardedMap};
use csds_ebr::{pin, Guard, Session};

pub use csds_ebr::REPIN_STALL_WARN_THRESHOLD;

/// A guard-scoped concurrent priority queue over `u64` priorities
/// (smaller = higher priority; set semantics per priority).
///
/// The `*_in` methods take an explicit [`Guard`] so one pin can span a
/// batch of operations; returned references are valid for the guard's
/// lifetime `'g` even when a racing (or the same) operation retires the
/// node — the pin blocks the reclamation epoch. Object-safe: harness code
/// holds `dyn GuardedPq<V>` exactly as it holds `dyn GuardedMap<V>`.
pub trait GuardedPq<V>: Send + Sync {
    /// Insert `value` at priority `key`. Returns `false` (and drops
    /// `value`) if the priority is already present.
    fn push_in(&self, key: u64, value: V, guard: &Guard) -> bool;

    /// Remove and return the highest-priority (smallest-key) entry, or
    /// `None` if the queue is empty.
    ///
    /// Ordering contract (checked by `csds_lincheck`): the popped key is
    /// `<=` every key resident in the queue for the *whole* duration of
    /// the pop, and a pop overlapping no concurrent update returns exactly
    /// the minimum. Pops racing pushes of smaller keys are quiescently
    /// consistent — a key inserted mid-pop may or may not be seen.
    fn pop_min_in<'g>(&'g self, guard: &'g Guard) -> Option<(u64, &'g V)>;

    /// The highest-priority entry without removing it (quiescently
    /// consistent).
    fn peek_min_in<'g>(&'g self, guard: &'g Guard) -> Option<(u64, &'g V)>;

    /// Number of entries (O(n); quiescently consistent).
    fn len_in(&self, guard: &Guard) -> usize;

    /// Whether the queue is empty (quiescently consistent).
    fn is_empty_in(&self, guard: &Guard) -> bool {
        self.len_in(guard) == 0
    }
}

/// Blocking skiplist priority queue (Pugh towers; pop-min deletes the head
/// tower under its per-node locks). See the crate docs.
pub struct PughPq<V> {
    inner: PughSkipList<V>,
}

impl<V: Clone + Send + Sync> Default for PughPq<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Send + Sync> PughPq<V> {
    /// Empty queue.
    pub fn new() -> Self {
        PughPq {
            inner: PughSkipList::new(),
        }
    }
}

impl<V: Clone + Send + Sync> GuardedPq<V> for PughPq<V> {
    fn push_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        check_user_key(key);
        let inserted = self.inner.insert_in(key, value, guard);
        if inserted {
            csds_metrics::pq_push();
        }
        inserted
    }

    fn pop_min_in<'g>(&'g self, guard: &'g Guard) -> Option<(u64, &'g V)> {
        self.inner.pop_min_in(guard)
    }

    fn peek_min_in<'g>(&'g self, guard: &'g Guard) -> Option<(u64, &'g V)> {
        self.inner.peek_min_in(guard)
    }

    fn len_in(&self, guard: &Guard) -> usize {
        self.inner.len_in(guard)
    }
}

/// Lock-free Lotan–Shavit priority queue (Harris-marked skiplist; pop-min
/// linearizes at the head node's level-0 mark CAS, physical unlink
/// batched). See the crate docs.
pub struct LotanShavitPq<V> {
    inner: LockFreeSkipList<V>,
}

impl<V: Clone + Send + Sync> Default for LotanShavitPq<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Send + Sync> LotanShavitPq<V> {
    /// Empty queue.
    pub fn new() -> Self {
        LotanShavitPq {
            inner: LockFreeSkipList::new(),
        }
    }
}

impl<V: Clone + Send + Sync> GuardedPq<V> for LotanShavitPq<V> {
    fn push_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        check_user_key(key);
        let inserted = self.inner.insert_in(key, value, guard);
        if inserted {
            csds_metrics::pq_push();
        }
        inserted
    }

    fn pop_min_in<'g>(&'g self, guard: &'g Guard) -> Option<(u64, &'g V)> {
        self.inner.pop_min_in(guard)
    }

    fn peek_min_in<'g>(&'g self, guard: &'g Guard) -> Option<(u64, &'g V)> {
        self.inner.peek_min_in(guard)
    }

    fn len_in(&self, guard: &Guard) -> usize {
        self.inner.len_in(guard)
    }
}

/// A per-thread priority-queue session: one reusable guard, repinned
/// before every operation — the `MapHandle` of [`GuardedPq`].
///
/// The same session rules apply as for `csds_core::MapHandle`: **at most
/// one long-lived handle (of any kind) per thread.** A second live session
/// makes every repin inert, pinning the thread at a stale epoch and
/// stalling reclamation process-wide; [`PqHandle::stalled_ops`] exposes
/// the current inert-repin run, and every
/// [`REPIN_STALL_WARN_THRESHOLD`]-crossing records a `repin_stalls`
/// metric + `RepinStall` trace event.
pub struct PqHandle<'q, V, Q: GuardedPq<V> + ?Sized = dyn GuardedPq<V> + 'static> {
    pq: &'q Q,
    session: Session,
    _v: std::marker::PhantomData<fn() -> V>,
}

impl<'q, V, Q: GuardedPq<V> + ?Sized> PqHandle<'q, V, Q> {
    /// Open a session on `pq` (pins the current thread).
    pub fn new(pq: &'q Q) -> Self {
        PqHandle {
            pq,
            session: Session::new("PqHandle"),
            _v: std::marker::PhantomData,
        }
    }

    /// Insert `value` at priority `key`; `false` if the priority was
    /// already present.
    #[inline]
    pub fn push(&mut self, key: u64, value: V) -> bool {
        self.pq.push_in(key, value, self.session.op())
    }

    /// Remove and return the highest-priority entry, clone-free: the
    /// reference borrows the handle, so it cannot be held across the next
    /// operation (which may repin and invalidate it).
    #[inline]
    pub fn pop_min(&mut self) -> Option<(u64, &V)> {
        self.pq.pop_min_in(self.session.op())
    }

    /// [`pop_min`](Self::pop_min) with the value cloned out.
    #[inline]
    pub fn pop_min_cloned(&mut self) -> Option<(u64, V)>
    where
        V: Clone,
    {
        self.pop_min().map(|(k, v)| (k, v.clone()))
    }

    /// The highest-priority entry without removing it (borrows the
    /// handle, like [`pop_min`](Self::pop_min)).
    #[inline]
    pub fn peek_min(&mut self) -> Option<(u64, &V)> {
        self.pq.peek_min_in(self.session.op())
    }

    /// Number of entries (O(n); quiescently consistent).
    #[allow(clippy::len_without_is_empty)] // is_empty exists, &mut self
    #[inline]
    pub fn len(&mut self) -> usize {
        self.pq.len_in(self.session.op())
    }

    /// Whether the queue is empty (quiescently consistent).
    #[inline]
    pub fn is_empty(&mut self) -> bool {
        self.pq.is_empty_in(self.session.op())
    }

    /// Operations completed through this handle.
    pub fn ops(&self) -> u64 {
        self.session.ops()
    }

    /// Current run of consecutive inert repins (see the type docs; `0` in
    /// the healthy single-session configuration).
    pub fn stalled_ops(&self) -> u64 {
        self.session.stalled_ops()
    }

    /// The session guard, e.g. for calling inherent `*_in` methods of the
    /// underlying structure directly.
    pub fn guard(&self) -> &Guard {
        self.session.guard()
    }

    /// Re-validate the session guard against the current global epoch
    /// without issuing an operation; returns whether the repin was
    /// effective and feeds the [`stalled_ops`](Self::stalled_ops)
    /// accounting.
    pub fn refresh(&mut self) -> bool {
        self.session.refresh()
    }
}

/// Pin-per-op convenience layer over [`GuardedPq`] (values cloned out) —
/// the `ConcurrentMap` of priority queues. Blanket-implemented.
pub trait ConcurrentPq<V: Clone>: Send + Sync {
    /// Insert `value` at priority `key`; `false` if present.
    fn push(&self, key: u64, value: V) -> bool;
    /// Remove and return the highest-priority entry (cloned).
    fn pop_min(&self) -> Option<(u64, V)>;
    /// The highest-priority entry without removing it (cloned).
    fn peek_min(&self) -> Option<(u64, V)>;
    /// Number of entries (quiescently consistent).
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone, Q: GuardedPq<V> + ?Sized> ConcurrentPq<V> for Q {
    fn push(&self, key: u64, value: V) -> bool {
        let g = pin();
        self.push_in(key, value, &g)
    }

    fn pop_min(&self) -> Option<(u64, V)> {
        let g = pin();
        self.pop_min_in(&g).map(|(k, v)| (k, v.clone()))
    }

    fn peek_min(&self) -> Option<(u64, V)> {
        let g = pin();
        self.peek_min_in(&g).map(|(k, v)| (k, v.clone()))
    }

    fn len(&self) -> usize {
        let g = pin();
        self.len_in(&g)
    }

    fn is_empty(&self) -> bool {
        let g = pin();
        self.is_empty_in(&g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn drain<Q: GuardedPq<u64> + ?Sized>(q: &Q) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_min() {
            out.push(e);
        }
        out
    }

    fn basic_semantics(q: &dyn GuardedPq<u64>) {
        assert!(q.is_empty());
        assert!(q.push(5, 50));
        assert!(q.push(2, 20));
        assert!(q.push(9, 90));
        assert!(!q.push(5, 55), "duplicate priority rejected");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_min(), Some((2, 20)));
        assert_eq!(q.pop_min(), Some((2, 20)));
        assert_eq!(q.peek_min(), Some((5, 50)));
        assert_eq!(drain(q), vec![(5, 50), (9, 90)]);
        assert_eq!(q.pop_min(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn pugh_basic() {
        basic_semantics(&PughPq::new());
    }

    #[test]
    fn lotan_shavit_basic() {
        basic_semantics(&LotanShavitPq::new());
    }

    fn sequential_model(q: &dyn GuardedPq<u64>) {
        use std::collections::BTreeMap;
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x = 0x2545f4914f6cdd1du64;
        for _ in 0..4_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 96;
            match x % 3 {
                0 | 1 => {
                    let expect = !model.contains_key(&k);
                    assert_eq!(q.push(k, k * 2), expect, "push {k}");
                    model.entry(k).or_insert(k * 2);
                }
                _ => {
                    let want = model.pop_first();
                    assert_eq!(q.pop_min(), want, "pop");
                }
            }
        }
        let mut rest = Vec::new();
        while let Some(e) = q.pop_min() {
            rest.push(e);
        }
        assert_eq!(rest, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn pugh_sequential_model() {
        sequential_model(&PughPq::new());
    }

    #[test]
    fn lotan_shavit_sequential_model() {
        sequential_model(&LotanShavitPq::new());
    }

    fn concurrent_producers_consumers(q: Arc<dyn GuardedPq<u64>>) {
        let n_producers = 2u64;
        let per = 2_000u64;
        let mut handles = Vec::new();
        for p in 0..n_producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut h = PqHandle::new(&*q);
                for i in 0..per {
                    assert!(h.push(p * per + i, i));
                }
            }));
        }
        let mut poppers = Vec::new();
        for _ in 0..2 {
            let q = Arc::clone(&q);
            poppers.push(std::thread::spawn(move || {
                let mut h = PqHandle::new(&*q);
                let mut got = Vec::new();
                let mut idle = 0u32;
                while got.len() < (n_producers * per) as usize && idle < 1_000_000 {
                    match h.pop_min_cloned() {
                        Some((k, _)) => {
                            got.push(k);
                            idle = 0;
                        }
                        None => idle += 1,
                    }
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<u64> = poppers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        // Whatever was popped was popped exactly once (dedup is a no-op)...
        assert_eq!(all.len() as u64 + q.len() as u64, n_producers * per);
        // ...and the leftovers drain cleanly.
        while q.pop_min().is_some() {}
        assert!(q.is_empty());
    }

    #[test]
    fn pugh_concurrent() {
        concurrent_producers_consumers(Arc::new(PughPq::new()));
    }

    #[test]
    fn lotan_shavit_concurrent() {
        concurrent_producers_consumers(Arc::new(LotanShavitPq::new()));
    }

    #[test]
    fn handle_session_accounting() {
        let q = PughPq::new();
        let mut h = PqHandle::new(&q);
        assert!(h.push(3, 30));
        assert!(h.push(1, 10));
        assert_eq!(h.peek_min(), Some((1, &10)));
        assert_eq!(h.pop_min_cloned(), Some((1, 10)));
        assert_eq!(h.len(), 1);
        assert_eq!(h.ops(), 5);
        assert_eq!(h.stalled_ops(), 0);
    }
}
