//! The paper's blocking hash table: one lock per bucket, chains read
//! without synchronization.
//!
//! Updates acquire the bucket lock and then **cannot fail**: with the whole
//! bucket serialized there is nothing to validate, which is why the paper's
//! Figure 6 reports a restart fraction of exactly 0 for the hash table, and
//! why equation (4) reduces to the classical birthday paradox (the parse
//! phase has length zero — "the lock is acquired immediately after the
//! update starts", §6.1).
//!
//! Reads traverse the bucket chain under an EBR pin, skipping nodes whose
//! `marked` flag is set (a node is marked, then unlinked, both under the
//! bucket lock — in [`SyncMode::Elision`] possibly both inside one
//! speculative transaction, whose commit takes the bucket lock).
//!
//! The bucket lock is an [`OptikLock`], so its version word doubles as a
//! per-bucket seqlock: every chain mutation runs inside a bucket critical
//! section. Every update runs one loop, `rmw_rounds`, whose rounds differ
//! only in how they hold the bucket and which asks its caller's decision
//! (keep, put a value, or remove). The write of every round is one body,
//! `store`, written over [`csds_htm::VersionExec`]. In [`SyncMode::Locks`]
//! `insert_in` and `remove_in` go straight to the last round, which holds
//! the bucket lock. `rmw_in`'s first rounds take a version snapshot, parse
//! and run the user closure unsynchronized, then validate the version (a
//! read-only decision takes no lock at all) or acquire with
//! [`OptikLock::try_lock_version`], taking the lock's cache-line bounce
//! only when the bucket actually changed underneath (paper §5.1's
//! validate-instead-of-wait idiom, extended from BST-TK to the hash table).
//! In [`SyncMode::Elision`] every update's first rounds are those snapshot
//! rounds with the write run as a transaction whose commit takes the bucket
//! lock at the snapshot version; then it locks.
//! Reads never locked and do not validate either: a single-key read has no
//! use for a bucket snapshot.

use csds_sync::atomic::{AtomicUsize, Ordering};

use csds_ebr::{Atomic, Guard, Shared};
use csds_htm::{Exec, LockSet, TxRegion, VersionExec};
use csds_sync::{OptikLock, RawMutex, OPTIMISTIC_RMW_RETRIES};

use crate::hashtable::{bucket_count, bucket_of};
use crate::write::{Decide, Insert, Remove, Write, Written};
use crate::{key, GuardedMap, RmwFn, RmwOutcome, SyncMode, ELISION_RETRIES};

/// `marked` state: node is live.
const LIVE: usize = 0;
/// `marked` state: node is logically deleted.
const DELETED: usize = 1;
/// `marked` state: node was atomically replaced in place by a same-key
/// node with a new value (a put on a present key); the key is still
/// present, so readers that raced onto this node return its (stale) value
/// and linearize before the replacement. Writer validation (`!= 0`)
/// treats the node as gone.
const SUPERSEDED: usize = 2;

struct Node<V> {
    key: u64,
    value: Option<V>,
    marked: AtomicUsize,
    next: Atomic<Node<V>>,
}

struct Bucket<V> {
    lock: OptikLock,
    head: Atomic<Node<V>>,
}

/// Per-bucket-lock hash table. See the module docs.
///
/// Buckets (lock + chain head, 16 bytes) are deliberately **not** padded to
/// cache lines: at load factor 1 the bucket array is the table's hot memory
/// and an 8× footprint blow-up costs far more in capacity misses than
/// adjacent-bucket false sharing (measured by the substrate bench, README
/// "Frozen bench records" at 052dafe, where padding the sibling lock-free
/// table's buckets cost 13×).
pub struct LazyHashTable<V> {
    buckets: Vec<Bucket<V>>,
    mask: usize,
    region: Option<TxRegion>,
}

impl<V: Clone + Send + Sync> LazyHashTable<V> {
    /// Table sized for `capacity` elements at load factor 1.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_mode(capacity, SyncMode::Locks)
    }

    /// Table with an explicit write-phase synchronization mode.
    pub fn with_capacity_and_mode(capacity: usize, mode: SyncMode) -> Self {
        let n = bucket_count(capacity);
        LazyHashTable {
            buckets: (0..n)
                .map(|_| Bucket {
                    lock: OptikLock::new(),
                    head: Atomic::null(),
                })
                .collect(),
            mask: n - 1,
            region: match mode {
                SyncMode::Locks => None,
                SyncMode::Elision => Some(TxRegion::new()),
            },
        }
    }

    #[inline]
    fn bucket(&self, key: u64) -> &Bucket<V> {
        &self.buckets[bucket_of(key, self.mask)]
    }

    /// Unsynchronized scan: `(pred, curr)` such that `curr` is the node with
    /// `key` (pred null ⇒ curr is the head node), or curr null if absent.
    fn scan<'g>(
        bucket: &Bucket<V>,
        key: u64,
        guard: &'g Guard,
    ) -> (Shared<'g, Node<V>>, Shared<'g, Node<V>>) {
        let mut pred = Shared::null();
        let mut curr = bucket.head.load(guard);
        while !curr.is_null() {
            // SAFETY: pinned traversal.
            let c = unsafe { curr.deref() };
            if c.key == key {
                return (pred, curr);
            }
            pred = curr;
            curr = c.next.load(guard);
        }
        (pred, curr)
    }
}

impl<V: Clone + Send + Sync> LazyHashTable<V> {
    /// One unsynchronized chain read: the node's value if the key is
    /// present and not deleted — the paper's store-free parse. It is
    /// linearizable as it stands: EBR keeps every reachable node alive, a
    /// node is marked before it is unlinked, and a reader that raced onto a
    /// `SUPERSEDED` node returns the value the key held when the reader
    /// passed the link, so it linearizes before the replacement.
    fn read_chain<'g>(bucket: &'g Bucket<V>, k: u64, guard: &'g Guard) -> Option<&'g V> {
        let (_, curr) = Self::scan(bucket, k, guard);
        if curr.is_null() {
            return None;
        }
        // SAFETY: pinned.
        let c = unsafe { curr.deref() };
        if c.marked.load(Ordering::Acquire) == DELETED {
            None
        } else {
            // LIVE, or SUPERSEDED (replaced in place: the key is present;
            // this stale read linearizes before the replacement).
            c.value.as_ref()
        }
    }

    /// The write loop behind `insert_in`, `remove_in` and `rmw_in`: parse,
    /// decide, then [`store`](Self::store) the write. Its rounds differ
    /// only in how they hold the bucket.
    ///
    /// * A snapshot round snapshots the bucket version, parses and decides
    ///   unsynchronized, then certifies a read-only decision with
    ///   [`OptikLock::read_validate`] (no lock at all) or runs the write
    ///   with the bucket lock taken at that version (so success proves
    ///   `pred`/`curr` are still the chain's nodes). A torn round restarts.
    ///   In [`SyncMode::Locks`] the first `snapshots` rounds are snapshot
    ///   rounds whose write runs through the lock set (`try_lock_version`);
    ///   only `rmw_in` asks for them. In [`SyncMode::Elision`] the first
    ///   [`ELISION_RETRIES`] rounds are snapshot rounds whose write runs
    ///   through a transaction that commits at the snapshot version.
    /// * The last round holds the bucket lock across the whole
    ///   read-decide-apply, and cannot fail.
    ///
    /// A present key is replaced by a fresh same-key node at the same chain
    /// position, the old one marked `SUPERSEDED`, or unlinked after a
    /// `DELETED` mark; an absent key is pushed at the bucket head.
    /// **Linearization point: the chain-link store.**
    fn rmw_rounds<'g>(
        &'g self,
        key: u64,
        mut decide: impl Decide<V>,
        snapshots: usize,
        guard: &'g Guard,
    ) -> Written<'g, V> {
        key::check_user_key(key);
        let bucket = self.bucket(key);
        let mut region = self.region.as_ref();
        let mut snapshots_left = region.map_or(snapshots, |_| ELISION_RETRIES as usize);
        loop {
            let mut locks = LockSet::<OptikLock, 1>::default();
            let seen = if snapshots_left > 0 {
                snapshots_left -= 1;
                if region.is_none() {
                    csds_metrics::optimistic_attempt();
                }
                let Some(seen) = bucket.lock.read_begin() else {
                    // A writer is inside the bucket right now.
                    torn_round(region);
                    continue;
                };
                Some(seen)
            } else {
                if region.take().is_some() {
                    csds_metrics::elide_fallback();
                } else if snapshots > 0 {
                    csds_metrics::optimistic_fallback();
                }
                locks.lock(&bucket.lock);
                None
            };
            let (pred, curr) = Self::scan(bucket, key, guard);
            // SAFETY: pinned.
            let found = (!curr.is_null()).then(|| unsafe { curr.deref() });
            let cur = match found.map(|c| (c, c.marked.load(Ordering::Acquire))) {
                None => None,
                Some((c, LIVE)) => Some(c.value.as_ref().expect("live node holds a value")),
                Some(_) => {
                    // Mark, unlink and replacement share one critical
                    // section, so neither the lock holder nor a quiescent
                    // snapshot can reach a marked node: this round is torn.
                    debug_assert!(seen.is_some());
                    torn_round(region);
                    continue;
                }
            };
            let new_s = match decide.decide(cur) {
                Write::Put(value) => Some(Shared::boxed(Node {
                    key,
                    value: Some(value),
                    marked: AtomicUsize::new(LIVE),
                    next: Atomic::null(),
                })),
                Write::Remove if cur.is_some() => None,
                _ => {
                    // Read-only decision: the lock, or a seqlock-style
                    // validation, certifies the observation.
                    if seen.is_some_and(|seen| !bucket.lock.read_validate(seen)) {
                        torn_round(region);
                        continue;
                    }
                    return Written::kept(cur);
                }
            };
            // The slot that points at `curr`.
            let link = if pred.is_null() {
                &bucket.head
            } else {
                // SAFETY: pinned.
                &unsafe { pred.deref() }.next
            };
            let applied = match region {
                Some(region) => {
                    let mut tx = region.begin();
                    Self::store(&mut tx, bucket, seen, link, found, new_s) && tx.commit().is_ok()
                }
                None => Self::store(&mut locks, bucket, seen, link, found, new_s),
            };
            if applied {
                locks.commit();
                if found.is_some() {
                    // SAFETY: unlinked under the bucket lock or in one
                    // commit; retired once.
                    unsafe { guard.defer_drop(curr) };
                }
                // SAFETY: published; pinned.
                let put = new_s.and_then(|n| unsafe { n.deref() }.value.as_ref());
                return Written::wrote(cur, put);
            }
            torn_round(region);
            if let Some(n) = new_s {
                // SAFETY: never published.
                decide.unapplied(
                    unsafe { n.into_box() }
                        .value
                        .expect("put nodes hold a value"),
                );
            }
        }
    }

    /// The write of a round: take the bucket lock at the snapshot version
    /// `seen` (a locked round, `seen` `None`, holds it already), then
    /// replace or unlink `found`, whose chain slot is `link`, or push
    /// `new_s` at the head. `false`: the bucket moved since `seen`.
    fn store<'a>(
        e: &mut impl VersionExec<'a>,
        bucket: &'a Bucket<V>,
        seen: Option<u64>,
        link: &'a Atomic<Node<V>>,
        found: Option<&'a Node<V>>,
        new_s: Option<Shared<'a, Node<V>>>,
    ) -> bool {
        if seen.is_some_and(|seen| !e.lock_version(&bucket.lock, seen)) {
            return false;
        }
        // The chain is serialized from here on.
        let (link, succ) = match found {
            Some(c) => {
                let mark = if new_s.is_some() { SUPERSEDED } else { DELETED };
                e.write(&c.marked, mark);
                (link, e.read(c.next.as_raw_atomic()))
            }
            None => (&bucket.head, e.read(bucket.head.as_raw_atomic())),
        };
        if let Some(n) = new_s {
            // SAFETY: unpublished until the link store below.
            e.write(unsafe { n.deref() }.next.as_raw_atomic(), succ);
        }
        e.write(link.as_raw_atomic(), new_s.map_or(succ, |n| n.as_raw())); // linearization point
        true
    }
}

/// A round was torn by a concurrent writer: count it and restart. An
/// elision-mode round counts only the restart; its transaction counts the
/// rest.
fn torn_round(region: Option<&TxRegion>) {
    if region.is_none() {
        csds_metrics::optimistic_failure();
    }
    csds_metrics::restart();
}

impl<V: Clone + Send + Sync> GuardedMap<V> for LazyHashTable<V> {
    /// Clone-free reference valid for `'g`. No lock, no version, no retry in
    /// either [`SyncMode`] (see `read_chain`).
    fn get_in<'g>(&'g self, k: u64, guard: &'g Guard) -> Option<&'g V> {
        key::check_user_key(k);
        Self::read_chain(self.bucket(k), k, guard)
    }

    /// [`get_in`](GuardedMap::get_in) without materializing the value
    /// reference.
    fn contains_in(&self, k: u64, guard: &Guard) -> bool {
        key::check_user_key(k);
        Self::read_chain(self.bucket(k), k, guard).is_some()
    }

    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        self.rmw_rounds(key, Insert(Some(value)), 0, guard).applied
    }

    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        self.rmw_rounds(key, Remove, 0, guard).prev.cloned()
    }

    fn len_in(&self, guard: &Guard) -> usize {
        let mut n = 0;
        for b in &self.buckets {
            let mut curr = b.head.load(guard);
            while !curr.is_null() {
                // SAFETY: pinned traversal.
                let c = unsafe { curr.deref() };
                if c.marked.load(Ordering::Acquire) != DELETED {
                    n += 1;
                }
                curr = c.next.load(guard);
            }
        }
        n
    }

    /// O(buckets) early-exit walk instead of the default full O(n) count —
    /// returns at the first live node.
    fn is_empty_in(&self, guard: &Guard) -> bool {
        for b in &self.buckets {
            let mut curr = b.head.load(guard);
            while !curr.is_null() {
                // SAFETY: pinned traversal.
                let c = unsafe { curr.deref() };
                if c.marked.load(Ordering::Acquire) != DELETED {
                    return false;
                }
                curr = c.next.load(guard);
            }
        }
        true
    }

    /// `rmw_rounds` with the closure's decision. Its first
    /// [`OPTIMISTIC_RMW_RETRIES`] rounds run **validate-then-lock** (in
    /// elision mode, the speculative rounds instead), so the closure "may
    /// run more than once".
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        self.rmw_rounds(key, f, OPTIMISTIC_RMW_RETRIES, guard)
            .into()
    }
}

impl<V> Drop for LazyHashTable<V> {
    fn drop(&mut self) {
        for b in &self.buckets {
            let mut p = b.head.load_raw();
            while p != 0 {
                // SAFETY: exclusive via &mut self.
                let node = unsafe { Box::from_raw(p as *mut Node<V>) };
                p = node.next.load_raw();
            }
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
        let h = LazyHashTable::with_capacity(16);
        assert!(h.insert(1, 10));
        assert!(h.insert(17, 170)); // possible collision with 1
        assert!(!h.insert(1, 99));
        assert_eq!(h.get(1), Some(10));
        assert_eq!(h.get(17), Some(170));
        assert_eq!(h.remove(1), Some(10));
        assert_eq!(h.remove(1), None);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn sequential_model() {
        testutil::sequential_model_check(LazyHashTable::with_capacity(64), 5_000, 256);
    }

    #[test]
    fn sequential_model_elision() {
        testutil::sequential_model_check(
            LazyHashTable::with_capacity_and_mode(64, SyncMode::Elision),
            5_000,
            256,
        );
    }

    #[test]
    fn rmw_model_through_the_public_and_the_locked_path() {
        let h = LazyHashTable::with_capacity(16);
        testutil::sequential_rmw_model_check(|k, f| h.rmw(k, f), |k| h.get(k), 2_000, 64);

        // No sequential run exhausts the snapshot rounds, so drive the
        // locked round alone.
        let h = LazyHashTable::with_capacity(16);
        let _ = csds_metrics::take_and_reset();
        testutil::sequential_rmw_model_check(
            |k, f| {
                let guard = csds_ebr::pin();
                let out = h.rmw_rounds(k, f, 0, &guard);
                (out.prev.cloned(), out.cur.cloned(), out.applied)
            },
            |k| h.get(k),
            2_000,
            64,
        );
        let snap = csds_metrics::take_and_reset();
        assert_eq!(
            snap.optimistic_attempts, 0,
            "the locked round validates nothing"
        );
        assert!(snap.lock_acquires >= 2_000, "one bucket lock per RMW");

        // An elision-mode table's snapshot rounds write through
        // transactions: they count as elision, not as optimistic attempts.
        let h = LazyHashTable::with_capacity_and_mode(16, SyncMode::Elision);
        testutil::sequential_rmw_model_check(|k, f| h.rmw(k, f), |k| h.get(k), 2_000, 64);
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.optimistic_attempts, 0, "an elided table validated");
    }

    #[test]
    fn concurrent_net_effect() {
        testutil::concurrent_net_effect(Arc::new(LazyHashTable::with_capacity(32)), 4, 5_000, 64);
    }

    #[test]
    fn concurrent_net_effect_elision() {
        testutil::concurrent_net_effect(
            Arc::new(LazyHashTable::with_capacity_and_mode(32, SyncMode::Elision)),
            4,
            3_000,
            64,
        );
    }

    #[test]
    fn updates_never_restart_in_locking_mode() {
        let _ = csds_metrics::take_and_reset();
        let h = LazyHashTable::with_capacity(8);
        for k in 0..64 {
            h.insert(k, k);
        }
        for k in 0..64 {
            h.remove(k);
        }
        let snap = csds_metrics::take_and_reset();
        assert_eq!(
            snap.restarts, 0,
            "paper Fig. 6: hash-table restarts are zero"
        );
    }

    #[test]
    fn single_bucket_table_degenerates_to_list() {
        let h = LazyHashTable::with_capacity(1);
        for k in 0..32 {
            assert!(h.insert(k, k * 2));
        }
        assert_eq!(h.len(), 32);
        for k in 0..32 {
            assert_eq!(h.get(k), Some(k * 2));
        }
    }

    #[test]
    fn elided_replace_speculates() {
        // A replace runs the one write phase, speculation included: an
        // uncontended upsert of a present key commits without a lock.
        let m = LazyHashTable::<u64>::with_capacity_and_mode(16, SyncMode::Elision);
        assert!(m.insert(10, 1));
        let _ = csds_metrics::take_and_reset();
        assert_eq!(m.upsert(10, 2), Some(1));
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.elide_commits, 1);
        assert_eq!(snap.lock_acquires, 0);
        assert_eq!(m.get(10), Some(2));
    }
}
