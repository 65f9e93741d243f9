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
//! The buckets, the reads and the one write loop are the versioned bucket
//! [`chain`](super::chain), which `csds_elastic` shares; its module docs
//! give the replace rule and the linearization argument. This table always
//! hands the loop its one bucket. In [`SyncMode::Locks`] `insert_in` and
//! `remove_in` go straight to the loop's locked round, and `rmw_in`'s first
//! [`OPTIMISTIC_RMW_RETRIES`] rounds are validate-then-lock snapshot rounds
//! (paper §5.1's validate-instead-of-wait idiom, extended from BST-TK to the
//! hash table). In [`SyncMode::Elision`] every update's first rounds are
//! snapshot rounds whose write runs as a transaction that commits at the
//! snapshot version; then it locks. Reads never lock and do not validate.

use csds_ebr::Guard;
use csds_htm::TxRegion;
use csds_sync::{lock_guard, LockGuard, OptikLock, OPTIMISTIC_RMW_RETRIES};

use crate::hashtable::chain::{self, Bucket, Buckets, Chains};
use crate::write::{Insert, Remove};
use crate::{key, GuardedMap, RmwFn, RmwOutcome, SyncMode};

/// Per-bucket-lock hash table. See the module docs.
///
/// Buckets (lock + chain head, 16 bytes) are deliberately **not** padded to
/// cache lines: at load factor 1 the bucket array is the table's hot memory
/// and an 8× footprint blow-up costs far more in capacity misses than
/// adjacent-bucket false sharing (measured by the substrate bench, README
/// "Frozen bench records" at 052dafe, where padding the sibling lock-free
/// table's buckets cost 13×).
pub struct LazyHashTable<V> {
    buckets: Buckets<V>,
    region: Option<TxRegion>,
}

impl<V: Clone + Send + Sync> LazyHashTable<V> {
    /// Table sized for `capacity` elements at load factor 1.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_mode(capacity, SyncMode::Locks)
    }

    /// Table with an explicit write-phase synchronization mode.
    pub fn with_capacity_and_mode(capacity: usize, mode: SyncMode) -> Self {
        Self::with_capacity_and_region(capacity, (mode == SyncMode::Elision).then(TxRegion::new))
    }

    /// [`SyncMode::Elision`] table whose transactions run in `region`, or a
    /// [`SyncMode::Locks`] table (`None`). An interleaving model passes a
    /// region whose quantum no schedule overruns, so that no attempt
    /// aborts on the wall clock.
    pub fn with_capacity_and_region(capacity: usize, region: Option<TxRegion>) -> Self {
        LazyHashTable {
            buckets: Buckets::new(capacity),
            region,
        }
    }
}

impl<V> Chains<V> for LazyHashTable<V> {
    fn snapshot_bucket<'g>(&'g self, key: u64, _guard: &'g Guard) -> Option<&'g Bucket<V>> {
        Some(self.buckets.of(key))
    }

    fn locked_bucket<'g>(
        &'g self,
        key: u64,
        _guard: &'g Guard,
    ) -> (&'g Bucket<V>, LockGuard<'g, OptikLock>) {
        let bucket = self.buckets.of(key);
        (bucket, lock_guard(&bucket.lock))
    }
}

impl<V: Clone + Send + Sync> GuardedMap<V> for LazyHashTable<V> {
    /// Clone-free reference valid for `'g`. No lock, no version, no retry in
    /// either [`SyncMode`] ([`chain::read_chain`]).
    fn get_in<'g>(&'g self, k: u64, guard: &'g Guard) -> Option<&'g V> {
        key::check_user_key(k);
        chain::read_chain(self.buckets.of(k).head(guard), k, guard)
    }

    /// [`get_in`](GuardedMap::get_in) without materializing the value
    /// reference.
    fn contains_in(&self, k: u64, guard: &Guard) -> bool {
        self.get_in(k, guard).is_some()
    }

    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        let region = self.region.as_ref();
        chain::rmw_rounds(self, key, Insert(Some(value)), 0, region, guard).applied
    }

    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        let region = self.region.as_ref();
        chain::rmw_rounds(self, key, Remove, 0, region, guard)
            .prev
            .cloned()
    }

    fn len_in(&self, guard: &Guard) -> usize {
        self.buckets.live(guard).count()
    }

    /// O(buckets) early-exit walk instead of the default full O(n) count —
    /// returns at the first live node.
    fn is_empty_in(&self, guard: &Guard) -> bool {
        self.buckets.live(guard).next().is_none()
    }

    /// The chain's write loop with the closure's decision. Its first
    /// [`OPTIMISTIC_RMW_RETRIES`] rounds run **validate-then-lock** (in
    /// elision mode, the speculative rounds instead), so the closure "may
    /// run more than once".
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        let region = self.region.as_ref();
        chain::rmw_rounds(self, key, f, OPTIMISTIC_RMW_RETRIES, region, guard).into()
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
                let out = chain::rmw_rounds(&h, k, f, 0, None, &guard);
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
