//! Generic "one map per bucket" hash-table adapter.
//!
//! Hashing a key to a bucket and delegating to any [`GuardedMap`] turns
//! every list in this library into a hash table — exactly how the paper
//! builds its tables ("one lazy linked list per bucket"). We use it for:
//!
//! * [`CouplingHashTable`] — lock-coupling chains (Herlihy & Shavit \[30\]);
//! * [`LockFreeHashTable`] — Harris chains (≈ Michael's table \[43\]);
//! * [`WaitFreeHashTable`] — wait-free chains: reproduces the paper's
//!   footnote 2, where the wait-free hash table is only ≈33 % slower than
//!   the blocking one because the chains have length ≈1 and the interposed
//!   objects cost a constant, not a traversal multiple.

use std::marker::PhantomData;

use csds_ebr::Guard;

use crate::hashtable::{bucket_count, bucket_of};
use crate::list::{CouplingList, HarrisList, WaitFreeList};
use crate::{key, GuardedMap, RmwFn, RmwOutcome};

/// Hash table delegating each bucket to an inner [`GuardedMap`].
///
/// Bucket heads are deliberately **not** cache-line padded: measured on the
/// substrate bench's read-heavy run (README, "Frozen bench records",
/// 052dafe), padding each bucket to 128 B blew the
/// bucket array up 8× (mostly padding) and cost 13× in throughput at 1024
/// keys — capacity misses from the sparse array dwarf any adjacent-bucket
/// false sharing at load factor 1.
pub struct Bucketed<M, V> {
    buckets: Vec<M>,
    mask: usize,
    _pd: PhantomData<fn() -> V>,
}

impl<M, V> Bucketed<M, V>
where
    M: GuardedMap<V>,
    V: Clone + Send + Sync,
{
    /// Build a table of `bucket_count(capacity)` buckets, constructing each
    /// inner map with `make`.
    pub fn with_capacity_and(capacity: usize, make: impl Fn() -> M) -> Self {
        let n = bucket_count(capacity);
        Bucketed {
            buckets: (0..n).map(|_| make()).collect(),
            mask: n - 1,
            _pd: PhantomData,
        }
    }

    #[inline]
    fn bucket(&self, key: u64) -> &M {
        &self.buckets[bucket_of(key, self.mask)]
    }

    /// Number of buckets (diagnostics).
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }
}

impl<M, V> GuardedMap<V> for Bucketed<M, V>
where
    M: GuardedMap<V>,
    V: Clone + Send + Sync,
{
    /// Guard-scoped `get`: clone-free reference valid for `'g`.
    fn get_in<'g>(&'g self, k: u64, guard: &'g Guard) -> Option<&'g V> {
        key::check_user_key(k);
        self.bucket(k).get_in(k, guard)
    }

    /// Guard-scoped membership test: delegates to the key's bucket so the
    /// inner map's native (possibly optimistic) `contains_in` is reached.
    fn contains_in(&self, k: u64, guard: &Guard) -> bool {
        key::check_user_key(k);
        self.bucket(k).contains_in(k, guard)
    }

    /// Guard-scoped `insert`.
    fn insert_in(&self, k: u64, value: V, guard: &Guard) -> bool {
        key::check_user_key(k);
        self.bucket(k).insert_in(k, value, guard)
    }

    /// Guard-scoped `remove`.
    fn remove_in(&self, k: u64, guard: &Guard) -> Option<V> {
        key::check_user_key(k);
        self.bucket(k).remove_in(k, guard)
    }

    /// Guard-scoped element count (one traversal under one guard).
    fn len_in(&self, guard: &Guard) -> usize {
        self.buckets.iter().map(|b| b.len_in(guard)).sum()
    }

    /// Guard-scoped emptiness: early-exits at the first non-empty bucket
    /// (each inner list early-exits at its first live node) instead of the
    /// default full count.
    fn is_empty_in(&self, guard: &Guard) -> bool {
        self.buckets.iter().all(|b| b.is_empty_in(guard))
    }

    /// Guard-scoped atomic closure RMW: delegates to the key's bucket,
    /// which provides the native implementation (and its linearization
    /// point).
    fn rmw_in<'g>(&'g self, k: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        key::check_user_key(k);
        self.bucket(k).rmw_in(k, f, guard)
    }
}

/// Lock-coupling hash table \[30\]: hand-over-hand chains per bucket.
pub type CouplingHashTable<V> = Bucketed<CouplingList<V>, V>;

/// Lock-free hash table (Harris chains; ≈ Michael \[43\]).
pub type LockFreeHashTable<V> = Bucketed<HarrisList<V>, V>;

/// Wait-free hash table (wait-free chains; paper footnote 2).
pub type WaitFreeHashTable<V> = Bucketed<WaitFreeList<V>, V>;

impl<V: Clone + Send + Sync> CouplingHashTable<V> {
    /// Lock-coupling table sized for `capacity` at load factor 1.
    pub fn with_capacity(capacity: usize) -> Self {
        Bucketed::with_capacity_and(capacity, CouplingList::new)
    }
}

impl<V: Clone + Send + Sync> LockFreeHashTable<V> {
    /// Lock-free table sized for `capacity` at load factor 1.
    pub fn with_capacity(capacity: usize) -> Self {
        Bucketed::with_capacity_and(capacity, HarrisList::new)
    }
}

impl<V: Clone + Send + Sync> WaitFreeHashTable<V> {
    /// Wait-free table sized for `capacity` at load factor 1.
    pub fn with_capacity(capacity: usize) -> Self {
        Bucketed::with_capacity_and(capacity, WaitFreeList::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use std::sync::Arc;

    #[test]
    fn coupling_table_sequential_model() {
        testutil::sequential_model_check(CouplingHashTable::with_capacity(32), 3_000, 128);
    }

    #[test]
    fn lockfree_table_sequential_model() {
        testutil::sequential_model_check(LockFreeHashTable::with_capacity(32), 3_000, 128);
    }

    #[test]
    fn waitfree_table_sequential_model() {
        testutil::sequential_model_check(WaitFreeHashTable::with_capacity(32), 3_000, 128);
    }

    #[test]
    fn lockfree_table_concurrent() {
        testutil::concurrent_net_effect(
            Arc::new(LockFreeHashTable::with_capacity(32)),
            4,
            4_000,
            64,
        );
    }

    #[test]
    fn waitfree_table_concurrent() {
        testutil::concurrent_net_effect(
            Arc::new(WaitFreeHashTable::with_capacity(32)),
            4,
            2_500,
            64,
        );
    }

    #[test]
    fn bucket_counts() {
        let t = LockFreeHashTable::<u64>::with_capacity(100);
        assert_eq!(t.buckets(), 128);
    }
}
