//! Hash-table implementations of the set/map abstraction.
//!
//! The paper's hash tables use **one chain per bucket with an average load
//! factor of 1** (§3). Updates take per-bucket locks and therefore never
//! restart (Fig. 6 reports exactly zero restarts for the hash table), while
//! reads are synchronization-free.
//!
//! * [`LazyHashTable`] — the paper's blocking hash table: per-bucket lock +
//!   synchronization-free reads (used in Figs. 3–9 and Tables 2–3), built
//!   from the versioned bucket [`chain`] it shares with `csds_elastic`.
//! * [`Bucketed`] — generic "map per bucket" adapter, instantiated as:
//!   [`CouplingHashTable`] (lock-coupling chain \[30\]),
//!   [`LockFreeHashTable`] (Harris chain ≈ Michael's lock-free table \[43\]),
//!   [`WaitFreeHashTable`] (wait-free chain; paper footnote 2).

mod bucketed;
pub mod chain;
mod lazy_ht;

pub use bucketed::{Bucketed, CouplingHashTable, LockFreeHashTable, WaitFreeHashTable};
pub use lazy_ht::LazyHashTable;

/// Fibonacci multiplicative hash of a key.
#[inline]
pub fn fib_hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E3779B97F4A7C15)
}

/// The bucket of `key` among `mask + 1` (a power of two): bits 32 and up
/// of [`fib_hash`].
#[inline]
pub fn bucket_of(key: u64, mask: usize) -> usize {
    (fib_hash(key) >> 32) as usize & mask
}

/// Bucket count for a target capacity at load factor 1 (next power of two).
pub(crate) fn bucket_count(capacity: usize) -> usize {
    capacity.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_count_is_power_of_two() {
        assert_eq!(bucket_count(0), 1);
        assert_eq!(bucket_count(1), 1);
        assert_eq!(bucket_count(3), 4);
        assert_eq!(bucket_count(1024), 1024);
        assert_eq!(bucket_count(1025), 2048);
    }

    #[test]
    fn bucket_of_stays_in_range() {
        let mask = bucket_count(64) - 1;
        for k in 0..10_000u64 {
            assert!(bucket_of(k, mask) <= mask);
        }
    }

    #[test]
    fn bucket_of_spreads_sequential_keys() {
        // Sequential keys must not all collide (multiplicative hashing).
        let mask = bucket_count(256) - 1;
        let mut seen = std::collections::HashSet::new();
        for k in 0..256u64 {
            seen.insert(bucket_of(k, mask));
        }
        assert!(seen.len() > 128, "only {} distinct buckets", seen.len());
    }
}
