//! The versioned bucket chain that both blocking hash tables are made of:
//! [`LazyHashTable`](super::LazyHashTable) and `csds_elastic`'s
//! `ElasticHashTable` (paper §3, Fig. 6).
//!
//! A [`Bucket`] is an [`OptikLock`] and the head of a singly linked chain
//! of [`Node`]s. Every chain mutation happens under the bucket lock, so the
//! lock's version word doubles as the bucket's seqlock. Reads
//! ([`read_chain`], [`Buckets::live`]) take no lock and do not validate.
//!
//! # One write loop
//!
//! Every update runs [`rmw_rounds`], which asks its caller's decision
//! ([`Decide`]: keep, put a value, or remove) and whose rounds differ only
//! in how they hold the bucket. The table says which bucket through its
//! [`Chains`] hook:
//!
//! * a snapshot round parses [`Chains::snapshot_bucket`] at a version
//!   snapshot ([`OptikLock::read_begin`]) and decides unsynchronized. It
//!   certifies a read-only decision with [`OptikLock::read_validate`] (no
//!   lock at all), and runs a write with the bucket lock taken at the
//!   snapshot version. A torn round restarts. In lock mode the first
//!   `snapshots` rounds are snapshot rounds, written through a [`LockSet`]
//!   (`try_lock_version`). In elision mode (`region` set) the first
//!   [`ELISION_RETRIES`] rounds are, written through a transaction that
//!   commits at the snapshot version;
//! * the last round holds [`Chains::locked_bucket`] across the whole
//!   parse-decide-write, and cannot fail.
//!
//! The write of every round is one body, `store`, over [`VersionExec`]: a
//! present key's node is replaced by a fresh same-key node at the same
//! chain position, or marked and unlinked; an absent key's node is pushed
//! at the head.
//!
//! # The replace rule, and why it is linearizable
//!
//! `marked` is a node's one state bit: live or deleted. A removed node is
//! marked, then unlinked, in one critical section. A replaced node is
//! unlinked and left unmarked. EBR keeps every node a reader reached alive,
//! so a lock-free read that reached the old node returns the value the key
//! held when the reader passed the link to it: the read linearizes before
//! the replacement. An update linearizes at its link store, a read-only
//! decision at its locked or validated parse.
//!
//! A snapshot round that parsed a node which a replace or a remove has
//! since unlinked is torn either way. Every snapshot round ends in
//! `read_validate(seen)`, or in a lock taken at `seen` (`try_lock_version`,
//! or a commit's `Tx::lock_version`), and every write bumps the bucket's
//! version. So neither the lock holder nor a validated snapshot acts on a
//! replaced or a marked node. A table may freeze a bucket by tagging its
//! head (the elastic table's `MOVED`), also under the bucket lock: a
//! snapshot round that meets a tagged head is torn too.

use std::ops::Deref;

use csds_sync::atomic::{AtomicUsize, Ordering};

use csds_ebr::{Atomic, Guard, Shared};
use csds_htm::{LockSet, TxRegion, VersionExec};
use csds_sync::{LockGuard, OptikLock, RawMutex};

use super::{bucket_count, bucket_of};
use crate::write::{Decide, Write, Written};
use crate::{key, ELISION_RETRIES};

/// `marked`: the node is in the map, or was replaced (see the module docs).
const LIVE: usize = 0;
/// `marked`: the node was removed.
const DELETED: usize = 1;

/// One key's node in a bucket chain.
pub struct Node<V> {
    /// The key.
    pub key: u64,
    /// Its value.
    pub value: V,
    marked: AtomicUsize,
    next: Atomic<Node<V>>,
}

impl<V> Node<V> {
    fn boxed<'g>(key: u64, value: V) -> Shared<'g, Node<V>> {
        Shared::boxed(Node {
            key,
            value,
            marked: AtomicUsize::new(LIVE),
            next: Atomic::null(),
        })
    }
}

/// A bucket: its lock, whose version is the chain's seqlock, and the chain.
/// 16 bytes, deliberately unpadded (see `LazyHashTable`). Dropping it frees
/// its chain.
pub struct Bucket<V> {
    /// Taken for every chain mutation.
    pub lock: OptikLock,
    head: Atomic<Node<V>>,
}

impl<V> Bucket<V> {
    /// The chain's head, with the tag a table may have frozen it with.
    #[inline]
    pub fn head<'g>(&self, guard: &'g Guard) -> Shared<'g, Node<V>> {
        self.head.load(guard)
    }

    /// Link a node for `key` at the head. `held` must be this bucket's
    /// lock.
    pub fn push(&self, held: &LockGuard<'_, OptikLock>, key: u64, value: V, guard: &Guard) {
        assert!(held.holds(&self.lock), "push without the bucket lock");
        let n = Node::boxed(key, value);
        // SAFETY: unpublished until the head store below.
        unsafe { n.deref() }.next.store(self.head(guard));
        self.head.store(n);
    }

    /// Replace the chain by a null head carrying `tag`, which every
    /// snapshot round reads as torn. `held` must be this bucket's lock.
    /// The chain is no longer reachable from the bucket: the caller
    /// retires it ([`retire`]).
    pub fn freeze(&self, held: &LockGuard<'_, OptikLock>, tag: usize) {
        assert!(held.holds(&self.lock), "freeze without the bucket lock");
        self.head.store(Shared::null().with_tag(tag));
    }

    /// The chain's live nodes, without synchronization. A frozen bucket
    /// holds none.
    pub fn live<'g>(&'g self, guard: &'g Guard) -> impl Iterator<Item = &'g Node<V>> {
        let mut curr = self.head(guard);
        std::iter::from_fn(move || loop {
            // SAFETY: pinned traversal.
            let n = unsafe { curr.as_ref() }?;
            curr = n.next.load(guard);
            if n.marked.load(Ordering::Acquire) == LIVE {
                return Some(n);
            }
        })
    }
}

impl<V> Drop for Bucket<V> {
    fn drop(&mut self) {
        // SAFETY: exclusive via `&mut self`; each node belongs to one
        // chain, and a frozen bucket's chain was detached before it was
        // retired.
        let mut p = unsafe { Shared::<Node<V>>::from_raw(self.head.load_raw()) };
        while !p.is_null() {
            // SAFETY: as above.
            let node = unsafe { p.into_box() };
            // SAFETY: a chain link is null or a node pointer.
            p = unsafe { Shared::from_raw(node.next.load_raw()) };
        }
    }
}

/// A table's bucket array: a power of two of buckets and the bucket index.
/// Derefs to the slice of buckets.
pub struct Buckets<V> {
    mask: usize,
    slots: Box<[Bucket<V>]>,
}

impl<V> Buckets<V> {
    /// `capacity` empty buckets, rounded up to a power of two.
    pub fn new(capacity: usize) -> Self {
        let n = bucket_count(capacity);
        Buckets {
            mask: n - 1,
            slots: (0..n)
                .map(|_| Bucket {
                    lock: OptikLock::new(),
                    head: Atomic::null(),
                })
                .collect(),
        }
    }

    /// The bucket `key` hashes to.
    #[inline]
    pub fn of(&self, key: u64) -> &Bucket<V> {
        &self.slots[bucket_of(key, self.mask)]
    }

    /// Every bucket's [live](Bucket::live) nodes, bucket by bucket
    /// (quiescently consistent).
    pub fn live<'g>(&'g self, guard: &'g Guard) -> impl Iterator<Item = &'g Node<V>> + 'g {
        self.slots.iter().flat_map(move |b| b.live(guard))
    }
}

impl<V> Deref for Buckets<V> {
    type Target = [Bucket<V>];

    fn deref(&self) -> &[Bucket<V>] {
        &self.slots
    }
}

/// Walk the chain from `head` to `key`: `(pred, curr)`, where `curr` holds
/// `key` (null if absent) and `pred` precedes it (null when `curr` is the
/// first node). Takes no lock, so the result means something only under the
/// bucket lock, at a validated version, or (for readers) at the instant
/// each link was loaded.
#[inline]
fn scan<'g, V>(
    head: Shared<'g, Node<V>>,
    key: u64,
    guard: &'g Guard,
) -> (Shared<'g, Node<V>>, Shared<'g, Node<V>>) {
    let mut pred = Shared::null();
    let mut curr = head;
    // SAFETY: pinned traversal.
    while let Some(n) = unsafe { curr.as_ref() } {
        if n.key == key {
            break;
        }
        pred = curr;
        curr = n.next.load(guard);
    }
    (pred, curr)
}

/// The value of `key` in the chain from `head`, if it is live: the paper's
/// store-free read. No lock, no version, no retry (see the module docs for
/// why it is linearizable as it stands).
#[inline]
pub fn read_chain<'g, V>(head: Shared<'g, Node<V>>, key: u64, guard: &'g Guard) -> Option<&'g V> {
    // SAFETY: pinned.
    let n = unsafe { scan(head, key, guard).1.as_ref() }?;
    (n.marked.load(Ordering::Acquire) == LIVE).then_some(&n.value)
}

/// Retire every node of the chain from `head`.
///
/// # Safety
/// As [`Guard::defer_drop`]: no new pin can reach the chain (its bucket was
/// [frozen](Bucket::freeze)), and this is its only retirement.
pub unsafe fn retire<V: Send + Sync>(head: Shared<'_, Node<V>>, guard: &Guard) {
    let mut curr = head;
    while !curr.is_null() {
        // SAFETY: pinned.
        let next = unsafe { curr.deref() }.next.load(guard);
        // SAFETY: the caller's contract.
        unsafe { guard.defer_drop(curr) };
        curr = next;
    }
}

/// How a table holds the bucket of a key in [`rmw_rounds`].
pub trait Chains<V> {
    /// The bucket a snapshot round parses, or `None`: go straight to the
    /// locked round.
    fn snapshot_bucket<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g Bucket<V>>;

    /// The bucket that is `key`'s authority, and its lock, held. The
    /// head must not be tagged: the locked round cannot fail.
    fn locked_bucket<'g>(
        &'g self,
        key: u64,
        guard: &'g Guard,
    ) -> (&'g Bucket<V>, LockGuard<'g, OptikLock>);
}

/// The write loop behind a chain table's `insert_in`, `remove_in` and
/// `rmw_in`: parse, decide, then `store` the write (see the module docs).
/// `snapshots` snapshot rounds come first in lock mode; `region` puts the
/// table in elision mode. Inlined into each table's update entry points:
/// out of line, elastic-ht updates measured ~10 % slower.
#[inline]
pub fn rmw_rounds<'g, V: Send + Sync>(
    table: &'g impl Chains<V>,
    key: u64,
    mut decide: impl Decide<V>,
    snapshots: usize,
    mut region: Option<&'g TxRegion>,
    guard: &'g Guard,
) -> Written<'g, V> {
    key::check_user_key(key);
    let mut snapshots_left = region.map_or(snapshots, |_| ELISION_RETRIES as usize);
    loop {
        let mut locks = LockSet::<OptikLock, 1>::default();
        let mut held = None;
        let mut snapshot = None;
        if snapshots_left > 0 {
            snapshots_left -= 1;
            if region.is_none() {
                csds_metrics::optimistic_attempt();
            }
            snapshot = table.snapshot_bucket(key, guard);
            if snapshot.is_none() {
                snapshots_left = 0;
            }
        }
        let (bucket, seen) = match snapshot {
            Some(bucket) => {
                let Some(seen) = bucket.lock.read_begin() else {
                    // A writer is inside the bucket right now.
                    torn_round(region);
                    continue;
                };
                (bucket, Some(seen))
            }
            None => {
                if region.take().is_some() {
                    csds_metrics::elide_fallback();
                } else if snapshots > 0 {
                    csds_metrics::optimistic_fallback();
                }
                let (bucket, lock) = table.locked_bucket(key, guard);
                // The round writes the chain on the strength of this lock.
                assert!(
                    lock.holds(&bucket.lock),
                    "a locked round without its bucket lock"
                );
                held = Some(lock);
                (bucket, None)
            }
        };
        let head = bucket.head(guard);
        let (pred, curr) = scan(head, key, guard);
        // SAFETY: pinned.
        let found = unsafe { curr.as_ref() };
        if head.tag() != 0 || found.is_some_and(|c| c.marked.load(Ordering::Acquire) != LIVE) {
            // Freezes, marks and unlinks happen under the bucket lock, so
            // neither the lock holder nor a quiescent snapshot meets them.
            debug_assert!(seen.is_some());
            torn_round(region);
            continue;
        }
        let cur = found.map(|c| &c.value);
        let new = match decide.decide(cur) {
            Write::Put(value) => Some(Node::boxed(key, value)),
            Write::Remove if found.is_some() => None,
            _ => {
                // Read-only decision: the lock, or the version unchanged
                // since `seen`, certifies the parse.
                if seen.is_some_and(|seen| !bucket.lock.read_validate(seen)) {
                    torn_round(region);
                    continue;
                }
                return Written::kept(cur);
            }
        };
        // The slot that points at `curr`.
        // SAFETY: pinned.
        let link = unsafe { pred.as_ref() }.map_or(&bucket.head, |p| &p.next);
        let applied = match region {
            Some(region) => {
                let mut tx = region.begin();
                store(&mut tx, bucket, seen, link, found, new) && tx.commit().is_ok()
            }
            None => store(&mut locks, bucket, seen, link, found, new),
        };
        if applied {
            locks.commit();
            drop(held);
            if found.is_some() {
                // SAFETY: unlinked under the bucket lock or in one commit;
                // retired once.
                unsafe { guard.defer_drop(curr) };
            }
            // SAFETY: published; pinned.
            return Written::wrote(cur, new.map(|n| &unsafe { n.deref() }.value));
        }
        torn_round(region);
        if let Some(n) = new {
            // SAFETY: never published.
            decide.unapplied(unsafe { n.into_box() }.value);
        }
    }
}

/// The write of a round: take the bucket lock at the snapshot version
/// `seen` (a locked round, `seen` `None`, holds it already), then replace
/// or unlink `found`, whose chain slot is `link`, or push `new` at the
/// head. `false`: the bucket moved since `seen`.
fn store<'a, V>(
    e: &mut impl VersionExec<'a>,
    bucket: &'a Bucket<V>,
    seen: Option<u64>,
    link: &'a Atomic<Node<V>>,
    found: Option<&'a Node<V>>,
    new: Option<Shared<'a, Node<V>>>,
) -> bool {
    if seen.is_some_and(|seen| !e.lock_version(&bucket.lock, seen)) {
        return false;
    }
    // The chain is serialized from here on.
    let (link, succ) = match found {
        Some(c) => {
            if new.is_none() {
                e.write(&c.marked, DELETED);
            }
            (link, e.read(c.next.as_raw_atomic()))
        }
        None => (&bucket.head, e.read(bucket.head.as_raw_atomic())),
    };
    if let Some(n) = new {
        // SAFETY: unpublished until the link store below.
        e.write(unsafe { n.deref() }.next.as_raw_atomic(), succ);
    }
    e.write(link.as_raw_atomic(), new.map_or(succ, |n| n.as_raw())); // linearization point
    true
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_stay_unpadded() {
        assert_eq!(std::mem::size_of::<Bucket<u64>>(), 16);
    }
}
