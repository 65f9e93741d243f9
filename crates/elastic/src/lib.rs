//! `csds_elastic` — a sharded, dynamically-resizing hash table with
//! EBR-retired incremental migration.
//!
//! Every fixed-capacity table in `csds_core` sizes its bucket array once at
//! construction; this crate provides the elastic counterpart for the
//! ROADMAP's service scenario, where key populations grow and shrink under
//! live traffic. The design extends the paper's thesis — *blocking designs
//! are practically wait-free because waiting is rare and bounded* — to
//! resizing: migration may briefly lock one bucket, but it is incremental,
//! cooperative, and invisible to readers.
//!
//! # Structure
//!
//! An [`ElasticHashTable`] is `S` cache-padded **shards**. Each shard owns
//!
//! * an atomic pointer to its current bucket-array **table** (per-bucket
//!   versioned [`OptikLock`] + lock-free chain, the `LazyHashTable` recipe),
//! * a striped [`ShardedCounter`] tracking occupancy approximately.
//!
//! # Resize protocol
//!
//! When an update observes the shard's occupancy past its grow (load
//! factor > 1) or shrink (< ¼, with a floor) threshold and no migration is
//! running, it allocates a new table whose `prev` points at the current one
//! and CAS-installs it as the shard's table. From that point migration is
//! **cooperative and incremental**: every subsequent *update* on the shard
//! first migrates the old bucket its key hashes to, then claims a small
//! quantum of further old buckets off a shared cursor. Migrating a bucket
//! means locking it, cloning its live entries into the new table (old
//! before new — never the reverse — so lock order is acyclic), freezing the
//! bucket by tagging its head pointer `MOVED`, and retiring the frozen
//! chain through [`csds_ebr`]. The update that moves the last bucket clears
//! `prev` and retires the drained table itself — whole tables flow through
//! the same epoch reclamation as removed nodes.
//!
//! Authority is per bucket: while an old bucket is un-`MOVED`, it is the
//! single authoritative home for its keys (updates re-check the tag *after*
//! locking and restart if the bucket was frozen underneath them); once
//! `MOVED`, authority has transferred wholesale to the new table. Readers
//! therefore **consult old-then-new without blocking**: load the old
//! bucket's head — if un-`MOVED`, scan that frozen-or-live chain (the read
//! linearizes at the head load); if `MOVED`, scan the new table. Reads take
//! no locks and restart only if the table they loaded was superseded by an
//! entire resize mid-read, so they remain practically wait-free exactly in
//! the paper's sense: waiting is possible, rare, and bounded by resize
//! frequency rather than by peer scheduling.
//!
//! # One write loop
//!
//! Every update runs one loop, `rmw_rounds`, which asks its caller's
//! decision (keep, put a value, or remove) and whose rounds differ only in
//! how they hold the bucket. `insert_in` and `remove_in` go straight to its
//! locked round. For `rmw_in`, while a shard has no migration in flight,
//! the first rounds run validate-then-lock: snapshot the bucket's version word
//! ([`OptikLock::read_begin`]), parse the chain with no synchronization,
//! run the closure, and then either revalidate (read-only decision — the
//! version, the shard's table pointer *and* the `MOVED` tag must all be
//! unchanged) or acquire via `try_lock_version`, whose success certifies
//! the whole parse because **every** bucket mutation — including the
//! `MOVED` freeze — happens under that bucket's lock. Torn parses retry a
//! bounded number of times. The last round, and any round that meets a
//! migration, locks the bucket: help the drain, lock, re-check `MOVED`,
//! retry.
//!
//! Resize events are observable two ways: process-wide through the
//! [`csds_metrics`] resize counters (`resize_migrations_started`, buckets
//! moved, tables retired — aggregated per thread like every other metric)
//! and per table through [`ElasticHashTable::resize_stats`].

use csds_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use csds_core::{check_user_key, GuardedMap, RmwFn, RmwOutcome};
use csds_ebr::{Atomic, Guard, Shared};
use csds_sync::{
    lock_guard, LockGuard, OptikLock, RawMutex, ShardedCounter, OPTIMISTIC_RMW_RETRIES,
};

/// Head-pointer tag marking an old bucket whose contents have moved to the
/// shard's new table (terminal: set once, under the bucket lock).
const MOVED: usize = 1;

/// An update re-checks the resize thresholds only when its own occupancy
/// cell crosses a multiple of this (power of two). Folding the whole
/// striped counter on *every* update would pull each peer's cache-padded
/// cell — the exact line ping-pong the counter exists to avoid — and the
/// thresholds tolerate staleness of a few operations per thread by design
/// (the hysteresis band is a 4× occupancy swing).
const RESIZE_CHECK_PERIOD: i64 = 8;

/// One Fibonacci multiply serves both indices off disjoint bit ranges of
/// the product: the shard comes from the top byte, the bucket index from
/// bit 32 up. They only overlap past 2²⁴ buckets *per shard*, far beyond
/// any real table, so decorrelation costs a single multiply on the read
/// path.
#[inline]
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Shard index from a [`hash`] (callers mask it).
#[inline]
fn shard_bits(h: u64) -> usize {
    (h >> 56) as usize
}

/// Bucket index from a [`hash`] under a table's mask.
#[inline]
fn bucket_index(h: u64, mask: usize) -> usize {
    (h >> 32) as usize & mask
}

/// Largest power of two ≤ `x` (1 for `x ≤ 1`). Resize targets are sized as
/// `floor_pow2(2 · occupancy)`, which lands the post-resize load factor in
/// `[½, 1)` — rounding *up* here would overshoot to load factor ¼ whenever
/// occupancy sits just past a power of two, shrinking the grow/shrink
/// hysteresis from 4× to a couple of elements.
#[inline]
fn floor_pow2(x: usize) -> usize {
    if x <= 1 {
        1
    } else {
        1 << (usize::BITS - 1 - x.leading_zeros())
    }
}

/// Construction-time tuning for [`ElasticHashTable`].
///
/// All bucket counts are **totals across shards**; they are divided by the
/// shard count and rounded up to a power of two per shard.
#[derive(Clone, Copy, Debug)]
pub struct ElasticConfig {
    /// Number of shards (clamped to `1..=256`, rounded to a power of two).
    pub shards: usize,
    /// Total buckets at construction.
    pub initial_buckets: usize,
    /// Total-bucket floor below which shards never shrink.
    pub min_buckets: usize,
    /// Old buckets each update migrates (beyond its own key's bucket) while
    /// a migration is in progress. Smaller values spread the work thinner;
    /// `1` forces migrations to stay in flight longest (used by tests).
    pub migration_quantum: usize,
    /// Cells per shard occupancy counter (see [`ShardedCounter`]).
    pub counter_cells: usize,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            shards: 8,
            initial_buckets: 16,
            min_buckets: 16,
            migration_quantum: 4,
            counter_cells: 8,
        }
    }
}

impl ElasticConfig {
    /// Tuning for a **tenant-scale** table: one shard, four initial buckets,
    /// and a shrink floor of a single bucket, so an emptied tenant compacts
    /// back to (nearly) nothing before the directory retires the table
    /// itself through EBR. A platform holding thousands of mostly-idle
    /// namespaces cannot afford the default 8-shard, 16-bucket footprint
    /// per tenant.
    pub fn tenant() -> Self {
        ElasticConfig {
            shards: 1,
            initial_buckets: 4,
            min_buckets: 1,
            migration_quantum: 4,
            counter_cells: 1,
        }
    }
}

struct Node<V> {
    key: u64,
    value: V,
    marked: AtomicUsize,
    next: Atomic<Node<V>>,
}

struct Bucket<V> {
    /// Versioned lock: the even/odd version word doubles as the bucket's
    /// seqlock for the optimistic RMW fast path. Every bucket mutation —
    /// including the `MOVED` freeze — happens under this lock, so an
    /// unchanged even version proves the chain *and* the authority tag were
    /// quiescent across an unsynchronized parse.
    lock: OptikLock,
    head: Atomic<Node<V>>,
}

/// One shard's bucket array plus the migration state for draining its
/// predecessor.
struct Table<V> {
    mask: usize,
    buckets: Box<[Bucket<V>]>,
    /// The table this one replaced, while its drain is in progress; null
    /// once every old bucket is `MOVED` (transitions non-null → null
    /// exactly once, never the reverse).
    prev: Atomic<Table<V>>,
    /// Work-claiming cursor over `prev`'s buckets (indices past the end are
    /// claimed harmlessly).
    cursor: AtomicUsize,
    /// Old buckets whose `MOVED` transition has completed.
    migrated: AtomicUsize,
}

impl<V> Table<V> {
    fn new(buckets: usize) -> Self {
        let n = buckets.max(1).next_power_of_two();
        Table {
            mask: n - 1,
            buckets: (0..n)
                .map(|_| Bucket {
                    lock: OptikLock::new(),
                    head: Atomic::null(),
                })
                .collect(),
            prev: Atomic::null(),
            cursor: AtomicUsize::new(0),
            migrated: AtomicUsize::new(0),
        }
    }
}

/// Retire a detached table at its real size, header plus bucket array, so
/// the garbage telemetry and EBR's byte trigger see the bucket array a
/// thread holds rather than a header-sized item.
///
/// # Safety
/// As [`Guard::defer_drop`]: `t` is unreachable for new pins and this is
/// its only retirement.
unsafe fn retire_table<V: Send + Sync>(guard: &Guard, t: Shared<'_, Table<V>>) {
    unsafe fn free<V>(p: *mut u8) {
        drop(Box::from_raw(p as *mut Table<V>));
    }
    // SAFETY: the caller holds a pin and `t` is not yet freed.
    let buckets = unsafe { t.deref() }.buckets.len();
    let bytes = std::mem::size_of::<Table<V>>() + buckets * std::mem::size_of::<Bucket<V>>();
    // SAFETY: the caller's contract above; `t` was allocated as a
    // `Box<Table<V>>`, which `free` drops, and `V: Send` lets it run on
    // any thread.
    guard.defer_free(t.as_untagged_raw() as *mut u8, free::<V>, bytes);
}

impl<V> Drop for Table<V> {
    fn drop(&mut self) {
        for b in self.buckets.iter() {
            // Strip a possible MOVED tag; frozen buckets hold a tagged null.
            let mut p = b.head.load_raw() & !MOVED;
            while p != 0 {
                // SAFETY: exclusive via &mut self; migrated buckets were
                // nulled before their chains were retired, so every node
                // reachable here is owned by this table alone.
                let node = unsafe { Box::from_raw(p as *mut Node<V>) };
                p = node.next.load_raw();
            }
        }
        let prev = self.prev.load_raw();
        if prev != 0 {
            // SAFETY: a table's predecessor is only ever reachable through
            // it; recursion depth is at most one (a table is never
            // superseded before its own drain finishes).
            unsafe { drop(Box::from_raw(prev as *mut Table<V>)) };
        }
    }
}

/// Per-shard state. Padding keeps one shard's hot table pointer and
/// occupancy cells off its neighbours' cache lines (the shard array is
/// wrapped in `CachePadded` at the use site).
struct Shard<V> {
    table: Atomic<Table<V>>,
    occupancy: ShardedCounter,
}

/// Monotonic resize counters for one [`ElasticHashTable`] instance (all
/// events are resize-grained and rare, so plain shared atomics suffice; the
/// per-thread [`csds_metrics`] counters carry the same events into the
/// harness's snapshots).
#[derive(Default)]
struct StatsCells {
    migrations_started: AtomicU64,
    migrations_completed: AtomicU64,
    buckets_moved: AtomicU64,
    entries_moved: AtomicU64,
    tables_retired: AtomicU64,
    grows: AtomicU64,
    shrinks: AtomicU64,
}

/// Snapshot of an [`ElasticHashTable`]'s resize activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResizeStats {
    /// Migrations installed (new table CAS-published over an old one).
    pub migrations_started: u64,
    /// Migrations fully drained (last old bucket moved).
    pub migrations_completed: u64,
    /// Old buckets frozen and moved to a new table.
    pub buckets_moved: u64,
    /// Live entries cloned across during migration.
    pub entries_moved: u64,
    /// Drained old tables retired through EBR.
    pub tables_retired: u64,
    /// Migrations that grew the shard.
    pub grows: u64,
    /// Migrations that shrank the shard.
    pub shrinks: u64,
}

/// A sharded hash table that grows and shrinks under live traffic. See the
/// [module docs](self) for the migration protocol.
///
/// Implements [`GuardedMap`] (and therefore `ConcurrentMap` through the
/// blanket pin-per-op wrapper), so it plugs into `MapHandle`, the harness
/// factory and the bench driver like every fixed-capacity structure.
pub struct ElasticHashTable<V> {
    shards: Box<[csds_sync::CachePadded<Shard<V>>]>,
    shard_mask: usize,
    /// Per-shard bucket floor (power of two).
    min_buckets: usize,
    migration_quantum: usize,
    stats: StatsCells,
}

impl<V: Clone + Send + Sync> Default for ElasticHashTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Send + Sync> ElasticHashTable<V> {
    /// Table with the default configuration (see [`ElasticConfig`]).
    pub fn new() -> Self {
        Self::with_config(ElasticConfig::default())
    }

    /// Table initially sized for `capacity` elements at load factor 1,
    /// with `capacity` total buckets as its shrink floor.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_config(ElasticConfig {
            initial_buckets: capacity.max(1),
            min_buckets: capacity.max(1),
            ..ElasticConfig::default()
        })
    }

    /// Tenant-scale table (see [`ElasticConfig::tenant`]): the footprint a
    /// namespace directory hands out per keyspace.
    pub fn tenant() -> Self {
        Self::with_config(ElasticConfig::tenant())
    }

    /// Table with explicit tuning.
    pub fn with_config(cfg: ElasticConfig) -> Self {
        let shards = cfg.shards.clamp(1, 256).next_power_of_two();
        let per_shard = |total: usize| (total.max(1) / shards).next_power_of_two().max(1);
        let initial = per_shard(cfg.initial_buckets);
        ElasticHashTable {
            shards: (0..shards)
                .map(|_| {
                    let shard = Shard {
                        table: Atomic::new(Table::new(initial)),
                        occupancy: ShardedCounter::new(cfg.counter_cells),
                    };
                    csds_sync::CachePadded::new(shard)
                })
                .collect(),
            shard_mask: shards - 1,
            min_buckets: per_shard(cfg.min_buckets),
            migration_quantum: cfg.migration_quantum.max(1),
            stats: StatsCells::default(),
        }
    }

    #[inline]
    fn shard(&self, h: u64) -> &Shard<V> {
        &self.shards[shard_bits(h) & self.shard_mask]
    }

    /// Run resize maintenance with **no operation driving it**: per shard,
    /// help any in-flight drain along and re-check the grow/shrink
    /// thresholds. Normally migrations ride on updates (every
    /// `RESIZE_CHECK_PERIOD`-th); a table that just went quiescent — an
    /// idle namespace after its last `remove` — would otherwise stay at its
    /// high-water bucket count forever. The service's idle sweep calls this
    /// before deciding whether a tenant is empty enough to retire, which is
    /// what makes "shrink to zero" reachable without traffic.
    ///
    /// Buckets already claimed by other in-flight movers are left to them
    /// (helping is cooperative, never exclusive), so one call bounds its
    /// work at two drains per shard.
    pub fn compact_in(&self, guard: &Guard) {
        for padded in self.shards.iter() {
            let shard: &Shard<V> = padded;
            // Two rounds: finish whatever drain is in flight, run the
            // threshold check (which may install a shrink), drain that.
            // Resize targets are computed absolutely (`floor_pow2(2·occ)`),
            // so the second install already lands on the final size.
            for _ in 0..2 {
                loop {
                    let t = shard.table.load(guard);
                    // SAFETY: pinned; a shard's current table is always live.
                    let tref = unsafe { t.deref() };
                    let prev = tref.prev.load(guard);
                    if prev.is_null() {
                        break;
                    }
                    // SAFETY: pinned; prev is cleared before retirement.
                    let p = unsafe { prev.deref() };
                    if tref.cursor.load(Ordering::Relaxed) >= p.buckets.len() {
                        break; // the rest belongs to other movers in flight
                    }
                    self.help_migration(tref, 0, guard);
                }
                self.maybe_resize(shard, guard);
            }
        }
    }

    /// Walk a chain from its untagged `head` for `key`: `(pred, curr)`,
    /// where `curr` is the node holding `key` (null if absent) and `pred`
    /// its predecessor (null when `curr` is the head node). Every node is
    /// pinned by `guard`; the walk takes no lock, so its result means
    /// something only under the bucket lock, at a validated version, or
    /// (for readers) at the instant each link was loaded.
    #[inline]
    fn find<'g>(
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

    fn read_chain<'g>(head: Shared<'g, Node<V>>, key: u64, guard: &'g Guard) -> Option<&'g V> {
        // SAFETY: pinned.
        let n = unsafe { Self::find(head, key, guard).1.as_ref() }?;
        if n.marked.load(Ordering::Acquire) != 0 {
            None
        } else {
            Some(&n.value)
        }
    }

    /// Migrate old bucket `idx` of `p` into `t`. Returns whether this call
    /// performed the un-`MOVED` → `MOVED` transition (idempotent otherwise).
    fn migrate_bucket<'g>(
        &self,
        t: &'g Table<V>,
        p: &'g Table<V>,
        idx: usize,
        guard: &'g Guard,
    ) -> bool {
        let ob = &p.buckets[idx];
        // Lock-free probe first: the common case late in a drain.
        if ob.head.load(guard).tag() == MOVED {
            return false;
        }
        let og = lock_guard(&ob.lock);
        let head = ob.head.load(guard);
        if head.tag() == MOVED {
            return false;
        }
        // Clone live entries into the new table. Lock order is strictly
        // old-bucket → new-bucket (updates hold at most one lock), so no
        // cycle is possible. While we hold the old bucket's lock no update
        // can touch these keys: the old bucket is still their authority,
        // and any update must acquire exactly this lock first.
        let mut entries = 0u64;
        let mut cur = head;
        while !cur.is_null() {
            // SAFETY: pinned traversal.
            let n = unsafe { cur.deref() };
            if n.marked.load(Ordering::Acquire) == 0 {
                let nb = &t.buckets[bucket_index(hash(n.key), t.mask)];
                let ng = lock_guard(&nb.lock);
                let nh = nb.head.load(guard);
                debug_assert!(nh.tag() != MOVED, "current table frozen mid-migration");
                let clone = Shared::boxed(Node {
                    key: n.key,
                    value: n.value.clone(),
                    marked: AtomicUsize::new(0),
                    next: Atomic::null(),
                });
                // SAFETY: unpublished.
                unsafe { clone.deref() }.next.store(nh);
                nb.head.store(clone);
                drop(ng);
                entries += 1;
            }
            cur = n.next.load(guard);
        }
        // Freeze: readers and (after their tag re-check) updates divert to
        // the new table from here on.
        ob.head.store(Shared::<Node<V>>::null().with_tag(MOVED));
        // Retire the frozen chain; in-flight readers that loaded the old
        // head keep a consistent snapshot until their guards drop.
        let mut cur = head;
        while !cur.is_null() {
            // SAFETY: pinned.
            let n = unsafe { cur.deref() };
            let next = n.next.load(guard);
            // SAFETY: unreachable for new pins (head now tagged null);
            // retired exactly once (only the MOVED transition gets here).
            unsafe { guard.defer_drop(cur) };
            cur = next;
        }
        drop(og);
        self.stats.buckets_moved.fetch_add(1, Ordering::Relaxed);
        self.stats
            .entries_moved
            .fetch_add(entries, Ordering::Relaxed);
        csds_metrics::resize_buckets_moved(1);
        true
    }

    /// Cooperative migration step run by every update: drain the bucket
    /// `target_key` hashes to (so the update's write lands in the new table
    /// with old authority transferred), then claim a quantum of further
    /// buckets; whoever moves the last bucket detaches and retires the old
    /// table.
    fn help_migration<'g>(&self, tref: &'g Table<V>, target_hash: u64, guard: &'g Guard) {
        let prev = tref.prev.load(guard);
        if prev.is_null() {
            return;
        }
        // SAFETY: pinned; prev is cleared before the old table is retired.
        let p = unsafe { prev.deref() };
        let total = p.buckets.len();
        let mut transitioned = 0;
        if self.migrate_bucket(tref, p, bucket_index(target_hash, p.mask), guard) {
            transitioned += 1;
        }
        // Claim a quantum off the shared cursor — but only while the cursor
        // can still name unclaimed buckets. During the drain tail (every
        // bucket claimed, `prev` not yet detached) an unconditional RMW here
        // would cost every update a contended fetch_add for nothing and let
        // the cursor run away unbounded; the plain load keeps the tail
        // read-only and caps the cursor at `total + quantum·claimants`.
        if tref.cursor.load(Ordering::Relaxed) < total {
            let start = tref
                .cursor
                .fetch_add(self.migration_quantum, Ordering::Relaxed);
            let end = start.saturating_add(self.migration_quantum).min(total);
            for idx in start..end {
                if self.migrate_bucket(tref, p, idx, guard) {
                    transitioned += 1;
                }
            }
        }
        if transitioned > 0 {
            // AcqRel: the final increment must observe every prior mover's
            // work before the table is detached and retired.
            let done = tref.migrated.fetch_add(transitioned, Ordering::AcqRel) + transitioned;
            if done == total {
                tref.prev.store(Shared::null());
                // SAFETY: fully drained (every bucket MOVED), detached from
                // the shard, and retired exactly once (one thread sees
                // done == total).
                unsafe { retire_table(guard, prev) };
                self.stats
                    .migrations_completed
                    .fetch_add(1, Ordering::Relaxed);
                self.stats.tables_retired.fetch_add(1, Ordering::Relaxed);
                csds_metrics::resize_migration_completed();
                csds_metrics::resize_table_retired();
            }
        }
    }

    /// Check the shard's occupancy against its thresholds and install a new
    /// table if warranted. Growth triggers past load factor 1 and shrink
    /// below ¼ (with the configured floor); both size the new table to
    /// [`floor_pow2`]`(2 · occupancy)`, i.e. a post-resize load factor in
    /// `[½, 1)`. The gap between the resulting thresholds is the hysteresis
    /// that keeps a stationary population from thrashing.
    fn maybe_resize(&self, shard: &Shard<V>, guard: &Guard) {
        let t = shard.table.load(guard);
        // SAFETY: pinned; the shard's current table is always live.
        let tref = unsafe { t.deref() };
        if !tref.prev.load(guard).is_null() {
            return; // one migration at a time per shard
        }
        let buckets = tref.buckets.len();
        let occ = shard.occupancy.sum().max(0) as usize;
        let target = if occ > buckets {
            floor_pow2(occ * 2)
        } else if buckets > self.min_buckets && occ < buckets / 4 {
            floor_pow2(occ * 2).max(self.min_buckets)
        } else {
            return;
        };
        if target == buckets {
            return;
        }
        let new = Shared::boxed(Table::new(target));
        // SAFETY: unpublished.
        unsafe { new.deref() }.prev.store(t);
        if shard.table.compare_exchange(t, new, guard).is_ok() {
            self.stats
                .migrations_started
                .fetch_add(1, Ordering::Relaxed);
            if target > buckets {
                self.stats.grows.fetch_add(1, Ordering::Relaxed);
            } else {
                self.stats.shrinks.fetch_add(1, Ordering::Relaxed);
            }
            csds_metrics::resize_migration_started();
        } else {
            // Lost the install race; reclaim the unpublished table — after
            // detaching `prev`, which still points at the live table.
            // SAFETY: never published; we are the sole owner.
            unsafe {
                new.deref().prev.store(Shared::null());
                drop(new.into_box());
            }
        }
    }

    /// Lock the bucket that is the authority for hash `h`, as every update
    /// does: help an in-flight migration drain `h`'s old bucket (so its
    /// authority has moved to the current table), lock the current bucket,
    /// and retry if it was frozen `MOVED` between the table load and the
    /// lock (a whole resize of the shard completed underneath). Returns the
    /// bucket, its guard and its head.
    #[inline]
    fn lock_bucket<'g>(
        &self,
        shard: &'g Shard<V>,
        h: u64,
        guard: &'g Guard,
    ) -> (&'g Bucket<V>, LockGuard<'g, OptikLock>, Shared<'g, Node<V>>) {
        loop {
            let t = shard.table.load(guard);
            // SAFETY: pinned.
            let tref = unsafe { t.deref() };
            self.help_migration(tref, h, guard);
            let b = &tref.buckets[bucket_index(h, tref.mask)];
            let bg = lock_guard(&b.lock);
            let head = b.head.load(guard);
            if head.tag() != MOVED {
                return (b, bg, head);
            }
            drop(bg);
            csds_metrics::restart();
        }
    }

    /// The write loop behind `insert_in`, `remove_in` and `rmw_in`: parse,
    /// decide, then store the write. Its rounds differ only in how they
    /// hold the bucket. Returns `(prev, cur, applied)`, both values still
    /// borrowed, so only `remove_in` and `rmw_in` clone.
    ///
    /// Each of the first `snapshots` rounds runs **validate-then-lock**
    /// while the shard has no migration in flight (`prev` null), so the
    /// current table is the sole authority and the bucket's version word
    /// the single validation point. It snapshots the version, parses and
    /// decides unsynchronized, then certifies a read-only decision with
    /// [`OptikLock::read_validate`] plus a table-pointer and `MOVED`
    /// re-check, or a write with `try_lock_version(seen)`, whose success
    /// certifies the parse wholesale (every bucket mutation, the `MOVED`
    /// freeze included, bumps the version). A torn round restarts. Only
    /// `rmw_in` asks for these rounds. A migration in flight skips to the
    /// last round, which takes the bucket through
    /// [`lock_bucket`](Self::lock_bucket) and so helps the drain; it cannot
    /// fail, so `insert_in` and `remove_in` decide exactly once.
    ///
    /// A present key is replaced by a fresh same-key node at the same
    /// chain position (the old node is unlinked in the same critical
    /// section, so no reader and no migration scan can observe the key
    /// absent or doubled), or marked and unlinked; an absent key is pushed
    /// at the bucket head. Links and unlinks feed the occupancy counter and
    /// the resize thresholds. **Linearization point: the chain-link
    /// store** (the locked or version-validated observation for read-only
    /// decisions).
    fn rmw_rounds<'g>(
        &'g self,
        key: u64,
        mut decide: impl FnMut(Option<&V>) -> Write<V>,
        snapshots: usize,
        guard: &'g Guard,
    ) -> (Option<&'g V>, Option<&'g V>, bool) {
        check_user_key(key);
        let h = hash(key);
        let shard = self.shard(h);
        let mut snapshots_left = snapshots;
        loop {
            // A snapshot round keeps `(version, table)`; the locked round
            // its bucket guard.
            let (b, head, snapshot, mut locked) = if snapshots_left > 0 {
                snapshots_left -= 1;
                csds_metrics::optimistic_attempt();
                let t = shard.table.load(guard);
                // SAFETY: pinned; the current table is live.
                let tref = unsafe { t.deref() };
                if !tref.prev.load(guard).is_null() {
                    // Authority may be mid-transfer, and the update owes the
                    // drain a quantum of work anyway.
                    snapshots_left = 0;
                    continue;
                }
                let b = &tref.buckets[bucket_index(h, tref.mask)];
                let Some(seen) = b.lock.read_begin() else {
                    torn_round();
                    continue;
                };
                let head = b.head.load(guard);
                if head.tag() == MOVED {
                    torn_round();
                    continue;
                }
                (b, head, Some((seen, t)), None)
            } else {
                if snapshots > 0 {
                    csds_metrics::optimistic_fallback();
                }
                let (b, bg, head) = self.lock_bucket(shard, h, guard);
                (b, head, None, Some(bg))
            };
            let (pred, curr) = Self::find(head, key, guard);
            // SAFETY: pinned.
            let found = unsafe { curr.as_ref() };
            if found.is_some_and(|c| c.marked.load(Ordering::Acquire) != 0) {
                // Mark and unlink share the removal critical section, so
                // neither the lock holder nor a quiescent snapshot can reach
                // a marked node: this snapshot is torn.
                debug_assert!(locked.is_none());
                torn_round();
                continue;
            }
            let current = found.map(|c| &c.value);
            let put = match decide(current) {
                Write::Put(value) => Some(value),
                Write::Remove if found.is_some() => None,
                _ => {
                    // Read-only decision. A snapshot is authoritative for
                    // the whole window if the bucket stayed quiescent, its
                    // table current and the bucket un-MOVED.
                    if snapshot.is_some_and(|(seen, t)| {
                        !(b.lock.read_validate(seen)
                            && shard.table.load(guard) == t
                            && b.head.load(guard).tag() != MOVED)
                    }) {
                        torn_round();
                        continue;
                    }
                    return (current, current, false);
                }
            };
            let new_s = put.map(|value| {
                Shared::boxed(Node {
                    key,
                    value,
                    marked: AtomicUsize::new(0),
                    next: Atomic::null(),
                })
            });
            if let Some((seen, _)) = snapshot {
                match b.lock.try_lock_version(seen) {
                    Some(g) => locked = Some(g),
                    None => {
                        if let Some(n) = new_s {
                            // SAFETY: never published.
                            unsafe { drop(n.into_box()) };
                        }
                        torn_round();
                        continue;
                    }
                }
            }
            // Locked, or version unchanged: the chain and the tag are exactly
            // as parsed. Even if a newer table was installed meanwhile, this
            // un-MOVED bucket is still its keys' authority and the drain
            // will clone the update across under this same lock.
            debug_assert!(b.head.load(guard).tag() != MOVED);
            let (succ, link) = match found {
                // SAFETY: pinned; serialized by the bucket lock.
                Some(c) if !pred.is_null() => (c.next.load(guard), &unsafe { pred.deref() }.next),
                Some(c) => (c.next.load(guard), &b.head),
                None => (head, &b.head),
            };
            if let (Some(c), None) = (found, new_s) {
                c.marked.store(1, Ordering::Release);
            }
            link.store(new_s.map_or(succ, |n| {
                // SAFETY: unpublished.
                unsafe { n.deref() }.next.store(succ);
                n
            })); // linearization point
            drop(locked);
            if found.is_some() {
                // SAFETY: unlinked under the bucket lock (unreachable for
                // new readers and for migration scans); retired once. A
                // replaced node stays unmarked: readers that already reached
                // it return its stale value and linearize before the swap.
                unsafe { guard.defer_drop(curr) };
            }
            let occupancy = match (found, new_s) {
                (None, _) => Some(shard.occupancy.incr()),
                (Some(_), None) => Some(shard.occupancy.decr()),
                (Some(_), Some(_)) => None,
            };
            if occupancy.is_some_and(|n| n & (RESIZE_CHECK_PERIOD - 1) == 0) {
                self.maybe_resize(shard, guard);
            }
            // SAFETY: published; pinned.
            let put = new_s.map(|n| &unsafe { n.deref() }.value);
            return (current, put, true);
        }
    }

    /// Early-exit companion of [`count_table`](Self::count_table): whether
    /// `t` holds no authoritative live entry.
    fn table_is_empty(t: &Table<V>, draining: Option<&Table<V>>, guard: &Guard) -> bool {
        for b in t.buckets.iter() {
            let head = b.head.load(guard);
            if head.tag() == MOVED {
                continue;
            }
            let mut cur = head;
            while !cur.is_null() {
                // SAFETY: pinned traversal.
                let node = unsafe { cur.deref() };
                if node.marked.load(Ordering::Acquire) == 0 {
                    let authoritative = match draining {
                        None => true,
                        Some(old) => {
                            let ob = &old.buckets[bucket_index(hash(node.key), old.mask)];
                            ob.head.load(guard).tag() == MOVED
                        }
                    };
                    if authoritative {
                        return false;
                    }
                }
                cur = node.next.load(guard);
            }
        }
        true
    }

    /// Count live entries in un-`MOVED` buckets (a `MOVED` bucket's entries
    /// are counted through their clones in the successor table). With
    /// `draining = Some(old)`, `t` is the migration target and an entry is
    /// counted only once its key's old bucket is `MOVED` — before that the
    /// entry is either a not-yet-authoritative clone of a key still counted
    /// in `old`, or cannot exist (updates transfer their own bucket's
    /// authority before writing to the new table).
    fn count_table(t: &Table<V>, draining: Option<&Table<V>>, guard: &Guard) -> usize {
        let mut n = 0;
        for b in t.buckets.iter() {
            let head = b.head.load(guard);
            if head.tag() == MOVED {
                continue;
            }
            let mut cur = head;
            while !cur.is_null() {
                // SAFETY: pinned traversal.
                let node = unsafe { cur.deref() };
                if node.marked.load(Ordering::Acquire) == 0 {
                    let authoritative = match draining {
                        None => true,
                        Some(old) => {
                            let ob = &old.buckets[bucket_index(hash(node.key), old.mask)];
                            ob.head.load(guard).tag() == MOVED
                        }
                    };
                    if authoritative {
                        n += 1;
                    }
                }
                cur = node.next.load(guard);
            }
        }
        n
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Guard-scoped total of buckets across all shards' *current* tables.
    /// Callers already holding a session guard (handles, service workers)
    /// use this directly instead of paying [`buckets`](Self::buckets)'
    /// internal pin.
    pub fn buckets_in(&self, guard: &Guard) -> usize {
        self.shards
            .iter()
            .map(|s| {
                // SAFETY: pinned; the current table is live.
                unsafe { s.table.load(guard).deref() }.buckets.len()
            })
            .sum()
    }

    /// Total buckets across all shards' *current* tables (pins internally;
    /// diagnostics). Guard-scoped callers should prefer
    /// [`buckets_in`](Self::buckets_in).
    pub fn buckets(&self) -> usize {
        self.buckets_in(&csds_ebr::pin())
    }

    /// Guard-scoped [`occupancy`](Self::occupancy). The striped-counter fold
    /// dereferences no epoch-protected memory, so the guard is unused; the
    /// variant exists so guard-scoped call sites get the same uniform `*_in`
    /// surface as every other read path.
    pub fn occupancy_in(&self, _guard: &Guard) -> usize {
        self.occupancy()
    }

    /// Approximate live-entry count from the occupancy counters (O(shards ×
    /// cells), no traversal — unlike `len`). Takes no locks and pins
    /// nothing.
    pub fn occupancy(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.occupancy.sum())
            .sum::<i64>()
            .max(0) as usize
    }

    /// Snapshot of this table's lifetime resize activity.
    pub fn resize_stats(&self) -> ResizeStats {
        ResizeStats {
            migrations_started: self.stats.migrations_started.load(Ordering::Relaxed),
            migrations_completed: self.stats.migrations_completed.load(Ordering::Relaxed),
            buckets_moved: self.stats.buckets_moved.load(Ordering::Relaxed),
            entries_moved: self.stats.entries_moved.load(Ordering::Relaxed),
            tables_retired: self.stats.tables_retired.load(Ordering::Relaxed),
            grows: self.stats.grows.load(Ordering::Relaxed),
            shrinks: self.stats.shrinks.load(Ordering::Relaxed),
        }
    }
}

/// What an update does with the key its parse found: `insert_in`, `remove_in`
/// and `rmw_in` differ only in this decision, which `rmw_rounds` takes. This
/// crate's own copy of the blocking structures' decision in `csds_core`.
enum Write<V> {
    /// Leave the table as it is.
    Keep,
    /// Link the value for an absent key, or replace a present key's value.
    Put(V),
    /// Unlink a present key.
    Remove,
}

/// A snapshot round was torn by a concurrent writer: count it and restart.
fn torn_round() {
    csds_metrics::optimistic_failure();
    csds_metrics::restart();
}

impl<V: Clone + Send + Sync> GuardedMap<V> for ElasticHashTable<V> {
    /// Guard-scoped `get`: clone-free reference valid while both the guard
    /// and the map borrow live. Takes no locks; consults the old table
    /// first while a migration is in flight (see the module docs).
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        check_user_key(key);
        let h = hash(key);
        let shard = self.shard(h);
        loop {
            let t = shard.table.load(guard);
            // SAFETY: pinned; current tables are retired only after being
            // superseded *and* drained, both observable below.
            let tref = unsafe { t.deref() };
            let prev = tref.prev.load(guard);
            if !prev.is_null() {
                // SAFETY: pinned; prev cleared before retirement.
                let p = unsafe { prev.deref() };
                let oh = p.buckets[bucket_index(h, p.mask)].head.load(guard);
                if oh.tag() != MOVED {
                    // Old bucket still authoritative; the read linearizes
                    // at the head load above.
                    return Self::read_chain(oh, key, guard);
                }
            }
            let head = tref.buckets[bucket_index(h, tref.mask)].head.load(guard);
            if head.tag() != MOVED {
                return Self::read_chain(head, key, guard);
            }
            // The table loaded above was superseded and this bucket drained
            // mid-read: an entire resize completed underneath us. Reload —
            // bounded by resize frequency, not by peer scheduling.
            csds_metrics::restart();
        }
    }

    /// May briefly lock one bucket and, during a migration, drain a few old
    /// buckets first.
    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        let mut value = Some(value);
        let decide = |cur: Option<&V>| match cur {
            Some(_) => Write::Keep,
            None => Write::Put(value.take().expect("the locked round decides once")),
        };
        self.rmw_rounds(key, decide, 0, guard).2
    }

    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        let decide = |cur: Option<&V>| cur.map_or(Write::Keep, |_| Write::Remove);
        self.rmw_rounds(key, decide, 0, guard).0.cloned()
    }

    /// Guard-scoped element count (O(buckets + n); quiescently consistent).
    ///
    /// While a shard's migration is in flight, authority for each key lives
    /// in exactly one table (see the module docs), and the count follows
    /// authority: the old table contributes its un-`MOVED` buckets, and the
    /// current table contributes only entries whose key's old bucket has
    /// completed its `MOVED` transition. `migrate_bucket` publishes clones
    /// into the current table *before* freezing the old bucket, so counting
    /// every current-table entry unconditionally would observe a mid-move
    /// key in both tables at once.
    fn len_in(&self, guard: &Guard) -> usize {
        let mut n = 0;
        for shard in self.shards.iter() {
            let t = shard.table.load(guard);
            // SAFETY: pinned.
            let tref = unsafe { t.deref() };
            let prev = tref.prev.load(guard);
            if prev.is_null() {
                n += Self::count_table(tref, None, guard);
            } else {
                // SAFETY: pinned; prev is cleared before retirement.
                let p = unsafe { prev.deref() };
                // Old-then-new, the readers' direction: a bucket frozen
                // between the two walks is skipped here (MOVED) and picked
                // up through its clones below.
                n += Self::count_table(p, None, guard);
                n += Self::count_table(tref, Some(p), guard);
            }
        }
        n
    }

    /// Guard-scoped emptiness: early-exits at the first authoritative live
    /// entry instead of the default full O(buckets + n) count, following
    /// the same per-bucket `MOVED` authority as [`len_in`](Self::len_in).
    fn is_empty_in(&self, guard: &Guard) -> bool {
        for shard in self.shards.iter() {
            let t = shard.table.load(guard);
            // SAFETY: pinned.
            let tref = unsafe { t.deref() };
            let prev = tref.prev.load(guard);
            if prev.is_null() {
                if !Self::table_is_empty(tref, None, guard) {
                    return false;
                }
            } else {
                // SAFETY: pinned; prev is cleared before retirement.
                let p = unsafe { prev.deref() };
                if !Self::table_is_empty(p, None, guard)
                    || !Self::table_is_empty(tref, Some(p), guard)
                {
                    return false;
                }
            }
        }
        true
    }

    /// `rmw_rounds` with the closure's decision, **following `MOVED`
    /// authority exactly like every other update**. The first
    /// [`OPTIMISTIC_RMW_RETRIES`] rounds validate instead of locking, so the
    /// closure may run more than once.
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        let decide = |cur: Option<&V>| f(cur).map_or(Write::Keep, Write::Put);
        let (prev, cur, applied) = self.rmw_rounds(key, decide, OPTIMISTIC_RMW_RETRIES, guard);
        RmwOutcome {
            prev: prev.cloned(),
            cur,
            applied,
        }
    }
}

impl<V> Drop for ElasticHashTable<V> {
    fn drop(&mut self) {
        for shard in self.shards.iter() {
            let p = shard.table.load_raw();
            if p != 0 {
                // SAFETY: exclusive via &mut self; `Table`'s own Drop walks
                // chains and the (at most one) predecessor still draining.
                unsafe { drop(Box::from_raw(p as *mut Table<V>)) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csds_core::ConcurrentMap;
    use csds_sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// Tiny shards, one-bucket floor, single-bucket quantum: keeps a
    /// migration in flight almost continuously under churn.
    fn churny() -> ElasticConfig {
        ElasticConfig {
            shards: 2,
            initial_buckets: 2,
            min_buckets: 2,
            migration_quantum: 1,
            counter_cells: 2,
        }
    }

    #[test]
    fn basic_semantics() {
        let h: ElasticHashTable<u64> = ElasticHashTable::with_capacity(16);
        assert!(h.insert(1, 10));
        assert!(h.insert(17, 170));
        assert!(!h.insert(1, 99));
        assert_eq!(h.get(1), Some(10));
        assert_eq!(h.get(17), Some(170));
        assert_eq!(h.remove(1), Some(10));
        assert_eq!(h.remove(1), None);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn grows_and_shrinks_across_thresholds() {
        let h: ElasticHashTable<u64> = ElasticHashTable::with_config(churny());
        let start_buckets = h.buckets();
        const N: u64 = 800;
        for k in 0..N {
            assert!(h.insert(k, k * 3));
            assert_eq!(h.get(k), Some(k * 3));
        }
        assert_eq!(h.len(), N as usize);
        let grown = h.buckets();
        assert!(
            grown >= N as usize / 2,
            "only {grown} buckets for {N} elements (started at {start_buckets})"
        );
        let s = h.resize_stats();
        assert!(s.grows > 0, "no grow migrations recorded: {s:?}");
        assert!(s.buckets_moved > 0);
        // Every key must have survived every migration.
        for k in 0..N {
            assert_eq!(h.get(k), Some(k * 3), "key {k} lost in migration");
        }
        // Drain; the table must shrink back toward its floor.
        for k in 0..N {
            assert_eq!(h.remove(k), Some(k * 3));
        }
        assert!(h.is_empty());
        let s = h.resize_stats();
        assert!(s.shrinks > 0, "no shrink migrations recorded: {s:?}");
        assert!(
            h.buckets() < grown,
            "table did not shrink: {} vs {grown}",
            h.buckets()
        );
        assert_eq!(s.migrations_completed, s.tables_retired);
    }

    #[test]
    fn grows_from_sixteen_buckets_under_a_concurrent_reader() {
        const N: u64 = 4096;
        let h = ElasticHashTable::<u64>::with_config(ElasticConfig::default());
        assert_eq!(h.buckets(), 16);
        let done = csds_sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut k = 0;
                while !done.load(Ordering::Relaxed) {
                    if let Some(v) = h.get(k % N) {
                        assert_eq!(v, k % N, "read a wrong value mid-growth");
                    }
                    k += 1;
                }
            });
            for k in 0..N {
                assert!(h.insert(k, k));
            }
            done.store(true, Ordering::Relaxed);
        });
        assert!(
            h.buckets() >= 1024,
            "{N} inserts grew the table to only {} buckets",
            h.buckets()
        );
        assert_eq!(h.len(), N as usize);
    }

    #[test]
    fn tenant_table_compacts_to_single_bucket_without_traffic() {
        // The namespace-directory shape: a tenant table grows under load,
        // empties, and then sees no further operations. `compact_in` alone
        // (the idle sweep's maintenance call) must walk it back down to the
        // one-bucket floor — "shrink to zero" has no ops to ride on.
        let h: ElasticHashTable<u64> = ElasticHashTable::tenant();
        for k in 0..600u64 {
            assert!(h.insert(k, k));
        }
        let grown = h.buckets();
        assert!(grown >= 128, "tenant table failed to grow: {grown} buckets");
        for k in 0..600u64 {
            assert_eq!(h.remove(k), Some(k));
        }
        assert!(h.is_empty());
        let guard = csds_ebr::pin();
        h.compact_in(&guard);
        drop(guard);
        assert_eq!(
            h.buckets(),
            1,
            "idle compaction stopped above the tenant floor"
        );
        // Revival after compaction: the shrunken table still serves.
        assert!(h.insert(9, 90));
        assert_eq!(h.get(9), Some(90));
        // And a quiescent table is a no-op to compact again.
        let guard = csds_ebr::pin();
        h.compact_in(&guard);
        drop(guard);
        assert_eq!(h.get(9), Some(90));
    }

    #[test]
    fn sequential_model_with_migration_churn() {
        // Deterministic mixed workload against BTreeMap while the tiny
        // config forces repeated grow/shrink cycles.
        use std::collections::BTreeMap;
        let h: ElasticHashTable<u64> = ElasticHashTable::with_config(churny());
        let mut model = BTreeMap::new();
        let mut state = 0xD1CE_5EEDu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..30_000u64 {
            // Phase bias: alternating insert-heavy and remove-heavy blocks
            // push the population through the thresholds in both
            // directions.
            let grow_phase = (i / 2_000) % 2 == 0;
            let key = rng() % 512;
            let roll = rng() % 10;
            let insert = if grow_phase { roll < 6 } else { roll < 2 };
            let remove = roll < 8;
            if insert {
                assert_eq!(
                    h.insert(key, i),
                    !model.contains_key(&key),
                    "insert {key} at {i}"
                );
                model.entry(key).or_insert(i);
            } else if remove {
                assert_eq!(h.remove(key), model.remove(&key), "remove {key} at {i}");
            } else {
                assert_eq!(h.get(key), model.get(&key).copied(), "get {key} at {i}");
            }
        }
        assert_eq!(h.len(), model.len());
        for (&k, &v) in &model {
            assert_eq!(h.get(k), Some(v));
        }
        let s = h.resize_stats();
        assert!(
            s.migrations_started >= 4,
            "churn workload should keep resizing: {s:?}"
        );
    }

    #[test]
    fn concurrent_net_effect_with_forced_migration() {
        const THREADS: usize = 4;
        const OPS: u64 = 8_000;
        const RANGE: u64 = 128;
        let h = Arc::new(ElasticHashTable::<u64>::with_config(churny()));
        let ins: Arc<Vec<AtomicU64>> = Arc::new((0..RANGE).map(|_| AtomicU64::new(0)).collect());
        let rem: Arc<Vec<AtomicU64>> = Arc::new((0..RANGE).map(|_| AtomicU64::new(0)).collect());
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            let ins = Arc::clone(&ins);
            let rem = Arc::clone(&rem);
            workers.push(std::thread::spawn(move || {
                let mut state = 0xABCD ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for i in 0..OPS {
                    let key = rng() % RANGE;
                    // Same phase bias as the sequential test, per thread.
                    let grow_phase = (i / 500) % 2 == 0;
                    let roll = rng() % 10;
                    if if grow_phase { roll < 6 } else { roll < 2 } {
                        if h.insert(key, key) {
                            ins[key as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    } else if roll < 8 {
                        if h.remove(key).is_some() {
                            rem[key as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    } else if let Some(v) = h.get(key) {
                        assert_eq!(v, key, "value corruption at {key}");
                    }
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let mut expected = 0usize;
        for k in 0..RANGE as usize {
            let net = ins[k].load(Ordering::Relaxed) as i64 - rem[k].load(Ordering::Relaxed) as i64;
            assert!((0..=1).contains(&net), "key {k}: net {net}");
            assert_eq!(h.get(k as u64).is_some(), net == 1, "key {k}");
            expected += net as usize;
        }
        assert_eq!(h.len(), expected);
        let s = h.resize_stats();
        assert!(
            s.migrations_started > 0,
            "migration never triggered under churn: {s:?}"
        );
    }

    #[test]
    fn reads_survive_migration_of_their_node() {
        // A guard-scoped reference must stay valid while the table resizes
        // underneath it and the old chain is retired: EBR keeps the old
        // node alive until the guard drops.
        let h: ElasticHashTable<u64> = ElasticHashTable::with_config(churny());
        h.insert(7, 777);
        let guard = csds_ebr::pin();
        let r = h.get_in(7, &guard).expect("present");
        // Force growth: migrate every shard several times over.
        for k in 100..800 {
            h.insert(k, k);
        }
        assert!(h.resize_stats().migrations_completed > 0);
        assert_eq!(*r, 777);
        drop(guard);
    }

    #[test]
    fn reserved_keys_are_rejected() {
        let h: ElasticHashTable<u64> = ElasticHashTable::new();
        for reserved in [u64::MAX, u64::MAX - 1] {
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                h.insert(reserved, 1);
            }))
            .is_err());
        }
    }

    #[test]
    fn floor_pow2_bounds() {
        assert_eq!(floor_pow2(0), 1);
        assert_eq!(floor_pow2(1), 1);
        assert_eq!(floor_pow2(2), 2);
        assert_eq!(floor_pow2(3), 2);
        assert_eq!(floor_pow2(32), 32);
        assert_eq!(floor_pow2(63), 32);
        assert_eq!(floor_pow2(65), 64);
    }

    #[test]
    fn grow_targets_half_load_factor_not_quarter() {
        // One shard, one counter cell: occupancy arithmetic is exact. 24
        // inserts against 16 buckets trip the grow check (gated every 8th
        // update) at occupancy 24 > 16; the target must be
        // floor_pow2(48) = 32 — doubling once, landing at load factor
        // ~0.75 — not the 64 that round-up sizing produced (load factor
        // 0.375, two removes away from that table's shrink threshold).
        let h: ElasticHashTable<u64> = ElasticHashTable::with_config(ElasticConfig {
            shards: 1,
            initial_buckets: 16,
            min_buckets: 16,
            migration_quantum: 4,
            counter_cells: 1,
        });
        for k in 0..24 {
            assert!(h.insert(k, k));
        }
        assert_eq!(h.buckets(), 32, "grow must double, not quadruple");
    }

    /// Remote pause points for [`GateVal`]'s `Clone`: while `armed`, the
    /// `pause_at`-th clone call raises `paused` and spins until `release`.
    /// Values are only cloned inside `migrate_bucket` (and `remove_in`,
    /// which the gated tests never call while armed), so this freezes a
    /// migration at the exact point where some clones are already published
    /// in the new table but the old bucket is not yet `MOVED`.
    #[derive(Debug, Default)]
    struct CloneGate {
        armed: AtomicUsize,
        clones: AtomicUsize,
        pause_at: AtomicUsize,
        paused: AtomicUsize,
        release: AtomicUsize,
    }

    #[derive(Debug)]
    struct GateVal(Arc<CloneGate>, u64);

    impl Clone for GateVal {
        fn clone(&self) -> Self {
            let g = &self.0;
            if g.armed.load(Ordering::SeqCst) != 0 {
                let n = g.clones.fetch_add(1, Ordering::SeqCst) + 1;
                if n == g.pause_at.load(Ordering::SeqCst) {
                    g.paused.store(1, Ordering::SeqCst);
                    spin_until(|| g.release.load(Ordering::SeqCst) != 0, "gate release");
                }
            }
            GateVal(Arc::clone(&self.0), self.1)
        }
    }

    fn spin_until(cond: impl Fn() -> bool, what: &str) {
        let start = std::time::Instant::now();
        while !cond() {
            assert!(
                start.elapsed() < std::time::Duration::from_secs(30),
                "timed out waiting for {what}"
            );
            std::thread::yield_now();
        }
    }

    /// Regression (PR 4 headline): `len_in` must not observe a key in both
    /// tables while `migrate_bucket` has published clones into the new
    /// table but not yet frozen the old bucket with `MOVED`. The gate
    /// pauses a migrating thread exactly inside that window, with one clone
    /// already published, and the count must still be exact.
    #[test]
    fn len_is_exact_while_a_bucket_migration_is_mid_publish() {
        let gate = Arc::new(CloneGate::default());
        gate.pause_at.store(2, Ordering::SeqCst);
        let h = Arc::new(ElasticHashTable::<GateVal>::with_config(ElasticConfig {
            shards: 1,
            initial_buckets: 2,
            min_buckets: 2,
            migration_quantum: 1,
            counter_cells: 1,
        }));
        // Eight keys that all land in old bucket 0 (mask 1), so the
        // migration's clone loop has several entries to publish before the
        // freeze. The 8th insert's occupancy check (period 8) sees 8 > 2
        // buckets and installs the grow migration; nothing migrates until
        // the next update.
        let keys: Vec<u64> = (0..)
            .filter(|&k| bucket_index(hash(k), 1) == 0)
            .take(8)
            .collect();
        for &k in &keys {
            assert!(h.insert(k, GateVal(Arc::clone(&gate), 0)));
        }
        assert_eq!(
            h.resize_stats().migrations_started,
            1,
            "setup: exactly one migration must be in flight"
        );
        assert_eq!(h.len(), 8, "count before any bucket moves");

        // An update on a bucket-0 key from another thread starts draining
        // bucket 0 and pauses mid-publish (one clone in the new table, old
        // bucket still authoritative).
        gate.armed.store(1, Ordering::SeqCst);
        let extra_key = (0..)
            .filter(|&k| bucket_index(hash(k), 1) == 0)
            .nth(8)
            .unwrap();
        let migrator = {
            let h = Arc::clone(&h);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                assert!(h.insert(extra_key, GateVal(gate, 0)));
            })
        };
        spin_until(
            || gate.paused.load(Ordering::SeqCst) != 0,
            "mid-migration pause",
        );

        // The mid-migration window: 8 live originals in the old bucket, 1
        // clone already published in the new table. Exactly 8 keys exist.
        assert_eq!(
            h.len(),
            8,
            "len double-counted a key mid-migration (old bucket un-MOVED, clone published)"
        );

        gate.release.store(1, Ordering::SeqCst);
        gate.armed.store(0, Ordering::SeqCst);
        migrator.join().unwrap();
        assert_eq!(h.len(), 9, "count after the migrating insert lands");
    }

    /// Regression: once the migration cursor has run past the old table's
    /// bucket count, further updates must not keep fetch_add-ing it (a
    /// wasted contended RMW per op, and an unbounded cursor). The drain
    /// tail is hand-wired: a fully `MOVED` old table behind a current table
    /// whose cursor already passed the end.
    #[test]
    fn help_migration_skips_cursor_rmw_once_past_total() {
        let h: ElasticHashTable<u64> = ElasticHashTable::with_config(churny());
        let guard = csds_ebr::pin();
        let p = Table::<u64>::new(2);
        for b in p.buckets.iter() {
            b.head.store(Shared::null().with_tag(MOVED));
        }
        let t = Table::<u64>::new(4);
        t.prev.store(Shared::boxed(p));
        t.cursor.store(7, Ordering::Relaxed);
        // Drain-tail update: target bucket already MOVED, cursor past the
        // end — the call must leave the cursor untouched.
        h.help_migration(&t, hash(3), &guard);
        assert_eq!(
            t.cursor.load(Ordering::Relaxed),
            7,
            "cursor advanced past total during the drain tail"
        );
        // Below the end the cursor still claims quanta as before.
        t.cursor.store(1, Ordering::Relaxed);
        h.help_migration(&t, hash(3), &guard);
        assert_eq!(
            t.cursor.load(Ordering::Relaxed),
            2,
            "pre-total claims must continue"
        );
        // `t` owns `p` through `prev`; Table::drop frees both.
    }

    /// Native RMW with a migration installed but not yet drained: the
    /// update itself must transfer its bucket's authority (freeze it
    /// `MOVED`) before landing in the new table, exactly like
    /// `insert_in`/`remove_in`.
    #[test]
    fn rmw_transfers_bucket_authority_before_landing() {
        let h: ElasticHashTable<u64> = ElasticHashTable::with_config(ElasticConfig {
            shards: 1,
            initial_buckets: 2,
            min_buckets: 2,
            migration_quantum: 1,
            counter_cells: 1,
        });
        // Nine keys hashing to old bucket 0 (mask 1); the 8th insert's
        // occupancy check installs the grow migration, nothing drains yet.
        let keys: Vec<u64> = (0..)
            .filter(|&k| bucket_index(hash(k), 1) == 0)
            .take(9)
            .collect();
        for &k in &keys[..8] {
            assert!(h.insert(k, k));
        }
        assert_eq!(h.resize_stats().migrations_started, 1);
        assert_eq!(h.resize_stats().buckets_moved, 0, "nothing drained yet");
        // Upsert one of the bucket-0 keys: the RMW must drain bucket 0
        // first (authority transfer), then replace in the new table.
        assert_eq!(h.upsert(keys[2], 777), Some(keys[2]));
        assert!(
            h.resize_stats().buckets_moved >= 1,
            "the RMW did not help the migration"
        );
        assert_eq!(h.get(keys[2]), Some(777));
        assert_eq!(h.len(), 8, "replace must not change cardinality");
        // A fetch-add that inserts a fresh key mid-migration lands exactly
        // once and feeds the occupancy counter.
        let (_, cur, applied) =
            csds_core::ConcurrentMap::rmw(&h, keys[8], &mut |c| Some(c.copied().unwrap_or(0) + 5));
        assert!(applied);
        assert_eq!(cur, Some(5));
        assert_eq!(h.len(), 9);
        assert_eq!(h.occupancy(), 9);
        // Every key survives the rest of the drain.
        for &k in &keys[..8] {
            let expect = if k == keys[2] { 777 } else { k };
            assert_eq!(h.get(k), Some(expect), "key {k} after migration");
        }
    }

    /// Regression for the mid-`MOVED` window: a migrator is frozen inside
    /// `migrate_bucket` with clones already published but the old bucket
    /// still authoritative, while another thread upserts a key of that very
    /// bucket. The upsert must serialize behind the authority transfer and
    /// land exactly once in the new table — neither lost (overwritten by
    /// the migrating clone) nor doubled.
    #[test]
    fn rmw_lands_exactly_once_when_racing_a_mid_publish_migration() {
        let gate = Arc::new(CloneGate::default());
        gate.pause_at.store(2, Ordering::SeqCst);
        let h = Arc::new(ElasticHashTable::<GateVal>::with_config(ElasticConfig {
            shards: 1,
            initial_buckets: 2,
            min_buckets: 2,
            migration_quantum: 1,
            counter_cells: 1,
        }));
        let keys: Vec<u64> = (0..)
            .filter(|&k| bucket_index(hash(k), 1) == 0)
            .take(9)
            .collect();
        for &k in &keys[..8] {
            assert!(h.insert(k, GateVal(Arc::clone(&gate), k)));
        }
        assert_eq!(h.resize_stats().migrations_started, 1);

        // A bucket-0 insert from another thread starts draining bucket 0
        // and pauses mid-publish (one clone in the new table, old bucket
        // still authoritative and locked).
        gate.armed.store(1, Ordering::SeqCst);
        let extra_key = keys[8];
        let migrator = {
            let h = Arc::clone(&h);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                assert!(h.insert(extra_key, GateVal(gate, extra_key)));
            })
        };
        spin_until(
            || gate.paused.load(Ordering::SeqCst) != 0,
            "mid-migration pause",
        );

        // Upsert a bucket-0 key while the migration is frozen mid-publish:
        // the RMW's help_migration blocks on the old bucket's lock until
        // authority transfers, then lands on the migrated clone.
        let upserter = {
            let h = Arc::clone(&h);
            let gate = Arc::clone(&gate);
            let key = keys[3];
            std::thread::spawn(move || {
                let prev = h.upsert(key, GateVal(gate, 999_999)).expect("key present");
                assert_eq!(prev.1, key, "upsert must observe the pre-migration value");
            })
        };
        // The frozen window still counts exactly 8 keys.
        assert_eq!(h.len(), 8, "mid-publish window must stay exact");

        gate.release.store(1, Ordering::SeqCst);
        gate.armed.store(0, Ordering::SeqCst);
        migrator.join().unwrap();
        upserter.join().unwrap();

        assert_eq!(h.len(), 9, "8 originals + the migrating insert");
        let got = csds_core::ConcurrentMap::get(&*h, keys[3]).expect("upserted key present");
        assert_eq!(got.1, 999_999, "the upsert's value must win");
        // The update landed on the authoritative copy: a full drain later
        // it is still the only copy.
        for &k in &keys {
            assert!(
                csds_core::ConcurrentMap::get(&*h, k).is_some(),
                "key {k} lost"
            );
        }
    }

    #[test]
    fn quiescent_rmw_uses_the_optimistic_fast_path() {
        let h: ElasticHashTable<u64> = ElasticHashTable::with_capacity(64);
        for k in 0..10 {
            assert!(h.insert(k, k));
        }
        assert!(h.resize_stats().migrations_started == 0, "setup: no resize");
        let _ = csds_metrics::take_and_reset();
        let (_, cur, applied) =
            csds_core::ConcurrentMap::rmw(&h, 3, &mut |c| Some(c.copied().unwrap_or(0) + 1));
        assert!(applied);
        assert_eq!(cur, Some(4));
        // Read-only decision on an absent key validates the same way.
        let (_, _, applied) = csds_core::ConcurrentMap::rmw(&h, 999, &mut |_| None);
        assert!(!applied);
        let snap = csds_metrics::take_and_reset();
        assert!(snap.optimistic_attempts >= 2);
        assert_eq!(snap.optimistic_failures, 0);
        assert_eq!(snap.optimistic_fallbacks, 0);
        assert_eq!(snap.contended_acquires, 0);
    }

    #[test]
    fn locked_round_is_a_complete_rmw_on_its_own() {
        // Sequentially only a migration sends `rmw_in` to its locked round
        // (next test); run the loop with no snapshot rounds so all four
        // outcomes go through that round.
        let h: ElasticHashTable<u64> = ElasticHashTable::with_capacity(64);
        let guard = csds_ebr::pin();
        let locked = |k: u64, f: RmwFn<'_, u64>| {
            let decide = |cur: Option<&u64>| f(cur).map_or(Write::Keep, Write::Put);
            let (prev, cur, applied) = h.rmw_rounds(k, decide, 0, &guard);
            (prev.copied(), cur.copied(), applied)
        };
        let _ = csds_metrics::take_and_reset();
        assert_eq!(locked(7, &mut |_| None), (None, None, false));
        assert_eq!(locked(7, &mut |_| Some(1)), (None, Some(1), true));
        assert_eq!(
            locked(7, &mut |c| c.map(|v| v + 1)),
            (Some(1), Some(2), true)
        );
        assert_eq!(locked(7, &mut |_| None), (Some(2), Some(2), false));
        let snap = csds_metrics::take_and_reset();
        assert_eq!(
            snap.optimistic_attempts, 0,
            "the locked round validates nothing"
        );
        assert!(snap.lock_acquires >= 4, "one bucket lock per RMW");
        assert_eq!(h.get(7), Some(2));
        assert_eq!((h.len(), h.occupancy()), (1, 1));
    }

    #[test]
    fn rmw_mid_migration_takes_the_pessimistic_path() {
        let h: ElasticHashTable<u64> = ElasticHashTable::with_config(ElasticConfig {
            shards: 1,
            initial_buckets: 2,
            min_buckets: 2,
            migration_quantum: 1,
            counter_cells: 1,
        });
        let keys: Vec<u64> = (0..)
            .filter(|&k| bucket_index(hash(k), 1) == 0)
            .take(8)
            .collect();
        for &k in &keys {
            assert!(h.insert(k, k));
        }
        assert_eq!(h.resize_stats().migrations_started, 1);
        let _ = csds_metrics::take_and_reset();
        assert_eq!(h.upsert(keys[2], 777), Some(keys[2]));
        let snap = csds_metrics::take_and_reset();
        assert!(
            snap.optimistic_fallbacks >= 1,
            "an in-flight migration must force the locked path"
        );
        assert!(
            h.resize_stats().buckets_moved >= 1,
            "the fallback still helps the drain"
        );
        assert_eq!(h.get(keys[2]), Some(777));
    }

    #[test]
    fn is_empty_follows_authority_through_churn() {
        let h: ElasticHashTable<u64> = ElasticHashTable::with_config(churny());
        let guard = csds_ebr::pin();
        assert!(h.is_empty_in(&guard));
        for k in 0..400 {
            h.insert(k, k);
            assert!(!h.is_empty_in(&guard), "non-empty after insert {k}");
        }
        for k in 0..400 {
            h.remove(k);
        }
        // Migrations may still be in flight (shrink direction); emptiness
        // must follow per-bucket authority, not raw chain contents.
        assert!(h.is_empty_in(&guard));
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn buckets_and_occupancy_have_guard_scoped_variants() {
        let h: ElasticHashTable<u64> = ElasticHashTable::with_capacity(32);
        for k in 0..20 {
            h.insert(k, k);
        }
        let guard = csds_ebr::pin();
        assert_eq!(h.buckets_in(&guard), h.buckets());
        assert_eq!(h.occupancy_in(&guard), 20);
        assert_eq!(h.occupancy(), 20);
    }

    #[test]
    fn occupancy_tracks_len_when_quiescent() {
        let h: ElasticHashTable<u64> = ElasticHashTable::with_capacity(32);
        for k in 0..100 {
            h.insert(k, k);
        }
        assert_eq!(h.occupancy(), 100);
        assert_eq!(h.len(), 100);
        for k in 0..50 {
            h.remove(k);
        }
        assert_eq!(h.occupancy(), 50);
        assert_eq!(h.len(), 50);
    }
}
