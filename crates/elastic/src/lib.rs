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
//! * an atomic pointer to its current bucket-array **table**: `csds_core`'s
//!   versioned bucket [`chain`] (per-bucket [`OptikLock`] + chain read
//!   without synchronization), the `LazyHashTable` recipe,
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
//! Every update runs the chain's one write loop, [`chain::rmw_rounds`],
//! through this table's [`Chains`] hook. `insert_in` and `remove_in` go
//! straight to its locked round. For `rmw_in`, while a shard has no
//! migration in flight, the first rounds are the chain's validate-then-lock
//! snapshot rounds on the current table's bucket. Their version check
//! alone certifies the parse, the bucket's authority included: **every**
//! bucket mutation, the `MOVED` freeze too, happens under that bucket's
//! lock, and an un-`MOVED` bucket stays its keys' authority even after a
//! newer table is installed. The last round, and any round that meets a
//! migration, locks the bucket: help the drain, lock, re-check `MOVED`,
//! retry. The table then works out its occupancy change from what the loop
//! wrote: a link adds one, an unlink takes one away, a replace changes
//! nothing.
//!
//! Resize events are observable two ways: process-wide through the
//! [`csds_metrics`] resize counters (`resize_migrations_started`, buckets
//! moved, tables retired — aggregated per thread like every other metric)
//! and per table through [`ElasticHashTable::resize_stats`].

use csds_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use csds_core::hashtable::chain::{self, Bucket, Buckets, Chains, Node};
use csds_core::hashtable::fib_hash;
use csds_core::write::{Decide, Insert, Remove, Written};
use csds_core::{check_user_key, GuardedMap, RmwFn, RmwOutcome};
use csds_ebr::{Atomic, Guard, Shared};
use csds_sync::{lock_guard, LockGuard, OptikLock, ShardedCounter, OPTIMISTIC_RMW_RETRIES};

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

/// Shard index of a key (callers mask it). The shard comes from the top
/// byte of the [`fib_hash`] product, the bucket index from bit 32 up. They
/// only overlap past 2²⁴ buckets *per shard*, far beyond any real table,
/// so decorrelation costs no second hash.
#[inline]
fn shard_bits(key: u64) -> usize {
    (fib_hash(key) >> 56) as usize
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

/// One shard's bucket array plus the migration state for draining its
/// predecessor.
struct Table<V> {
    buckets: Buckets<V>,
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
        Table {
            buckets: Buckets::new(buckets),
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

/// The buckets free their own chains (a frozen bucket holds none).
impl<V> Drop for Table<V> {
    fn drop(&mut self) {
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
    fn shard(&self, key: u64) -> &Shard<V> {
        &self.shards[shard_bits(key) & self.shard_mask]
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

    /// Migrate old bucket `ob` into `t`. Returns whether this call
    /// performed the un-`MOVED` → `MOVED` transition (idempotent otherwise).
    fn migrate_bucket<'g>(&self, t: &'g Table<V>, ob: &'g Bucket<V>, guard: &'g Guard) -> bool {
        // Lock-free probe first: the common case late in a drain.
        if ob.head(guard).tag() == MOVED {
            return false;
        }
        let og = lock_guard(&ob.lock);
        let head = ob.head(guard);
        if head.tag() == MOVED {
            return false;
        }
        // Clone live entries into the new table. Lock order is strictly
        // old-bucket → new-bucket (updates hold at most one lock), so no
        // cycle is possible. While we hold the old bucket's lock no update
        // can touch these keys: the old bucket is still their authority,
        // and any update must acquire exactly this lock first.
        let mut entries = 0u64;
        for n in ob.live(guard) {
            let value = n.value.clone();
            let nb = t.buckets.of(n.key);
            let ng = lock_guard(&nb.lock);
            debug_assert!(
                nb.head(guard).tag() != MOVED,
                "current table frozen mid-migration"
            );
            nb.push(&ng, n.key, value, guard);
            entries += 1;
        }
        // Freeze: readers and (after their tag re-check) updates divert to
        // the new table from here on.
        ob.freeze(&og, MOVED);
        // Retire the frozen chain; in-flight readers that loaded the old
        // head keep a consistent snapshot until their guards drop.
        // SAFETY: unreachable for new pins (head now tagged null); retired
        // exactly once (only the MOVED transition gets here).
        unsafe { chain::retire(head, guard) };
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
    fn help_migration<'g>(&self, tref: &'g Table<V>, target_key: u64, guard: &'g Guard) {
        let prev = tref.prev.load(guard);
        if prev.is_null() {
            return;
        }
        // SAFETY: pinned; prev is cleared before the old table is retired.
        let p = unsafe { prev.deref() };
        let total = p.buckets.len();
        let mut transitioned = 0;
        if self.migrate_bucket(tref, p.buckets.of(target_key), guard) {
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
            for ob in &p.buckets[start.min(end)..end] {
                if self.migrate_bucket(tref, ob, guard) {
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

    /// The chain's write loop over this table, then the occupancy change
    /// its write made: a link adds one, an unlink takes one away, a replace
    /// changes nothing. Links and unlinks feed the resize thresholds.
    fn write<'g>(
        &'g self,
        key: u64,
        decide: impl Decide<V>,
        snapshots: usize,
        guard: &'g Guard,
    ) -> Written<'g, V> {
        let w = chain::rmw_rounds(self, key, decide, snapshots, None, guard);
        let shard = self.shard(key);
        let occupancy = match (w.applied, w.prev, w.cur) {
            (true, None, _) => shard.occupancy.incr(),
            (true, Some(_), None) => shard.occupancy.decr(),
            _ => return w,
        };
        if occupancy & (RESIZE_CHECK_PERIOD - 1) == 0 {
            self.maybe_resize(shard, guard);
        }
        w
    }

    /// The live entries that are their keys' authority (quiescently
    /// consistent). While a shard's migration is in flight, authority for
    /// each key lives in exactly one table (see the module docs): the old
    /// table contributes its un-`MOVED` buckets, and the current table only
    /// entries whose key's old bucket has completed its `MOVED` transition.
    /// `migrate_bucket` publishes clones into the current table *before*
    /// freezing the old bucket, so walking every current-table entry would
    /// meet a mid-move key in both tables at once. The walk goes
    /// old-then-new, the readers' direction: a bucket frozen between the
    /// two walks is skipped in the old table (`MOVED`) and met through its
    /// clones in the new one.
    fn authoritative<'g>(&'g self, guard: &'g Guard) -> impl Iterator<Item = &'g Node<V>> + 'g {
        self.shards.iter().flat_map(move |shard| {
            // SAFETY: pinned; the current table is live.
            let t = unsafe { shard.table.load(guard).deref() };
            // SAFETY: pinned; `prev` is cleared before it is retired.
            let old = unsafe { t.prev.load(guard).as_ref() };
            // A current-table entry counts once its old bucket is `MOVED`.
            let moved_over = move |n: &Node<V>| {
                old.map_or(true, |p| p.buckets.of(n.key).head(guard).tag() == MOVED)
            };
            let old_entries = old.into_iter().flat_map(move |p| p.buckets.live(guard));
            old_entries.chain(t.buckets.live(guard).filter(move |n| moved_over(n)))
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total buckets across all shards' *current* tables (pins internally;
    /// diagnostics).
    pub fn buckets(&self) -> usize {
        let guard = csds_ebr::pin();
        self.shards
            .iter()
            .map(|s| {
                // SAFETY: pinned; the current table is live.
                unsafe { s.table.load(&guard).deref() }.buckets.len()
            })
            .sum()
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

impl<V: Clone + Send + Sync> Chains<V> for ElasticHashTable<V> {
    /// The current table's bucket while the shard has no migration in
    /// flight: that table is then the key's sole authority. A migration in
    /// flight sends the update to the locked round, which owes the drain a
    /// quantum of work anyway.
    fn snapshot_bucket<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g Bucket<V>> {
        // SAFETY: pinned; the current table is live.
        let t = unsafe { self.shard(key).table.load(guard).deref() };
        t.prev.load(guard).is_null().then(|| t.buckets.of(key))
    }

    /// Lock the bucket that is the authority for `key`: help an in-flight
    /// migration drain `key`'s old bucket (so its authority has moved to
    /// the current table), lock the current bucket, and retry if it was
    /// frozen `MOVED` between the table load and the lock (a whole resize
    /// of the shard completed underneath).
    fn locked_bucket<'g>(
        &'g self,
        key: u64,
        guard: &'g Guard,
    ) -> (&'g Bucket<V>, LockGuard<'g, OptikLock>) {
        let shard = self.shard(key);
        loop {
            // SAFETY: pinned.
            let t = unsafe { shard.table.load(guard).deref() };
            self.help_migration(t, key, guard);
            let b = t.buckets.of(key);
            let held = lock_guard(&b.lock);
            if b.head(guard).tag() != MOVED {
                return (b, held);
            }
            drop(held);
            csds_metrics::restart();
        }
    }
}

impl<V: Clone + Send + Sync> GuardedMap<V> for ElasticHashTable<V> {
    /// Guard-scoped `get`: clone-free reference valid while both the guard
    /// and the map borrow live. Takes no locks; consults the old table
    /// first while a migration is in flight (see the module docs).
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        check_user_key(key);
        let shard = self.shard(key);
        loop {
            // SAFETY: pinned; current tables are retired only after being
            // superseded *and* drained, both observable below.
            let tref = unsafe { shard.table.load(guard).deref() };
            // SAFETY: pinned; prev cleared before retirement.
            if let Some(p) = unsafe { tref.prev.load(guard).as_ref() } {
                let oh = p.buckets.of(key).head(guard);
                if oh.tag() != MOVED {
                    // Old bucket still authoritative; the read linearizes
                    // at the head load above.
                    return chain::read_chain(oh, key, guard);
                }
            }
            let head = tref.buckets.of(key).head(guard);
            if head.tag() != MOVED {
                return chain::read_chain(head, key, guard);
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
        self.write(key, Insert(Some(value)), 0, guard).applied
    }

    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        self.write(key, Remove, 0, guard).prev.cloned()
    }

    /// Guard-scoped element count (O(buckets + n); quiescently consistent),
    /// following per-bucket `MOVED` authority through a migration.
    fn len_in(&self, guard: &Guard) -> usize {
        self.authoritative(guard).count()
    }

    /// Guard-scoped emptiness: early-exits at the first authoritative live
    /// entry instead of the default full O(buckets + n) count.
    fn is_empty_in(&self, guard: &Guard) -> bool {
        self.authoritative(guard).next().is_none()
    }

    /// The write loop with the closure's decision, **following `MOVED`
    /// authority exactly like every other update**. The first
    /// [`OPTIMISTIC_RMW_RETRIES`] rounds validate instead of locking, so the
    /// closure may run more than once.
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        self.write(key, f, OPTIMISTIC_RMW_RETRIES, guard).into()
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
    use csds_core::hashtable::bucket_of;
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
        // Two 2 000-op phases under Miri: one grow, one shrink.
        let ops = if cfg!(miri) { 4_000 } else { 30_000u64 };
        for i in 0..ops {
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
        const OPS: u64 = if cfg!(miri) { 1_000 } else { 8_000 };
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
        let keys: Vec<u64> = (0..).filter(|&k| bucket_of(k, 1) == 0).take(8).collect();
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
        let extra_key = (0..).filter(|&k| bucket_of(k, 1) == 0).nth(8).unwrap();
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
            b.freeze(&lock_guard(&b.lock), MOVED);
        }
        let t = Table::<u64>::new(4);
        t.prev.store(Shared::boxed(p));
        t.cursor.store(7, Ordering::Relaxed);
        // Drain-tail update: target bucket already MOVED, cursor past the
        // end — the call must leave the cursor untouched.
        h.help_migration(&t, 3, &guard);
        assert_eq!(
            t.cursor.load(Ordering::Relaxed),
            7,
            "cursor advanced past total during the drain tail"
        );
        // Below the end the cursor still claims quanta as before.
        t.cursor.store(1, Ordering::Relaxed);
        h.help_migration(&t, 3, &guard);
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
        let keys: Vec<u64> = (0..).filter(|&k| bucket_of(k, 1) == 0).take(9).collect();
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
        let keys: Vec<u64> = (0..).filter(|&k| bucket_of(k, 1) == 0).take(9).collect();
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
            let out = h.write(k, f, 0, &guard);
            (out.prev.copied(), out.cur.copied(), out.applied)
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
        let keys: Vec<u64> = (0..).filter(|&k| bucket_of(k, 1) == 0).take(8).collect();
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
