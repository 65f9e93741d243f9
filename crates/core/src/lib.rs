//! Concurrent search data structures (CSDSs): blocking, lock-free and
//! wait-free implementations of the set/map abstraction, plus the blocking
//! queues and stacks of the paper's §7.
//!
//! This is the Rust counterpart of the ASCYLIB-style library evaluated in
//! *"Concurrent Search Data Structures Can Be Blocking and Practically
//! Wait-Free"* (David & Guerraoui, SPAA 2016). Every structure follows the
//! asynchronized-concurrency patterns of §3.1:
//!
//! * **reads** perform no stores and never restart;
//! * **updates** consist of a synchronization-free *parse phase* followed by
//!   a short *write phase* that locks (or CASes) only the neighborhood of
//!   nodes being modified;
//! * validation failure in the write phase restarts the operation (counted
//!   via `csds-metrics`).
//!
//! Blocking structures can optionally run their write phases under
//! **emulated HTM lock elision** ([`SyncMode::Elision`]), reproducing the
//! paper's TSX experiments (§5.4, Tables 2–3).
//!
//! | family | blocking | lock-free | wait-free |
//! |---|---|---|---|
//! | linked list | [`list::LazyList`], [`list::CouplingList`] | [`list::HarrisList`] | [`list::WaitFreeList`] |
//! | skip list | [`skiplist::HerlihySkipList`], [`skiplist::PughSkipList`] | [`skiplist::LockFreeSkipList`] | — |
//! | hash table | [`hashtable::LazyHashTable`], [`hashtable::CouplingHashTable`] | [`hashtable::LockFreeHashTable`] | [`hashtable::WaitFreeHashTable`] |
//! | BST | [`bst::BstTk`] | — | — |
//! | queue/stack (§7) | [`queuestack::TwoLockQueue`], [`queuestack::LockedStack`] | [`queuestack::MsQueue`], [`queuestack::TreiberStack`] | — |
//!
//! # The operation vocabulary
//!
//! Beyond the paper's `get` / `insert-if-absent` / `remove`, every map
//! implements the **compound vocabulary** natively:
//! [`GuardedMap::rmw_in`] (atomic closure read-modify-write, the root
//! primitive every structure overrides with its own mechanism — in-place
//! mutation under bucket/node locks in the blocking designs, value-pointer
//! CAS in the lock-free ones) and the derived
//! [`upsert_in`](GuardedMap::upsert_in) (insert-or-replace),
//! [`compare_swap_in`](GuardedMap::compare_swap_in) (value CAS),
//! [`update_in`](GuardedMap::update_in) (closure RMW of existing keys) and
//! [`get_or_insert_with_in`](GuardedMap::get_or_insert_with_in). Each
//! structure documents its linearization points on its `GuardedMap` impl
//! and its private write loop.
//!
//! # Two ways to call an operation
//!
//! Every structure exposes its operations at two levels:
//!
//! * **Guard-scoped** ([`GuardedMap`] / [`GuardedPool`], and inherent
//!   `*_in` methods such as `pop_min_in` or `range_in` that no trait
//!   has): the caller supplies an EBR [`Guard`]. Reads are
//!   clone-free — `get_in` returns `Option<&'g V>` borrowed for the guard's
//!   lifetime — and a guard can be reused across many operations. This is
//!   the hot path; [`MapHandle`] / [`PoolHandle`] package it as a
//!   per-thread session that re-validates the guard with the fence-free
//!   [`Guard::repin`] between operations instead of a full pin/unpin cycle.
//! * **Pin-per-op** ([`ConcurrentMap`] / [`ConcurrentPool`]): the classic
//!   convenience traits, implemented once as blanket wrappers that pin,
//!   delegate to the guard-scoped method, and clone values out of reads.
//!   `Box<dyn ConcurrentMap<u64>>` stays object-safe for the harness.
//!
//! The *when to hold a guard* rule: hold **one** guard (one handle) per
//! thread per batch of operations — never two at once, since `repin` is
//! inert under nested guards — and let it drop when the thread goes idle;
//! a pinned-but-idle thread stalls memory reclamation for everyone.

pub mod bst;
pub mod hashtable;
pub mod list;
pub mod queuestack;

pub mod skiplist;

pub(crate) mod key;
pub mod write;

pub use key::{check_user_key, MAX_USER_KEY};

use csds_ebr::{pin, Guard, Session};

pub use csds_ebr::REPIN_STALL_WARN_THRESHOLD;

/// How a blocking structure synchronizes its write phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Plain fine-grained locking (the paper's default configuration).
    #[default]
    Locks,
    /// Emulated HTM lock elision with lock fallback (the paper's TSX
    /// configuration, §5.4). Each write phase is one body that both modes
    /// run: an update runs it as a transaction up to [`ELISION_RETRIES`]
    /// times, whose commit takes the locks the body names, then through
    /// the same lock set as [`SyncMode::Locks`].
    Elision,
}

/// Number of speculative attempts before falling back to locks; the paper's
/// model assumes five (§6.4).
pub const ELISION_RETRIES: u32 = 5;

/// The decision closure of [`GuardedMap::rmw_in`], behind a `&mut dyn`
/// reference so the method stays object-safe.
///
/// Called with the current value (`None` if the key is absent) and returns
/// the new value to install (`Some(v)` inserts or replaces) or `None` to
/// leave the map unchanged. Implementations may invoke the closure **more
/// than once** (optimistic structures retry on contention); only the final
/// invocation's decision takes effect, and values returned by abandoned
/// invocations are dropped.
pub type RmwFn<'f, V> = &'f mut dyn FnMut(Option<&V>) -> Option<V>;

/// What a [`GuardedMap::rmw_in`] call did, observed atomically at its
/// linearization point.
#[derive(Debug)]
pub struct RmwOutcome<'g, V> {
    /// The value associated with the key immediately *before* the
    /// operation (cloned out), or `None` if the key was absent.
    pub prev: Option<V>,
    /// The value associated with the key immediately *after* the operation
    /// — the installed value if the closure returned `Some`, the untouched
    /// existing value otherwise — borrowed from the map and the guard.
    /// `None` only when the key was absent and the closure declined to
    /// insert.
    pub cur: Option<&'g V>,
    /// Whether the closure's `Some(v)` decision was applied (an insert or a
    /// replace happened).
    pub applied: bool,
}

/// Result of a [`GuardedMap::compare_swap_in`] value-CAS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CasOutcome<V> {
    /// The current value matched `expected` and was replaced; carries the
    /// replaced value.
    Swapped(V),
    /// The key was present with a different value (carried here, cloned at
    /// the linearization point); nothing was changed.
    Mismatch(V),
    /// The key was absent; nothing was changed.
    Absent,
}

impl<V> CasOutcome<V> {
    /// Whether the swap was applied.
    pub fn swapped(&self) -> bool {
        matches!(self, CasOutcome::Swapped(_))
    }

    /// The value observed at the linearization point (`None` if absent):
    /// the replaced value for `Swapped`, the surviving value for
    /// `Mismatch`.
    pub fn observed(self) -> Option<V> {
        match self {
            CasOutcome::Swapped(v) | CasOutcome::Mismatch(v) => Some(v),
            CasOutcome::Absent => None,
        }
    }
}

/// Guard-scoped map operations: the primitive interface every structure
/// implements.
///
/// All methods take an externally managed EBR [`Guard`]; none of them pins.
/// `get_in` is **clone-free**: it returns a reference borrowed from *both*
/// the map and the guard, valid even if the entry is concurrently removed
/// (epoch-based reclamation keeps the node alive while the guard is live).
/// The double borrow is what makes the API sound: the guard protects
/// against concurrent retirement, while the map borrow prevents the owner
/// from dropping the structure — whose `Drop` frees every node immediately,
/// bypassing EBR — out from under the reference:
///
/// ```compile_fail
/// use csds_core::list::HarrisList;
/// use csds_core::GuardedMap;
///
/// let map: HarrisList<u64> = HarrisList::new();
/// let guard = csds_ebr::pin();
/// map.insert_in(1, 10, &guard);
/// let r = map.get_in(1, &guard);
/// drop(map); // ERROR: `map` is still borrowed by `r`
/// assert_eq!(r, Some(&10));
/// ```
///
/// Without the `drop`, the same lines compile, so the example above fails
/// on the borrow alone:
///
/// ```
/// use csds_core::list::HarrisList;
/// use csds_core::GuardedMap;
///
/// let map: HarrisList<u64> = HarrisList::new();
/// let guard = csds_ebr::pin();
/// map.insert_in(1, 10, &guard);
/// let r = map.get_in(1, &guard);
/// assert_eq!(r, Some(&10));
/// ```
///
/// Keys are 64-bit with the documented range `0 ..= u64::MAX - 2`
/// ([`MAX_USER_KEY`]); the top two keys are reserved for internal sentinels
/// and rejected with a hard assert at every entry point.
///
/// The trait is object-safe: the harness factory hands out
/// `Box<dyn GuardedMap<u64>>` for its hot loops.
pub trait GuardedMap<V>: Send + Sync {
    /// `get(k)` under `guard`: a reference to the value associated with
    /// `k`, if present, borrowed from the map and the guard (whichever
    /// borrow ends first bounds the reference).
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V>;

    /// Membership test under `guard`. The default delegates to
    /// [`get_in`](Self::get_in); structures with a cheaper presence check
    /// (e.g. a version-validated walk that skips materializing the value
    /// reference) override it.
    fn contains_in(&self, key: u64, guard: &Guard) -> bool {
        self.get_in(key, guard).is_some()
    }

    /// `put(k,v)` under `guard`: insert if absent. Returns `false` if `k`
    /// was present (no overwrite), `true` if the pair was inserted.
    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool;

    /// `remove(k)` under `guard`: remove and return the value (cloned out
    /// of the retired node), or `None` if absent.
    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V>;

    /// Number of elements under `guard` (O(n); quiescently consistent).
    fn len_in(&self, guard: &Guard) -> usize;

    /// Whether the structure is empty under `guard` (quiescently
    /// consistent). The default is O(n) via [`len_in`](Self::len_in);
    /// array-indexed structures override it with an early-exit walk.
    fn is_empty_in(&self, guard: &Guard) -> bool {
        self.len_in(guard) == 0
    }

    /// Atomic closure read-modify-write under `guard`: the **native
    /// compound primitive** every structure implements, and the root of the
    /// whole compound vocabulary ([`upsert_in`](Self::upsert_in),
    /// [`compare_swap_in`](Self::compare_swap_in),
    /// [`update_in`](Self::update_in),
    /// [`get_or_insert_with_in`](Self::get_or_insert_with_in)).
    ///
    /// `f` sees the current value (`None` if absent) and decides: `Some(v)`
    /// inserts (when absent) or replaces (when present), `None` leaves the
    /// map unchanged. The observation and the decision are **atomic**: no
    /// other operation on the key intervenes between the value `f` saw and
    /// the application of its decision. `f` may run multiple times under
    /// contention (see [`RmwFn`]); only the last run's decision is applied.
    ///
    /// Linearization: each structure documents its point on its
    /// implementation of this method. In every blocking structure insert,
    /// remove and RMW share one write phase by construction: one private
    /// write loop parses, asks a decision (keep, put a value, or remove)
    /// that `insert_in`, `remove_in` and the RMW closure each supply, and
    /// writes under the same critical section (bucket lock, node locks,
    /// versioned trylock). In the lock-free structures an existing-key
    /// replace linearizes at a CAS on the node's value pointer, an insert
    /// at the structure's usual publish point.
    ///
    /// Object-safe (`&mut dyn FnMut`): the harness's and service's
    /// `dyn GuardedMap<u64>` objects dispatch it directly.
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V>;

    /// Insert-or-replace under `guard`: associates `value` with `key`
    /// unconditionally and returns the previous value, `None` if the key
    /// was absent. Atomic — unlike a `remove_in` + `insert_in` pair, no
    /// concurrent reader can observe the key absent mid-replace.
    ///
    /// Default: one [`rmw_in`](Self::rmw_in) whose closure always installs
    /// (cloning `value` in case the structure retries).
    fn upsert_in(&self, key: u64, value: V, guard: &Guard) -> Option<V>
    where
        V: Clone,
    {
        self.rmw_in(key, &mut |_| Some(value.clone()), guard).prev
    }

    /// Value compare-and-swap under `guard`: iff `key` is present and its
    /// value equals `expected`, replace it with `new`. The comparison and
    /// the replacement are atomic; see [`CasOutcome`] for the three
    /// results.
    ///
    /// Default: one [`rmw_in`](Self::rmw_in) whose closure compares under
    /// the structure's write-phase synchronization.
    fn compare_swap_in(&self, key: u64, expected: &V, new: V, guard: &Guard) -> CasOutcome<V>
    where
        V: Clone + PartialEq,
    {
        let out = self.rmw_in(
            key,
            &mut |cur| match cur {
                Some(c) if c == expected => Some(new.clone()),
                _ => None,
            },
            guard,
        );
        match (out.applied, out.prev) {
            (true, Some(prev)) => CasOutcome::Swapped(prev),
            (false, Some(prev)) => CasOutcome::Mismatch(prev),
            (_, None) => CasOutcome::Absent,
        }
    }

    /// Closure read-modify-write of an **existing** key under `guard`:
    /// atomically replaces the current value `v` with `f(&v)`, retrying on
    /// contention, and returns the replaced value; `None` (and no call to
    /// `f` is applied) if the key is absent.
    ///
    /// Generic over `f`, hence `Self: Sized`; trait objects use
    /// [`rmw_in`](Self::rmw_in) directly.
    fn update_in(&self, key: u64, mut f: impl FnMut(&V) -> V, guard: &Guard) -> Option<V>
    where
        V: Clone,
        Self: Sized,
    {
        self.rmw_in(key, &mut |cur| cur.map(&mut f), guard).prev
    }

    /// `get(k)` that inserts `make()` first if the key is absent, under
    /// `guard`: returns a clone-free reference to the value now associated
    /// with `key` (the existing one, or the freshly inserted one). The
    /// check-and-insert is atomic.
    ///
    /// Generic over `make`, hence `Self: Sized`; trait objects use
    /// [`rmw_in`](Self::rmw_in) directly.
    fn get_or_insert_with_in<'g>(
        &'g self,
        key: u64,
        mut make: impl FnMut() -> V,
        guard: &'g Guard,
    ) -> &'g V
    where
        Self: Sized,
    {
        self.rmw_in(
            key,
            &mut |cur| if cur.is_none() { Some(make()) } else { None },
            guard,
        )
        .cur
        .expect("key present after get_or_insert_with_in")
    }

    /// Open a per-thread session over this map (pins once; reuses the
    /// guard across operations). See [`MapHandle`].
    fn handle(&self) -> MapHandle<'_, V, Self>
    where
        Self: Sized,
    {
        MapHandle::new(self)
    }
}

/// Guard-scoped pool (queue/stack) operations; see [`GuardedMap`].
pub trait GuardedPool<V>: Send + Sync {
    /// Insert an element (enqueue / push) under `guard`.
    fn push_in(&self, value: V, guard: &Guard);

    /// Remove an element (dequeue / pop) under `guard`, or `None` if empty.
    fn pop_in(&self, guard: &Guard) -> Option<V>;

    /// Number of elements under `guard` (O(n); quiescently consistent).
    fn len_in(&self, guard: &Guard) -> usize;

    /// Whether the pool is empty under `guard` (quiescently consistent).
    fn is_empty_in(&self, guard: &Guard) -> bool {
        self.len_in(guard) == 0
    }

    /// Open a per-thread session over this pool. See [`PoolHandle`].
    fn handle(&self) -> PoolHandle<'_, V, Self>
    where
        Self: Sized,
    {
        PoolHandle::new(self)
    }
}

/// The set/map abstraction of paper §2.2 — the pin-per-op convenience path.
///
/// Keys are 64-bit; values are arbitrary (cloned out on reads). The
/// supported key range is `0 ..= u64::MAX - 2` (two values are reserved for
/// internal sentinels). Implemented once, for every [`GuardedMap`], by a
/// blanket impl that pins around each call; hot loops should prefer a
/// [`MapHandle`], which reuses one guard across operations.
pub trait ConcurrentMap<V>: Send + Sync {
    /// `get(k)`: the value associated with `k`, if present.
    fn get(&self, key: u64) -> Option<V>;
    /// Membership test ([`GuardedMap::contains_in`]) — no value clone.
    fn contains(&self, key: u64) -> bool;
    /// `put(k,v)`: insert if absent. Returns `false` if `k` was present
    /// (no overwrite), `true` if the pair was inserted.
    fn insert(&self, key: u64, value: V) -> bool;
    /// `remove(k)`: remove and return the value, or `None` if absent.
    fn remove(&self, key: u64) -> Option<V>;
    /// Insert-or-replace: returns the previous value ([`GuardedMap::upsert_in`]).
    fn upsert(&self, key: u64, value: V) -> Option<V>;
    /// Value compare-and-swap ([`GuardedMap::compare_swap_in`]).
    fn compare_swap(&self, key: u64, expected: &V, new: V) -> CasOutcome<V>
    where
        V: PartialEq;
    /// Atomic closure read-modify-write ([`GuardedMap::rmw_in`]); the reply
    /// clones the post-operation value out instead of borrowing it.
    fn rmw(&self, key: u64, f: RmwFn<'_, V>) -> (Option<V>, Option<V>, bool);
    /// Number of elements (O(n); quiescently consistent).
    fn len(&self) -> usize;
    /// Whether the structure is empty (quiescently consistent).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone, T: GuardedMap<V> + ?Sized> ConcurrentMap<V> for T {
    fn get(&self, key: u64) -> Option<V> {
        let guard = pin();
        self.get_in(key, &guard).cloned()
    }

    fn contains(&self, key: u64) -> bool {
        let guard = pin();
        self.contains_in(key, &guard)
    }

    fn insert(&self, key: u64, value: V) -> bool {
        let guard = pin();
        self.insert_in(key, value, &guard)
    }

    fn remove(&self, key: u64) -> Option<V> {
        let guard = pin();
        self.remove_in(key, &guard)
    }

    fn upsert(&self, key: u64, value: V) -> Option<V> {
        let guard = pin();
        self.upsert_in(key, value, &guard)
    }

    fn compare_swap(&self, key: u64, expected: &V, new: V) -> CasOutcome<V>
    where
        V: PartialEq,
    {
        let guard = pin();
        self.compare_swap_in(key, expected, new, &guard)
    }

    fn rmw(&self, key: u64, f: RmwFn<'_, V>) -> (Option<V>, Option<V>, bool) {
        let guard = pin();
        let out = self.rmw_in(key, f, &guard);
        (out.prev, out.cur.cloned(), out.applied)
    }

    fn len(&self) -> usize {
        let guard = pin();
        self.len_in(&guard)
    }

    fn is_empty(&self) -> bool {
        // Route through the guard-scoped override (early-exit walks in the
        // hash tables, skiplists, elastic table) rather than a full count.
        let guard = pin();
        self.is_empty_in(&guard)
    }
}

/// Queues, stacks and other single-hotspot pools (paper §7) — the
/// pin-per-op convenience path, implemented by a blanket impl over
/// [`GuardedPool`].
pub trait ConcurrentPool<V>: Send + Sync {
    /// Insert an element (enqueue / push).
    fn push(&self, value: V);
    /// Remove an element (dequeue / pop), or `None` if empty.
    fn pop(&self) -> Option<V>;
    /// Number of elements (O(n); quiescently consistent, like
    /// [`ConcurrentMap::len`]).
    fn len(&self) -> usize;
    /// Whether the pool is empty (quiescently consistent).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V, T: GuardedPool<V> + ?Sized> ConcurrentPool<V> for T {
    fn push(&self, value: V) {
        let guard = pin();
        self.push_in(value, &guard);
    }

    fn pop(&self) -> Option<V> {
        let guard = pin();
        self.pop_in(&guard)
    }

    fn len(&self) -> usize {
        let guard = pin();
        self.len_in(&guard)
    }
}

/// A per-thread map session: one reusable EBR guard plus per-handle
/// operation accounting.
///
/// A handle pins once at construction and calls the fence-free
/// [`Guard::repin`] between operations instead of paying a full pin/unpin
/// cycle per call, so the common-case read is dominated by the parse phase
/// (paper §3.1) rather than by the reclamation substrate. Reads through a
/// handle are clone-free: [`MapHandle::get`] returns `Option<&V>`.
///
/// Handles are `!Send` and `!Sync` (they own a [`Guard`]): create **one per
/// worker thread**, next to that thread's metrics recorder — both stay
/// thread-local for the session's lifetime, so nothing is re-resolved per
/// operation. Drop the handle when the thread goes idle; an idle pinned
/// thread stalls epoch reclamation for everyone.
///
/// **At most one long-lived handle per thread.** [`Guard::repin`] is a
/// no-op while other guards are live on the same thread (their loaded
/// pointers would be invalidated), so a thread holding two sessions at
/// once — say a `MapHandle` and a [`PoolHandle`] — stays pinned at the
/// epoch of the oldest session and blocks reclamation progress for the
/// whole process until one of them drops. Everything remains *correct*;
/// only epoch turnover stops. Interleave two structures from one thread by
/// scoping the second session (or using the pin-per-op traits) rather than
/// holding both handles open.
///
/// The rule is not merely documented: every operation records whether its
/// repin was effective. [`MapHandle::stalled_ops`] reports the current run
/// of inert repins, and in debug builds a handle prints a stderr
/// diagnostic once per stall run when the run reaches
/// [`REPIN_STALL_WARN_THRESHOLD`] operations — short scoped inner sessions
/// stay below it, two genuinely long-lived handles do not.
///
/// ```
/// use csds_core::list::LazyList;
/// use csds_core::{GuardedMap, MapHandle};
///
/// let map: LazyList<String> = LazyList::new();
/// let mut h = MapHandle::new(&map); // or `map.handle()`
/// assert!(h.insert(7, "seven".to_string()));
/// assert_eq!(h.get(7).map(String::as_str), Some("seven")); // no clone
/// assert_eq!(h.remove(7).as_deref(), Some("seven"));
/// assert_eq!(h.ops(), 3);
/// ```
pub struct MapHandle<'m, V, M: GuardedMap<V> + ?Sized = dyn GuardedMap<V> + 'static> {
    map: &'m M,
    session: Session,
    _v: std::marker::PhantomData<fn() -> V>,
}

impl<'m, V, M: GuardedMap<V> + ?Sized> MapHandle<'m, V, M> {
    /// Open a session on `map` (pins the current thread).
    pub fn new(map: &'m M) -> Self {
        MapHandle {
            map,
            session: Session::new("MapHandle"),
            _v: std::marker::PhantomData,
        }
    }

    /// `get(k)`, clone-free: the reference borrows the handle, so it cannot
    /// be held across the next operation (which may repin and invalidate
    /// it) — the borrow checker enforces the epoch argument.
    #[inline]
    pub fn get(&mut self, key: u64) -> Option<&V> {
        self.map.get_in(key, self.session.op())
    }

    /// `get(k)` with the value cloned out (the pin-per-op traits' shape).
    #[inline]
    pub fn get_cloned(&mut self, key: u64) -> Option<V>
    where
        V: Clone,
    {
        self.get(key).cloned()
    }

    /// Membership test — no value reference, no clone. See
    /// [`GuardedMap::contains_in`].
    #[inline]
    pub fn contains(&mut self, key: u64) -> bool {
        self.map.contains_in(key, self.session.op())
    }

    /// `put(k,v)`: insert if absent; `false` if the key was present.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> bool {
        self.map.insert_in(key, value, self.session.op())
    }

    /// `remove(k)`: remove and return the value, or `None` if absent.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<V> {
        self.map.remove_in(key, self.session.op())
    }

    /// Insert-or-replace; returns the previous value. See
    /// [`GuardedMap::upsert_in`].
    #[inline]
    pub fn upsert(&mut self, key: u64, value: V) -> Option<V>
    where
        V: Clone,
    {
        self.map.upsert_in(key, value, self.session.op())
    }

    /// Value compare-and-swap. See [`GuardedMap::compare_swap_in`].
    #[inline]
    pub fn compare_swap(&mut self, key: u64, expected: &V, new: V) -> CasOutcome<V>
    where
        V: Clone + PartialEq,
    {
        self.map
            .compare_swap_in(key, expected, new, self.session.op())
    }

    /// Closure read-modify-write of an existing key; returns the replaced
    /// value. See [`GuardedMap::update_in`].
    #[inline]
    pub fn update(&mut self, key: u64, f: impl FnMut(&V) -> V) -> Option<V>
    where
        V: Clone,
        M: Sized,
    {
        self.map.update_in(key, f, self.session.op())
    }

    /// Atomic get-or-insert; the returned reference borrows the handle
    /// (like [`get`](MapHandle::get)). See
    /// [`GuardedMap::get_or_insert_with_in`].
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnMut() -> V) -> &V
    where
        M: Sized,
    {
        self.map.get_or_insert_with_in(key, make, self.session.op())
    }

    /// Atomic closure read-modify-write (the native compound primitive).
    /// See [`GuardedMap::rmw_in`].
    #[inline]
    pub fn rmw(&mut self, key: u64, f: RmwFn<'_, V>) -> RmwOutcome<'_, V> {
        self.map.rmw_in(key, f, self.session.op())
    }

    /// Number of elements (O(n); quiescently consistent).
    #[allow(clippy::len_without_is_empty)] // is_empty exists, &mut self
    #[inline]
    pub fn len(&mut self) -> usize {
        self.map.len_in(self.session.op())
    }

    /// Whether the map is empty (quiescently consistent; early-exit
    /// overrides apply — see [`GuardedMap::is_empty_in`]).
    #[inline]
    pub fn is_empty(&mut self) -> bool {
        self.map.is_empty_in(self.session.op())
    }

    /// Operations completed through this handle.
    pub fn ops(&self) -> u64 {
        self.session.ops()
    }

    /// Current run of consecutive repins (operations or [`refresh`] calls)
    /// that were inert because another guard (or handle) is live on this
    /// thread.
    ///
    /// `0` in the healthy single-session configuration; a value that keeps
    /// growing means this thread holds two long-lived sessions and epoch
    /// reclamation is stalled process-wide until one of them drops. Resets
    /// as soon as a repin is effective again. See
    /// [`REPIN_STALL_WARN_THRESHOLD`] for the debug-build diagnostic.
    ///
    /// [`refresh`]: MapHandle::refresh
    pub fn stalled_ops(&self) -> u64 {
        self.session.stalled_ops()
    }

    /// The session guard, e.g. for calling the underlying structure's
    /// inherent `*_in` methods (such as `range_in`) directly.
    pub fn guard(&self) -> &Guard {
        self.session.guard()
    }

    /// Re-validate the session guard against the current global epoch
    /// without issuing an operation (long read-only phases can call this so
    /// they do not hold old epochs back). Returns whether the repin was
    /// effective (see [`Guard::repin`]); like the operations, it feeds the
    /// [`stalled_ops`](MapHandle::stalled_ops) accounting.
    pub fn refresh(&mut self) -> bool {
        self.session.refresh()
    }
}

/// A per-thread pool (queue/stack) session; the [`MapHandle`] of
/// [`GuardedPool`]. One reusable guard, repinned between operations.
///
/// The same session rules apply: at most one long-lived handle (of either
/// kind) per thread — see the [`MapHandle`] docs.
pub struct PoolHandle<'p, V, P: GuardedPool<V> + ?Sized = dyn GuardedPool<V> + 'static> {
    pool: &'p P,
    session: Session,
    _v: std::marker::PhantomData<fn() -> V>,
}

impl<'p, V, P: GuardedPool<V> + ?Sized> PoolHandle<'p, V, P> {
    /// Open a session on `pool` (pins the current thread).
    pub fn new(pool: &'p P) -> Self {
        PoolHandle {
            pool,
            session: Session::new("PoolHandle"),
            _v: std::marker::PhantomData,
        }
    }

    /// Insert an element (enqueue / push).
    #[inline]
    pub fn push(&mut self, value: V) {
        self.pool.push_in(value, self.session.op());
    }

    /// Remove an element (dequeue / pop), or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<V> {
        self.pool.pop_in(self.session.op())
    }

    /// Number of elements (O(n); quiescently consistent).
    #[allow(clippy::len_without_is_empty)] // is_empty exists, &mut self
    #[inline]
    pub fn len(&mut self) -> usize {
        self.pool.len_in(self.session.op())
    }

    /// Whether the pool is empty (quiescently consistent).
    #[inline]
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Operations completed through this handle.
    pub fn ops(&self) -> u64 {
        self.session.ops()
    }

    /// Current run of consecutive repins that were inert; see
    /// [`MapHandle::stalled_ops`].
    pub fn stalled_ops(&self) -> u64 {
        self.session.stalled_ops()
    }

    /// The session guard.
    pub fn guard(&self) -> &Guard {
        self.session.guard()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared test drivers: every structure is exercised through the same
    //! sequential-model comparison and the same concurrent net-effect
    //! invariant check.

    use super::{ConcurrentMap, GuardedMap, MapHandle};
    use csds_sync::atomic::{AtomicU64, Ordering};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Compare against `BTreeMap` under a deterministic pseudo-random
    /// sequential workload.
    pub fn sequential_model_check<M: ConcurrentMap<u64>>(map: M, ops: u64, key_range: u64) {
        let mut model = BTreeMap::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..ops {
            let key = rng() % key_range;
            match rng() % 3 {
                0 => {
                    let expected = !model.contains_key(&key);
                    let got = map.insert(key, i);
                    assert_eq!(got, expected, "insert({key}) disagreed at op {i}");
                    if expected {
                        model.insert(key, i);
                    }
                }
                1 => {
                    let expected = model.remove(&key);
                    let got = map.remove(key);
                    assert_eq!(got, expected, "remove({key}) disagreed at op {i}");
                }
                _ => {
                    let expected = model.get(&key).copied();
                    let got = map.get(key);
                    assert_eq!(got, expected, "get({key}) disagreed at op {i}");
                }
            }
        }
        assert_eq!(map.len(), model.len(), "final length disagreed");
        for (&k, &v) in &model {
            assert_eq!(map.get(k), Some(v), "final content disagreed at key {k}");
        }
    }

    /// The same model comparison driven through a [`MapHandle`] (repin
    /// path), proving the handle and pin-per-op paths agree.
    pub fn sequential_model_check_handle<M: GuardedMap<u64>>(map: M, ops: u64, key_range: u64) {
        let mut h = MapHandle::new(&map);
        let mut model = BTreeMap::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..ops {
            let key = rng() % key_range;
            match rng() % 3 {
                0 => {
                    let expected = !model.contains_key(&key);
                    assert_eq!(h.insert(key, i), expected, "insert({key}) at op {i}");
                    if expected {
                        model.insert(key, i);
                    }
                }
                1 => {
                    assert_eq!(h.remove(key), model.remove(&key), "remove({key}) at {i}");
                }
                _ => {
                    assert_eq!(
                        h.get(key).copied(),
                        model.get(&key).copied(),
                        "get({key}) at op {i}"
                    );
                }
            }
        }
        assert_eq!(h.len(), model.len(), "final length disagreed");
        assert_eq!(h.ops(), ops + 1, "handle op accounting");
    }

    /// Model comparison of the closure RMW (replace, fetch-add-if-present,
    /// decline) and of reads, driven through whichever entries the caller
    /// wraps — a structure's public path, or its locked round or locked
    /// read alone, which no sequential run reaches on its own.
    pub fn sequential_rmw_model_check(
        mut rmw: impl FnMut(u64, super::RmwFn<'_, u64>) -> (Option<u64>, Option<u64>, bool),
        mut get: impl FnMut(u64) -> Option<u64>,
        ops: u64,
        key_range: u64,
    ) {
        let mut model = BTreeMap::new();
        let mut state = 0xD1B54A32D192ED03u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..ops {
            let key = rng() % key_range;
            let before = model.get(&key).copied();
            let (after, got) = match rng() % 3 {
                0 => (Some(i), rmw(key, &mut |_| Some(i))),
                1 => (
                    before.map(|v| v + 1),
                    rmw(key, &mut |cur| cur.map(|v| v + 1)),
                ),
                _ => (None, rmw(key, &mut |_| None)),
            };
            let expected = (before, after.or(before), after.is_some());
            assert_eq!(got, expected, "rmw({key}) disagreed at op {i}");
            if let Some(v) = after {
                model.insert(key, v);
            }
            assert_eq!(get(key), model.get(&key).copied(), "get({key}) at op {i}");
        }
        for k in 0..key_range {
            assert_eq!(get(k), model.get(&k).copied(), "final content at key {k}");
        }
    }

    /// Concurrent net-effect invariant: after `threads` workers issue random
    /// inserts/removes, for every key the final presence must equal
    /// (successful inserts − successful removes), which is 0 or 1.
    pub fn concurrent_net_effect<M: ConcurrentMap<u64> + 'static>(
        map: Arc<M>,
        threads: usize,
        ops_per_thread: u64,
        key_range: u64,
    ) {
        let ins: Arc<Vec<AtomicU64>> =
            Arc::new((0..key_range).map(|_| AtomicU64::new(0)).collect());
        let rem: Arc<Vec<AtomicU64>> =
            Arc::new((0..key_range).map(|_| AtomicU64::new(0)).collect());
        let mut handles = Vec::new();
        for t in 0..threads {
            let map = Arc::clone(&map);
            let ins = Arc::clone(&ins);
            let rem = Arc::clone(&rem);
            handles.push(std::thread::spawn(move || {
                let mut state = 0xDEADBEEF ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..ops_per_thread {
                    let key = rng() % key_range;
                    match rng() % 3 {
                        0 => {
                            if map.insert(key, key) {
                                ins[key as usize].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        1 => {
                            if map.remove(key).is_some() {
                                rem[key as usize].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => {
                            if let Some(v) = map.get(key) {
                                assert_eq!(v, key, "value corruption at key {key}");
                            }
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut expected_len = 0usize;
        for k in 0..key_range {
            let net = ins[k as usize].load(Ordering::Relaxed) as i64
                - rem[k as usize].load(Ordering::Relaxed) as i64;
            assert!(
                net == 0 || net == 1,
                "key {k}: net successful updates must be 0 or 1, got {net}"
            );
            let present = map.get(k).is_some();
            assert_eq!(
                present,
                net == 1,
                "key {k}: presence {present} but net {net}"
            );
            expected_len += net as usize;
        }
        assert_eq!(map.len(), expected_len);
    }
}

#[cfg(test)]
mod handle_tests {
    use super::*;
    use crate::list::HarrisList;
    #[allow(unused_imports)]
    use crate::ConcurrentMap as _;

    #[test]
    fn handle_reads_are_clone_free_references() {
        let map: HarrisList<Vec<u64>> = HarrisList::new();
        let mut h = map.handle();
        assert!(h.insert(1, vec![1, 2, 3]));
        // The reference points into the live node; no clone happened.
        let v: &Vec<u64> = h.get(1).unwrap();
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(h.get_cloned(1), Some(vec![1, 2, 3]));
        assert_eq!(h.remove(1), Some(vec![1, 2, 3]));
        assert!(h.is_empty());
    }

    #[test]
    fn handle_sequential_model() {
        testutil::sequential_model_check_handle(HarrisList::new(), 2_000, 64);
    }

    #[test]
    fn handle_compound_vocabulary_and_generic_wrappers() {
        let map: HarrisList<u64> = HarrisList::new();
        let mut h = map.handle();
        // upsert: insert-or-replace, returning the previous value.
        assert_eq!(h.upsert(1, 10), None);
        assert_eq!(h.upsert(1, 11), Some(10));
        // compare_swap: all three outcomes.
        assert_eq!(h.compare_swap(1, &11, 12), CasOutcome::Swapped(11));
        assert_eq!(h.compare_swap(1, &11, 13), CasOutcome::Mismatch(12));
        assert_eq!(h.compare_swap(2, &0, 1), CasOutcome::Absent);
        assert!(!CasOutcome::<u64>::Absent.swapped());
        assert_eq!(CasOutcome::Swapped(4u64).observed(), Some(4));
        // update: existing keys only.
        assert_eq!(h.update(1, |v| v + 1), Some(12));
        assert_eq!(h.get(1), Some(&13));
        assert_eq!(h.update(5, |v| v + 1), None);
        assert_eq!(h.get(5), None);
        // get_or_insert_with: inserts once, then returns the existing value
        // without invoking the closure.
        assert_eq!(*h.get_or_insert_with(5, || 50), 50);
        assert_eq!(*h.get_or_insert_with(5, || unreachable!("present")), 50);
        // rmw read-only decision leaves the map untouched.
        let out = h.rmw(5, &mut |cur| {
            assert_eq!(cur, Some(&50));
            None
        });
        assert_eq!(out.prev, Some(50));
        assert!(!out.applied);
        // rmw remove-the-decision: declining on an absent key inserts
        // nothing.
        let out = h.rmw(9, &mut |_| None);
        assert_eq!((out.prev, out.applied), (None, false));
        assert!(out.cur.is_none());
    }

    #[test]
    fn concurrent_map_compound_blanket_path() {
        // The pin-per-op blanket wrappers (Box<dyn ConcurrentMap> shape).
        let map: HarrisList<u64> = HarrisList::new();
        let m: &dyn ConcurrentMap<u64> = &map;
        assert_eq!(m.upsert(3, 30), None);
        assert_eq!(m.upsert(3, 31), Some(30));
        assert_eq!(m.compare_swap(3, &31, 32), CasOutcome::Swapped(31));
        let (prev, cur, applied) = m.rmw(3, &mut |c| Some(c.copied().unwrap_or(0) + 1));
        assert_eq!((prev, cur, applied), (Some(32), Some(33), true));
    }

    #[test]
    fn handle_survives_concurrent_removal_of_read_value() {
        // A reference obtained through a handle stays valid even if another
        // thread removes (and retires) the node: the session guard blocks
        // reclamation.
        use std::sync::Arc;
        let map = Arc::new(HarrisList::new());
        map.insert(9, 99u64);
        let mut h = MapHandle::new(&*map);
        let v = h.get(9).expect("present");
        let remover = {
            let map = Arc::clone(&map);
            std::thread::spawn(move || map.remove(9))
        };
        assert_eq!(remover.join().unwrap(), Some(99));
        // Still readable through our pinned reference.
        assert_eq!(*v, 99);
    }
}
