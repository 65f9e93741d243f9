//! Epoch-based memory reclamation (EBR), built from scratch.
//!
//! The paper's implementations "use an epoch-based memory management scheme,
//! similar in principle to RCU" (§3.2). This crate is that substrate:
//!
//! * a global epoch counter and a **lock-free registry** of per-thread
//!   participant slots (CAS push; slots of exited threads are logically
//!   deleted and physically recycled by later registrations);
//! * [`pin`] returns a [`Guard`]; while a guard is live, the thread is
//!   *pinned* at an epoch and may dereference shared pointers loaded from
//!   [`Atomic`] cells;
//! * removed nodes are retired with [`Guard::defer_drop`] (or, for a block
//!   that is not a `Box<T>`, [`Guard::defer_free`]); they are freed
//!   once the global epoch has advanced far enough that no pinned thread can
//!   still hold a reference (the classic three-generation argument);
//! * [`Shared`] pointers carry **tag bits** in their low-order alignment
//!   bits — the Harris list's logical-deletion mark, at zero space cost.
//!
//! # Fast-path design
//!
//! Every operation of every structure in this workspace pins, so the pin
//! fast path is engineered down to the minimum the memory model permits:
//!
//! * publication is a `Relaxed` store of the slot state followed by a single
//!   `SeqCst` fence and a `Relaxed` validation load of the global epoch —
//!   the only sequentially consistent synchronization on the path; unpin is
//!   a plain `Release` store. (An earlier iteration kept threads *lazily*
//!   pinned across guard drops so a repin at an unchanged epoch could skip
//!   the fence. Measured on `fig0_substrate`, that made pin/unpin 4× faster
//!   — and made every *structure* slower, up to 12× for the hash table:
//!   any thread that pins once and then goes idle stalls the epoch for
//!   everyone, and benchmarks, servers and thread pools all have such
//!   threads. There is no sound way for an advancer to ignore a lazy pin,
//!   because the reusing thread would have to re-validate with exactly the
//!   fence being skipped. So guards always unpin; the sound remnant of the
//!   idea is [`Guard::repin`], which skips the fence while a guard is
//!   *live*, where the slot really is continuously published.)
//! * each participant `Slot` is padded to 128 bytes so pin publication
//!   never false-shares with a neighbouring slot;
//! * retired nodes go into a **fixed-capacity inline bag** (no allocation
//!   per retirement, a single `RefCell` borrow, never nested); full bags
//!   are sealed into a flat Vec-backed ring. Epoch advance + collection
//!   runs amortized behind the `MAINTENANCE_PERIOD` pin counter, and the
//!   registry scan is skipped when neither this thread nor the orphan
//!   stack holds garbage.
//!
//! # Safety argument (sketch)
//!
//! A thread pinned at epoch `e` keeps the global epoch from advancing past
//! `e + 1`. An object retired during a pin session at epoch `e` is tagged
//! `e + 1`, an upper bound for the global epoch at unlink time; every thread
//! that could have loaded a reference to the object was pinned at some epoch
//! `p ≤ e + 1` and therefore blocks the advance `p → p + 1`. Hence once the
//! global epoch reaches `tag + 2`, no such thread is still pinned, and the
//! object can be dropped.
//!
//! [`Guard::repin`] only ever *extends* a live, continuously published pin
//! session (staying at the current epoch is what every pinned thread does
//! anyway), so it preserves the invariant above.
//!
//! Threads that exit donate their unreclaimed garbage to a global lock-free
//! orphan stack, collected during later maintenance by any surviving thread.

use std::cell::{Cell, RefCell};
use std::ptr;

use csds_sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, LazyStatic, Ordering};

mod atomic;
mod session;

pub use atomic::{Atomic, Shared};
pub use session::{Session, REPIN_STALL_WARN_THRESHOLD};

/// Pad-to-cache-line wrapper (128 bytes covers the adjacent-line prefetcher
/// pair on x86 and the native 128-byte lines on some ARM/POWER parts).
#[repr(align(128))]
struct CacheAligned<T>(T);

/// A type-erased deferred destructor.
struct Deferred {
    ptr: *mut u8,
    dropper: unsafe fn(*mut u8),
    /// Size of the retired allocation, for the health telemetry (allocator
    /// overhead and heap payloads owned by the object are not counted).
    bytes: usize,
}

// SAFETY: a Deferred is only ever executed once, by whichever thread runs
// collection; the pointee was unlinked from all shared structures before
// being retired, so ownership is unique.
unsafe impl Send for Deferred {}

impl Deferred {
    fn execute(self) {
        // SAFETY: by construction (`Guard::defer_free`), `dropper` may free
        // `ptr`, the allocation is uniquely owned, and this is the only
        // execution of the dropper.
        unsafe { (self.dropper)(self.ptr) }
    }
}

/// A sealed batch of retired objects, stamped with its retirement epoch.
struct Bag {
    epoch: u64,
    items: Vec<Deferred>,
}

/// Run one batch of deferred destructors, settling the process-wide
/// deferred-garbage gauges first (so a destructor that re-enters this
/// module observes the gauges already decremented).
fn execute_items(items: Vec<Deferred>) {
    let n = items.len() as i64;
    let bytes: usize = items.iter().map(|d| d.bytes).sum();
    csds_metrics::ebr_garbage_delta(-n, -(bytes as i64));
    for d in items {
        d.execute();
    }
}

/// Per-thread participant record. Cache-line padded: `state` is stored by
/// every pin and read by every registry scan, so one slot must never share
/// a line with another.
#[repr(align(128))]
struct Slot {
    /// 0 when not pinned, `(epoch << 1) | 1` when pinned at `epoch`.
    state: AtomicU64,
    /// Claimed by a live thread. Cleared on thread exit (logical delete);
    /// a later registration recycles the slot instead of growing the list.
    active: AtomicBool,
    /// Intrusive registry link; written once at push, immutable afterwards.
    next: AtomicPtr<Slot>,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: AtomicU64::new(0),
            active: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

/// Lock-free singly-linked registry of participant slots.
///
/// Push-only: nodes are never unlinked or freed (scans run with no
/// reclamation protection of their own, and EBR cannot bootstrap itself),
/// but exited threads' slots are *logically* deleted via [`Slot::active`]
/// and physically recycled by the next registration, so the list length is
/// bounded by the peak number of concurrently live threads.
struct Registry {
    head: CacheAligned<AtomicPtr<Slot>>,
}

impl Registry {
    const fn new() -> Registry {
        Registry {
            head: CacheAligned(AtomicPtr::new(ptr::null_mut())),
        }
    }

    /// Claim a recycled slot or CAS-push a fresh one. Lock-free.
    fn register(&self) -> &'static Slot {
        // First pass: try to reclaim a logically deleted slot.
        let mut p = self.head.0.load(Ordering::Acquire);
        // SAFETY: registry nodes are immortal (`Box::leak` below).
        while let Some(slot) = unsafe { p.as_ref() } {
            if !slot.active.load(Ordering::Relaxed)
                && slot
                    .active
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                debug_assert_eq!(slot.state.load(Ordering::Relaxed), 0);
                return slot;
            }
            p = slot.next.load(Ordering::Relaxed);
        }
        // None free: push a new slot.
        let slot: &'static Slot = Box::leak(Box::new(Slot::new()));
        let mut head = self.head.0.load(Ordering::Relaxed);
        loop {
            slot.next.store(head, Ordering::Relaxed);
            match self.head.0.compare_exchange_weak(
                head,
                slot as *const Slot as *mut Slot,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return slot,
                Err(h) => head = h,
            }
        }
    }

    /// Iterate all slots (including inactive ones).
    fn iter(&self) -> impl Iterator<Item = &'static Slot> {
        let mut p = self.head.0.load(Ordering::Acquire);
        std::iter::from_fn(move || {
            // SAFETY: registry nodes are immortal.
            let slot = unsafe { p.as_ref() }?;
            p = slot.next.load(Ordering::Relaxed);
            Some(slot)
        })
    }
}

/// One donation of orphaned garbage (all the bags of one exited thread).
struct OrphanNode {
    bags: Vec<Bag>,
    next: *mut OrphanNode,
}

/// Lock-free Treiber stack of orphaned garbage donations.
struct OrphanList {
    head: CacheAligned<AtomicPtr<OrphanNode>>,
}

// SAFETY: OrphanNode chains are transferred wholesale between threads
// through the atomic head; their contents (Bags of Deferred) are Send.
unsafe impl Send for OrphanList {}
unsafe impl Sync for OrphanList {}

impl OrphanList {
    const fn new() -> OrphanList {
        OrphanList {
            head: CacheAligned(AtomicPtr::new(ptr::null_mut())),
        }
    }

    /// Cheap emptiness probe so maintenance can skip the collection pass.
    fn is_empty(&self) -> bool {
        self.head.0.load(Ordering::Relaxed).is_null()
    }

    fn donate(&self, bags: Vec<Bag>) {
        if bags.is_empty() {
            return;
        }
        let node = Box::into_raw(Box::new(OrphanNode {
            bags,
            next: ptr::null_mut(),
        }));
        let mut head = self.head.0.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is ours until the successful CAS publishes it.
            unsafe { (*node).next = head };
            match self.head.0.compare_exchange_weak(
                head,
                node,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Steal the whole stack, free what `global` permits, re-donate the rest.
    fn collect(&self, global: u64) {
        if self.is_empty() {
            return;
        }
        let mut p = self.head.0.swap(ptr::null_mut(), Ordering::Acquire);
        let mut ready: Vec<Bag> = Vec::new();
        let mut unready: Vec<Bag> = Vec::new();
        while !p.is_null() {
            // SAFETY: the swap made this chain exclusively ours.
            let node = unsafe { Box::from_raw(p) };
            p = node.next;
            for bag in node.bags {
                if bag.epoch + 2 <= global {
                    ready.push(bag);
                } else {
                    unready.push(bag);
                }
            }
        }
        self.donate(unready);
        for bag in ready {
            execute_items(bag.items);
        }
    }
}

struct Collector {
    epoch: CacheAligned<AtomicU64>,
    registry: Registry,
    orphans: OrphanList,
}

impl Collector {
    fn new() -> Self {
        Collector {
            epoch: CacheAligned(AtomicU64::new(0)),
            registry: Registry::new(),
            orphans: OrphanList::new(),
        }
    }

    /// Attempt to advance the global epoch; returns the (possibly advanced)
    /// global epoch. Lock-free scan of the participant registry; inactive
    /// (logically deleted) slots are skipped.
    fn try_advance(&self) -> u64 {
        let global = self.epoch.0.load(Ordering::Relaxed);
        // Pairs with the fence in `Local::publish`: slot states read below
        // are at least as fresh as any publication that precedes this fence
        // in the total order of SeqCst operations.
        fence(Ordering::SeqCst);
        for slot in self.registry.iter() {
            if !slot.active.load(Ordering::Acquire) {
                continue;
            }
            let s = slot.state.load(Ordering::Relaxed);
            if s & 1 == 1 && (s >> 1) != global {
                return global; // someone is pinned at an older epoch
            }
        }
        match self
            .epoch
            .0
            .compare_exchange(global, global + 1, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => {
                csds_metrics::ebr_epoch_advance(global + 1);
                global + 1
            }
            Err(cur) => cur,
        }
    }
}

/// The process-wide collector. Declared through the seam's [`LazyStatic`] so
/// that under the model checker every explored execution starts from a fresh
/// epoch/registry/orphan state (leaked registry slots from prior executions
/// are abandoned, which is fine at model scale).
static GLOBAL: LazyStatic<Collector> = LazyStatic::new(Collector::new);

fn collector() -> &'static Collector {
    GLOBAL.get()
}

/// Capacity of the inline open bag; sealing happens when it fills.
const BAG_CAP: usize = 64;
/// Run maintenance (advance + collect) every this many pin operations.
const MAINTENANCE_PERIOD: u64 = 64;
/// Default reclamation-watchdog threshold (pending deferred items): well
/// above the steady-state backlog of a healthy churning thread (a few
/// sealed bags, i.e. a few hundred items), well below the millions the PR 6
/// starvation bug accumulated.
pub const WATCHDOG_THRESHOLD_DEFAULT: u64 = 4096;

/// The effective maintenance period. In production this is the constant
/// above; under the model checker a model can shrink it (usually to 1) via
/// the `ebr.maintenance_period` config key, so that a handful of pins —
/// all an exhaustive exploration can afford — still exercise the
/// advance/collect path on every schedule.
#[inline]
fn maintenance_period() -> u64 {
    #[cfg(feature = "modelcheck")]
    if let Some(p) = csds_modelcheck::model_config_u64("ebr.maintenance_period") {
        return p.max(1);
    }
    MAINTENANCE_PERIOD
}

/// Flat Vec-backed ring buffer of sealed bags (oldest-first FIFO).
struct SealedRing {
    /// Power-of-two capacity; `None` marks an empty cell.
    buf: Vec<Option<Bag>>,
    head: usize,
    len: usize,
}

impl SealedRing {
    fn new() -> SealedRing {
        SealedRing {
            buf: Vec::new(),
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn grow(&mut self) {
        let old_cap = self.buf.len();
        let new_cap = (old_cap * 2).max(8);
        let mut buf: Vec<Option<Bag>> = Vec::with_capacity(new_cap);
        for i in 0..self.len {
            buf.push(self.buf[(self.head + i) & (old_cap - 1)].take());
        }
        buf.resize_with(new_cap, || None);
        self.buf = buf;
        self.head = 0;
    }

    fn push_back(&mut self, bag: Bag) {
        if self.len == self.buf.len() {
            self.grow();
        }
        let mask = self.buf.len() - 1;
        let idx = (self.head + self.len) & mask;
        debug_assert!(self.buf[idx].is_none());
        self.buf[idx] = Some(bag);
        self.len += 1;
    }

    /// Epoch of the oldest sealed bag, if any.
    fn front_epoch(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.buf[self.head].as_ref().map(|b| b.epoch)
    }

    fn pop_front(&mut self) -> Option<Bag> {
        if self.len == 0 {
            return None;
        }
        let bag = self.buf[self.head].take();
        debug_assert!(bag.is_some());
        self.head = (self.head + 1) & (self.buf.len() - 1);
        self.len -= 1;
        bag
    }
}

/// The thread's garbage: a fixed-capacity inline open bag plus the ring of
/// sealed bags. Lives behind a single `RefCell`, borrowed at most once per
/// operation and never while destructors run.
struct LocalBags {
    open_epoch: u64,
    open_len: usize,
    open: [Option<Deferred>; BAG_CAP],
    sealed: SealedRing,
}

impl LocalBags {
    fn new() -> LocalBags {
        LocalBags {
            open_epoch: 0,
            open_len: 0,
            open: [const { None }; BAG_CAP],
            sealed: SealedRing::new(),
        }
    }

    fn has_garbage(&self) -> bool {
        self.open_len > 0 || !self.sealed.is_empty()
    }

    /// Move the open bag's contents into the sealed ring.
    fn seal_open(&mut self) {
        if self.open_len == 0 {
            return;
        }
        let mut items = Vec::with_capacity(self.open_len);
        for slot in self.open.iter_mut().take(self.open_len) {
            items.push(slot.take().expect("open bag slot in 0..open_len is filled"));
        }
        self.open_len = 0;
        self.sealed.push_back(Bag {
            epoch: self.open_epoch,
            items,
        });
    }

    /// Append one deferred destructor tagged `tag`; returns the sealed-bag
    /// count so the caller can decide whether to run early maintenance.
    fn push(&mut self, tag: u64, d: Deferred) -> usize {
        if self.open_epoch != tag {
            self.seal_open();
            self.open_epoch = tag;
        }
        self.open[self.open_len] = Some(d);
        self.open_len += 1;
        if self.open_len == BAG_CAP {
            self.seal_open();
        }
        self.sealed.len()
    }

    /// Drain everything (for orphan donation at thread exit).
    fn drain_all(&mut self) -> Vec<Bag> {
        self.seal_open();
        let mut bags = Vec::with_capacity(self.sealed.len());
        while let Some(bag) = self.sealed.pop_front() {
            bags.push(bag);
        }
        bags
    }
}

struct Local {
    slot: &'static Slot,
    guard_depth: Cell<usize>,
    /// Per-thread cache of the last-observed global epoch (the epoch of the
    /// current publication while pinned); lets [`Guard::repin`] skip the
    /// fence when the epoch has not moved.
    pin_epoch: Cell<u64>,
    pin_count: Cell<u64>,
    bags: RefCell<LocalBags>,
    /// Deferred destructors retired by this thread and not yet executed
    /// locally (orphan donations leave with the thread at exit).
    deferred_pending: Cell<u64>,
    /// Reclamation-watchdog threshold for this thread (items); see
    /// [`set_watchdog_threshold`].
    watchdog_threshold: Cell<u64>,
}

impl Local {
    fn new() -> Self {
        Local {
            slot: collector().registry.register(),
            guard_depth: Cell::new(0),
            pin_epoch: Cell::new(0),
            pin_count: Cell::new(0),
            bags: RefCell::new(LocalBags::new()),
            deferred_pending: Cell::new(0),
            watchdog_threshold: Cell::new(WATCHDOG_THRESHOLD_DEFAULT),
        }
    }

    /// Top-level pin: publish with the store + SeqCst fence.
    #[inline]
    fn acquire(&self) {
        let global = collector().epoch.0.load(Ordering::Relaxed);
        self.publish(global);
        self.guard_depth.set(1);
        let n = self.pin_count.get() + 1;
        self.pin_count.set(n);
        if n % maintenance_period() == 0 {
            self.maintenance(false);
        }
    }

    /// Publish the slot as pinned, starting from the epoch guess `e`. The
    /// store races with concurrent epoch advances, so validate and
    /// re-publish until the published epoch matches the global epoch.
    fn publish(&self, mut e: u64) {
        let c = collector();
        loop {
            self.slot.state.store((e << 1) | 1, Ordering::Relaxed);
            // The single SeqCst publication point on the pin path: orders
            // the state store before the validation load, pairing with the
            // fence in `try_advance` (see the module-level safety sketch).
            fence(Ordering::SeqCst);
            let now = c.epoch.0.load(Ordering::Relaxed);
            if now == e {
                break;
            }
            e = now;
        }
        self.pin_epoch.set(e);
    }

    #[inline]
    fn defer(&self, d: Deferred) {
        // Tag = pin_epoch + 1: an upper bound on the global epoch at unlink
        // time (see module docs). Collection is amortized purely behind the
        // MAINTENANCE_PERIOD pin counter: triggering extra maintenance on
        // queue depth degenerates into a registry scan per retirement
        // whenever a pinned thread is legitimately blocking the advance.
        let tag = self.pin_epoch.get() + 1;
        let bytes = d.bytes;
        let _sealed = self.bags.borrow_mut().push(tag, d);
        csds_metrics::ebr_garbage_delta(1, bytes as i64);
        // Reclamation watchdog: collection is amortized behind the pin
        // counter (above), so a thread whose pin path never runs maintenance
        // — the PR 6 repin-starvation class: two long-lived sessions on one
        // thread make every repin inert, or nested pins skip `acquire` — has
        // exactly one signal left: its pending queue keeps growing. Fire a
        // counter + trace event at every threshold multiple so the pathology
        // is release-build-visible long before it becomes a 130 MB
        // post-mortem.
        let pending = self.deferred_pending.get() + 1;
        self.deferred_pending.set(pending);
        if pending % self.watchdog_threshold.get() == 0 {
            csds_metrics::ebr_stall(pending);
        }
    }

    /// Free local sealed bags old enough under `global`. Bags are taken out
    /// of the ring before their destructors run, so a destructor that
    /// re-enters this module never observes a held borrow.
    fn collect_sealed(&self, global: u64) {
        loop {
            let bag = {
                let mut bags = self.bags.borrow_mut();
                match bags.sealed.front_epoch() {
                    Some(e) if e + 2 <= global => bags.sealed.pop_front(),
                    _ => None,
                }
            };
            match bag {
                Some(b) => {
                    self.deferred_pending.set(
                        self.deferred_pending
                            .get()
                            .saturating_sub(b.items.len() as u64),
                    );
                    execute_items(b.items);
                }
                None => break,
            }
        }
    }

    /// Amortized maintenance: attempt an epoch advance and collect. Unless
    /// `force`d, the registry scan is skipped entirely when neither this
    /// thread nor the orphan stack holds garbage.
    fn maintenance(&self, force: bool) {
        let c = collector();
        if !force && !self.bags.borrow().has_garbage() && c.orphans.is_empty() {
            return;
        }
        // Latency is only timed past the early-out, so the gauge measures
        // real passes (advance attempt + both collections), not no-ops.
        let start = std::time::Instant::now();
        let global = c.try_advance();
        self.collect_sealed(global);
        c.orphans.collect(global);
        csds_metrics::ebr_collect(start.elapsed().as_nanos() as u64);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Thread exit: donate garbage, then unpin and logically delete the
        // slot so a future thread can recycle it.
        let bags = self.bags.borrow_mut().drain_all();
        collector().orphans.donate(bags);
        self.slot.state.store(0, Ordering::Release);
        self.slot.active.store(false, Ordering::Release);
    }
}

csds_sync::atomic::seam_thread_local! {
    static LOCAL: Local = Local::new();
}

/// An RAII token proving the current thread is pinned.
///
/// While any guard is live, every [`Shared`] loaded through it remains valid
/// (not freed), even if concurrently unlinked and retired by other threads.
/// Guards are not `Send`.
///
/// Guards are intended to be *held and reused*: a per-thread session (such
/// as `csds_core`'s `MapHandle`) keeps one guard alive across many
/// operations and calls [`Guard::repin`] between them, paying the pin
/// store+fence only when the global epoch has actually moved.
#[must_use = "dropping a Guard unpins the thread; loaded pointers become invalid"]
pub struct Guard {
    pinned: bool,
    _not_send: std::marker::PhantomData<*mut ()>,
}

/// Pin the current thread and return a guard.
pub fn pin() -> Guard {
    LOCAL.with(|l| {
        let depth = l.guard_depth.get();
        if depth == 0 {
            l.acquire();
        } else {
            l.guard_depth.set(depth + 1);
        }
    });
    Guard {
        pinned: true,
        _not_send: std::marker::PhantomData,
    }
}

/// Returns a guard that does **not** pin the thread.
///
/// # Safety
///
/// The caller must guarantee no other thread is concurrently accessing the
/// data structure (e.g. inside `Drop` with `&mut self`). Items retired
/// through an unprotected guard are dropped immediately.
pub unsafe fn unprotected() -> Guard {
    Guard {
        pinned: false,
        _not_send: std::marker::PhantomData,
    }
}

impl Guard {
    /// Retire the pointee: it will be dropped (as a `Box<T>`) once no pinned
    /// thread can still reference it.
    ///
    /// `T: Send` because the destructor may run on another thread: garbage
    /// of an exiting thread is donated to the global orphan stack and
    /// collected by whichever thread runs maintenance next.
    ///
    /// # Safety
    ///
    /// * `shared` must have been allocated as `Box<T>` (e.g. via
    ///   [`Shared::boxed`] / [`Atomic::new`]) and must not be null;
    /// * it must be unreachable for threads that pin *after* this call
    ///   (i.e. already unlinked from the shared structure);
    /// * it must be retired exactly once.
    pub unsafe fn defer_drop<T: Send>(&self, shared: Shared<'_, T>) {
        unsafe fn drop_box<T>(p: *mut u8) {
            drop(Box::from_raw(p as *mut T));
        }
        debug_assert!(!shared.is_null());
        self.defer_free(
            shared.as_untagged_raw() as *mut u8,
            drop_box::<T>,
            std::mem::size_of::<T>(),
        );
    }

    /// Retire an allocation that is not a `Box<T>` (for example a node
    /// whose header is followed by a variable-length tail in the same
    /// block): `free(ptr)` runs once no pinned thread can still reference
    /// it — at once under an [`unprotected`] guard. `bytes`, the
    /// allocation's real size, feeds the garbage telemetry
    /// ([`EbrHealth::garbage_bytes`]).
    ///
    /// # Safety
    ///
    /// * `free(ptr)` must drop and deallocate the object exactly as it was
    ///   allocated, and may run on any thread (the object must be `Send`);
    /// * the allocation must be unreachable for threads that pin *after*
    ///   this call, and must be retired exactly once.
    pub unsafe fn defer_free(&self, ptr: *mut u8, free: unsafe fn(*mut u8), bytes: usize) {
        let d = Deferred {
            ptr,
            dropper: free,
            bytes,
        };
        if self.pinned {
            LOCAL.with(|l| l.defer(d));
        } else {
            // Unprotected: sole-owner contract lets us free right away.
            d.execute();
        }
    }

    /// Re-validate this guard's pin against the current global epoch.
    ///
    /// If the epoch has not moved, this is a fence-free no-op (the slot has
    /// been continuously published since [`pin`], which is exactly what
    /// being pinned at the current epoch means). If it has moved, the guard
    /// re-publishes at the new epoch with the usual store + fence, letting
    /// reclamation progress past the old one.
    ///
    /// Long-running read phases (helping loops, full traversals) can call
    /// this periodically so they do not hold old epochs back, without
    /// paying a fence per call.
    ///
    /// Takes `&mut self`: re-publishing at a newer epoch invalidates every
    /// [`Shared`] previously loaded through this guard (their pointees may
    /// be reclaimed once the old epoch is released), and `Shared<'g>`
    /// borrows the guard, so the exclusive borrow makes holding one across
    /// `repin` a compile error. If other guards are live on this thread
    /// (nested pins), their loaded pointers would be invalidated too —
    /// which the borrow checker cannot see — so `repin` is inert unless
    /// this is the only live guard.
    ///
    /// Returns whether the repin was **effective**: `true` means this is
    /// the thread's only live guard and its pin is now published at the
    /// current global epoch (possibly having been there all along); `false`
    /// means the call was inert — other guards are live on this thread (or
    /// this guard is [`unprotected`]), so the thread stays pinned at the
    /// epoch of the oldest live guard. A long run of `false` from a guard
    /// that is repinned between operations is the signature of two
    /// long-lived sessions on one thread, which stalls epoch reclamation
    /// process-wide; callers holding a reusable guard should surface it
    /// ([`Session`] does: see [`Session::stalled_ops`]).
    pub fn repin(&mut self) -> bool {
        if !self.pinned {
            return false;
        }
        LOCAL.with(|l| {
            if l.guard_depth.get() != 1 {
                return false;
            }
            let global = collector().epoch.0.load(Ordering::Relaxed);
            if l.pin_epoch.get() != global {
                l.publish(global);
            }
            // Repins share the pin path's amortized maintenance counter. A
            // long-lived session retires through this guard for its whole
            // lifetime; without this, nothing on the repin path ever
            // advances the epoch or collects, and a handle-driven update
            // loop accumulates garbage unboundedly until the handle drops
            // (measured: ~130 MB and a 10× op-cost degradation per 2M
            // uncontended RMWs). Each round advances the epoch at most one
            // step past this thread's pin, so the next repin re-publishes
            // and the backlog drains within a few periods.
            //
            // The `ebr.omit_repin_maintenance` model knob deletes exactly
            // this block, re-introducing the historical bug so the model
            // checker's repin-reclamation regression can demonstrate that
            // it catches it (see crates/modelcheck/tests/ebr_guard.rs).
            #[cfg(feature = "modelcheck")]
            if csds_modelcheck::model_config_u64("ebr.omit_repin_maintenance") == Some(1) {
                return true;
            }
            let n = l.pin_count.get() + 1;
            l.pin_count.set(n);
            if n % maintenance_period() == 0 {
                l.maintenance(false);
            }
            true
        })
    }

    /// Force a maintenance round (epoch advance attempt + collection).
    /// Useful in tests and teardown paths.
    pub fn flush(&self) {
        if self.pinned {
            LOCAL.with(|l| {
                l.bags.borrow_mut().seal_open();
                l.maintenance(true);
            });
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.pinned {
            return;
        }
        LOCAL.with(|l| {
            let depth = l.guard_depth.get();
            l.guard_depth.set(depth - 1);
            if depth == 1 {
                // Always unpin: an idle thread must never hold the epoch
                // back (see the fast-path notes in the module docs).
                l.slot.state.store(0, Ordering::Release);
            }
        });
    }
}

/// Current global epoch (for tests and diagnostics).
pub fn global_epoch() -> u64 {
    collector().epoch.0.load(Ordering::Acquire)
}

/// Deferred items retired by the calling thread and not yet executed
/// locally (orphan donations at thread exit leave this count with the
/// thread). Lets a thread that is about to go idle decide whether to keep
/// walking the epoch forward ([`Guard::flush`]) until its own queue is
/// empty, instead of warehousing garbage for the duration of its sleep.
pub fn local_garbage_items() -> u64 {
    LOCAL.with(|l| l.deferred_pending.get())
}

/// Override the calling thread's reclamation-watchdog threshold (pending
/// deferred items between firings). Per-thread on purpose: tests shrink it
/// without perturbing concurrently running threads. Clamped to ≥ 1.
pub fn set_watchdog_threshold(items: u64) {
    LOCAL.with(|l| l.watchdog_threshold.set(items.max(1)));
}

/// Point-in-time reclamation health, for live dashboards (`repro watch`)
/// and post-run audits. Racy by nature — every field is an independent
/// relaxed observation of a moving system.
#[derive(Clone, Debug, Default)]
pub struct EbrHealth {
    /// Current global epoch.
    pub global_epoch: u64,
    /// Registered participant slots of live threads.
    pub active_participants: usize,
    /// Active participants currently pinned.
    pub pinned_participants: usize,
    /// Epoch lag (`global - pinned_epoch`) of each pinned participant; a
    /// sustained lag ≥ 2 means that participant is blocking reclamation.
    pub pinned_lags: Vec<u64>,
    /// Largest entry of `pinned_lags` (0 when nothing is pinned).
    pub max_epoch_lag: u64,
    /// Process-wide deferred garbage not yet reclaimed (items).
    pub garbage_items: u64,
    /// Approximate bytes of that garbage (retired allocations only).
    pub garbage_bytes: u64,
}

/// Snapshot the reclamation health gauges: per-participant epoch lag from a
/// registry scan, plus the process-wide deferred-garbage gauges maintained
/// through `csds_metrics`. Watchdog *firings* are counters in the metrics
/// registry (`ebr_stall_events`), not here.
pub fn health() -> EbrHealth {
    let c = collector();
    let global = c.epoch.0.load(Ordering::Acquire);
    let mut h = EbrHealth {
        global_epoch: global,
        ..Default::default()
    };
    for slot in c.registry.iter() {
        if !slot.active.load(Ordering::Acquire) {
            continue;
        }
        h.active_participants += 1;
        let s = slot.state.load(Ordering::Relaxed);
        if s & 1 == 1 {
            h.pinned_participants += 1;
            let lag = global.saturating_sub(s >> 1);
            h.max_epoch_lag = h.max_epoch_lag.max(lag);
            h.pinned_lags.push(lag);
        }
    }
    let (items, bytes) = csds_metrics::ebr_garbage();
    h.garbage_items = items;
    h.garbage_bytes = bytes;
    h
}

/// Registry occupancy `(total_slots, active_slots)` — diagnostics; racy.
pub fn registry_stats() -> (usize, usize) {
    let mut total = 0;
    let mut active = 0;
    for slot in collector().registry.iter() {
        total += 1;
        if slot.active.load(Ordering::Relaxed) {
            active += 1;
        }
    }
    (total, active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csds_sync::atomic::AtomicUsize;

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    struct Counted(#[allow(dead_code)] u64);
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn pin_unpin_tracks_depth() {
        let g1 = pin();
        let g2 = pin(); // nested
        drop(g2);
        drop(g1);
        LOCAL.with(|l| assert_eq!(l.guard_depth.get(), 0));
    }

    #[test]
    fn slot_is_cache_line_padded() {
        assert!(std::mem::align_of::<Slot>() >= 128);
        assert!(std::mem::size_of::<Slot>() >= 128);
    }

    #[test]
    fn unpin_clears_publication() {
        // An idle (unpinned) thread must never hold the epoch back: the
        // last guard drop clears the slot.
        let g = pin();
        LOCAL.with(|l| assert_eq!(l.slot.state.load(Ordering::Relaxed) & 1, 1));
        drop(g);
        LOCAL.with(|l| assert_eq!(l.slot.state.load(Ordering::Relaxed), 0));
    }

    #[test]
    fn repin_tracks_the_global_epoch() {
        let mut g = pin();
        // No-op repin: the epoch cannot move while only we are pinned and
        // nothing advances it, so the published state must be unchanged —
        // but the repin is still *effective* (sole guard, current epoch).
        let before = LOCAL.with(|l| l.slot.state.load(Ordering::Relaxed));
        assert!(g.repin());
        assert_eq!(LOCAL.with(|l| l.slot.state.load(Ordering::Relaxed)), before);
        // Force the epoch forward (our own pin is at the current epoch, so
        // the advance is allowed), then repin must re-publish.
        let e0 = global_epoch();
        g.flush();
        if global_epoch() > e0 {
            assert!(g.repin());
            let state = LOCAL.with(|l| l.slot.state.load(Ordering::Relaxed));
            assert_eq!(state & 1, 1);
            assert_eq!(state >> 1, global_epoch());
        }
        drop(g);
    }

    #[test]
    fn repin_is_inert_under_nested_guards() {
        let mut outer = pin();
        let mut inner = pin();
        let before = LOCAL.with(|l| l.slot.state.load(Ordering::Relaxed));
        // With the outer guard (and its loaded pointers) live, repin must
        // not move the published epoch out from under it — and must report
        // that it was inert.
        assert!(!inner.repin());
        assert_eq!(LOCAL.with(|l| l.slot.state.load(Ordering::Relaxed)), before);
        drop(inner);
        // Back to a single live guard: repin is effective again.
        assert!(outer.repin());
        drop(outer);
    }

    /// Pin/flush in a loop (sleeping between rounds) until `pred` holds or a
    /// generous timeout expires. Other tests may hold pins concurrently, so
    /// reclamation progress is eventual, not immediate.
    fn churn_until(pred: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            {
                let g = pin();
                g.flush();
            }
            if pred() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        pred()
    }

    #[test]
    fn epoch_advances_when_unpinned() {
        let e0 = global_epoch();
        assert!(churn_until(|| global_epoch() > e0), "epoch never advanced");
    }

    #[test]
    fn deferred_drop_eventually_runs() {
        DROPS.store(0, Ordering::SeqCst);
        {
            let g = pin();
            for i in 0..10 {
                let s = Shared::boxed(Counted(i));
                // SAFETY: never published; unique, retired once.
                unsafe { g.defer_drop(s) };
            }
            g.flush();
        }
        assert!(churn_until(|| DROPS.load(Ordering::SeqCst) >= 10));
        assert_eq!(DROPS.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        static BLOCK_DROPS: AtomicUsize = AtomicUsize::new(0);
        struct B;
        impl Drop for B {
            fn drop(&mut self) {
                BLOCK_DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }

        // A long-lived reader on another thread pins an epoch...
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let reader = std::thread::spawn(move || {
            let _g = pin();
            ready_tx.send(()).unwrap();
            rx.recv().unwrap(); // hold the pin until told to stop
        });
        ready_rx.recv().unwrap();

        {
            let g = pin();
            let s = Shared::boxed(B);
            // SAFETY: unique allocation, retired once.
            unsafe { g.defer_drop(s) };
            g.flush();
        }
        // While the reader is pinned, the epoch cannot advance by 2, so the
        // object must not be dropped no matter how hard we try.
        for _ in 0..8 {
            let g = pin();
            g.flush();
        }
        assert_eq!(
            BLOCK_DROPS.load(Ordering::SeqCst),
            0,
            "freed under a pinned reader"
        );

        tx.send(()).unwrap();
        reader.join().unwrap();
        assert!(churn_until(|| BLOCK_DROPS.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn orphaned_garbage_from_exited_thread_is_collected() {
        static ORPHAN_DROPS: AtomicUsize = AtomicUsize::new(0);
        struct O;
        impl Drop for O {
            fn drop(&mut self) {
                ORPHAN_DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        std::thread::spawn(|| {
            let g = pin();
            let s = Shared::boxed(O);
            // SAFETY: unique allocation, retired once.
            unsafe { g.defer_drop(s) };
            // Thread exits without collecting; garbage becomes orphaned.
        })
        .join()
        .unwrap();
        assert!(churn_until(|| ORPHAN_DROPS.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn exited_threads_slots_are_recycled() {
        // Warm up this thread's own registration.
        drop(pin());
        let (total_before, _) = registry_stats();
        for _ in 0..32 {
            std::thread::spawn(|| drop(pin())).join().unwrap();
        }
        let (total_after, _) = registry_stats();
        // Sequential short-lived threads must reuse slots rather than grow
        // the registry by one each: without recycling the 32 spawns add 32
        // slots. Unrelated tests running concurrently in this process can
        // legitimately claim slots and force a few fresh pushes, so the
        // bound is "well under one per spawn", not an absolute count.
        assert!(
            total_after < total_before + 32,
            "registry grew {total_before} -> {total_after} over 32 sequential \
             threads; slots not recycled"
        );
    }

    #[test]
    fn sealed_ring_fifo_and_growth() {
        let mut ring = SealedRing::new();
        assert!(ring.is_empty());
        for i in 0..100 {
            ring.push_back(Bag {
                epoch: i,
                items: Vec::new(),
            });
        }
        assert_eq!(ring.len(), 100);
        assert_eq!(ring.front_epoch(), Some(0));
        for i in 0..100 {
            let bag = ring.pop_front().unwrap();
            assert_eq!(bag.epoch, i);
        }
        assert!(ring.pop_front().is_none());
        // Interleaved push/pop exercises wrap-around: pushes interleave the
        // streams (r, r+1000) while FIFO pops drain them at half rate, so
        // round r pops r/2 from the first stream or (r-1)/2 + 1000 from the
        // second, alternating.
        for round in 0..50u64 {
            ring.push_back(Bag {
                epoch: round,
                items: Vec::new(),
            });
            ring.push_back(Bag {
                epoch: round + 1000,
                items: Vec::new(),
            });
            let popped = ring.pop_front().unwrap().epoch;
            let expect = if round % 2 == 0 {
                round / 2
            } else {
                (round - 1) / 2 + 1000
            };
            assert_eq!(popped, expect);
        }
        assert_eq!(ring.len(), 50);
    }

    #[test]
    fn unprotected_drops_immediately() {
        DROPS.store(0, Ordering::SeqCst);
        // SAFETY: single-threaded test, no concurrent structure access.
        let g = unsafe { unprotected() };
        let s = Shared::boxed(Counted(7));
        let before = DROPS.load(Ordering::SeqCst);
        // SAFETY: unique allocation, retired once.
        unsafe { g.defer_drop(s) };
        assert_eq!(DROPS.load(Ordering::SeqCst), before + 1);
    }
}
