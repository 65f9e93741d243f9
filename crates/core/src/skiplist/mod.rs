//! Skip-list implementations of the set/map abstraction.
//!
//! * [`HerlihySkipList`] — the optimistic lazy skiplist of Herlihy, Lev,
//!   Luchangco and Shavit \[28\]: the best-performing blocking skiplist in the
//!   paper (used in Figs. 3–9 and Tables 2–3).
//! * [`PughSkipList`] — Pugh's concurrent skiplist maintenance \[53\]:
//!   per-level locking, one level at a time.
//! * [`LockFreeSkipList`] — Fraser/Herlihy-Shavit style lock-free skiplist
//!   (baseline).
//!
//! All three share the tower-height distribution (p = 1/2, max height
//! [`MAX_LEVEL`]) and one node layout: a small per-algorithm header followed,
//! in the same allocation, by exactly `height` successor pointers (the C
//! flexible-array layout). A search therefore touches one block per node it
//! visits, and an insert or a removal pays one `malloc` and one free for the
//! node. A node is reached through a `NodeRef`, which keeps the block's own
//! address so that successor reads stay inside the allocation's provenance.

mod herlihy;
mod lockfree;
mod pugh;

pub use herlihy::HerlihySkipList;
pub use lockfree::LockFreeSkipList;
pub use pugh::PughSkipList;

/// Maximum tower height; supports structures well beyond the paper's
/// largest (8192 elements) with p = 1/2.
pub const MAX_LEVEL: usize = 20;

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::mem::{align_of, size_of};

use csds_ebr::{Atomic, Guard, Shared};
use csds_sync::atomic::{AtomicU64, LazyStatic, Ordering};
use std::cell::Cell;

/// What a skip-list node stores besides its successors. The header records
/// the node's height, which sizes the block it heads.
///
/// # Safety
/// `top_level` returns the same value for the whole life of the header: the
/// block is allocated, indexed and freed by it.
pub(crate) unsafe trait Header: Sized {
    /// Index of the highest level the node occupies (height − 1).
    fn top_level(&self) -> usize;
}

/// Byte offset of the first successor: right behind the header.
const fn tower_offset<H>() -> usize {
    size_of::<H>().next_multiple_of(align_of::<Atomic<H>>())
}

/// Layout of a node with header `H` and `height` successors.
fn layout<H>(height: usize) -> Layout {
    debug_assert!((1..=MAX_LEVEL).contains(&height));
    Layout::from_size_align(
        tower_offset::<H>() + height * size_of::<Atomic<H>>(),
        align_of::<H>().max(align_of::<Atomic<H>>()),
    )
    .expect("a header and at most 256 words")
}

/// A node loaded under a pin: its header through `Deref`, its successors
/// through [`next`](Self::next).
///
/// It holds the block's own address, not a `&H`: a reference to the header
/// covers only the header's bytes, so a successor address derived from it
/// would point outside its provenance (Stacked Borrows rejects the read).
pub(crate) struct NodeRef<'g, H> {
    ptr: *const H,
    _marker: PhantomData<&'g H>,
}

impl<H> Clone for NodeRef<'_, H> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<H> Copy for NodeRef<'_, H> {}

/// Dereference a node pointer (its tag is ignored).
///
/// # Safety
/// `ptr` must be non-null and its node must stay allocated for `'g` (it was
/// loaded under the pin `'g`, or it is owned by the caller).
#[inline]
pub(crate) unsafe fn node<'g, H>(ptr: Shared<'g, H>) -> NodeRef<'g, H> {
    debug_assert!(!ptr.is_null());
    NodeRef {
        ptr: ptr.as_untagged_raw() as *const H,
        _marker: PhantomData,
    }
}

impl<'g, H: Header> NodeRef<'g, H> {
    /// The header, for the whole pin `'g`.
    #[inline]
    pub(crate) fn header(self) -> &'g H {
        // SAFETY: live for 'g (see `node`).
        unsafe { &*self.ptr }
    }

    /// The successor pointer at `level`; panics above the node's top level.
    #[inline]
    pub(crate) fn next(self, level: usize) -> &'g Atomic<H> {
        assert!(level <= self.header().top_level(), "level above the tower");
        // SAFETY: the block holds `top_level + 1` initialised successor
        // words behind the header (`alloc_node`), and `ptr` carries the
        // whole block's provenance.
        unsafe {
            &*self
                .ptr
                .cast::<u8>()
                .add(tower_offset::<H>())
                .cast::<Atomic<H>>()
                .add(level)
        }
    }
}

impl<H: Header> std::ops::Deref for NodeRef<'_, H> {
    type Target = H;

    #[inline]
    fn deref(&self) -> &H {
        self.header()
    }
}

/// Allocate a node: `header`, then `top_level + 1` null successors, in one
/// block. The node is unpublished: the caller owns it until a store or CAS
/// publishes it, and otherwise takes it back with [`reclaim`].
pub(crate) fn alloc_node<'g, H: Header>(header: H) -> Shared<'g, H> {
    let height = header.top_level() + 1;
    let layout = layout::<H>(height);
    // SAFETY: the layout has a non-zero size (a header plus a successor).
    let block = unsafe { alloc(layout) };
    if block.is_null() {
        handle_alloc_error(layout);
    }
    // SAFETY: fresh block of `layout`, sized and aligned for the header and
    // `height` successor words behind it.
    unsafe {
        block.cast::<H>().write(header);
        let tower = block.add(tower_offset::<H>()).cast::<Atomic<H>>();
        for l in 0..height {
            tower.add(l).write(Atomic::null());
        }
        Shared::from_raw(block as usize)
    }
}

/// Take back a node no other thread can reach — never published, retired
/// and past its grace period, or in a structure being dropped. The block is
/// freed and the header returned by value (dropping it drops what it owns).
///
/// # Safety
/// The caller uniquely owns the node, allocated by [`alloc_node`].
pub(crate) unsafe fn reclaim<H: Header>(ptr: Shared<'_, H>) -> H {
    let block = ptr.as_untagged_raw() as *mut H;
    let header = block.read();
    dealloc(block.cast(), layout::<H>(header.top_level() + 1));
    header
}

/// Retire an unlinked node: it is freed, with its real layout, once no
/// pinned thread can still reach it.
///
/// # Safety
/// The node is unlinked from every level, and this is its only retirement.
pub(crate) unsafe fn retire<H: Header + Send>(guard: &Guard, ptr: Shared<'_, H>) {
    unsafe fn free<H: Header>(block: *mut u8) {
        drop(reclaim(Shared::<H>::from_raw(block as usize)));
    }
    let bytes = layout::<H>(node(ptr).top_level() + 1).size();
    guard.defer_free(ptr.as_untagged_raw() as *mut u8, free::<H>, bytes);
}

/// Free every node of a structure being dropped, walking level 0 from the
/// head sentinel (tags on the links are ignored).
///
/// # Safety
/// The caller has exclusive access; retired nodes are not on level 0.
pub(crate) unsafe fn free_all<H: Header>(head: &Atomic<H>) {
    let mut p = Shared::<H>::from_raw(head.load_raw());
    while !p.is_null() {
        let next = node(p).next(0).load_raw();
        drop(reclaim(p));
        p = Shared::from_raw(next);
    }
}

/// Seed counter for the per-thread tower RNGs. Routed through the seam's
/// [`LazyStatic`] so each model-checker execution starts the sequence from
/// the same constant — a plain `static` would carry RNG state across
/// explored schedules, making tower heights (and hence the body's atomic-op
/// sequence) differ between exploration and replay.
static LEVEL_SEED: LazyStatic<AtomicU64> = LazyStatic::new(|| AtomicU64::new(0x853C49E6748FEA9B));

csds_sync::atomic::seam_thread_local! {
    static LEVEL_RNG: Cell<u64> = Cell::new(0);
}

/// Geometric tower height in `1..=MAX_LEVEL` (p = 1/2).
pub(crate) fn random_level() -> usize {
    #[cfg(test)]
    if let Some(height) = tests::forced_level() {
        return height;
    }
    LEVEL_RNG.with(|cell| {
        let mut x = cell.get();
        if x == 0 {
            // First draw on this thread: grab a distinct odd seed. Lazy (not
            // in the thread-local initialiser) so the seam never has to run
            // an atomic op while constructing thread-local state.
            x = LEVEL_SEED
                .get()
                .fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed)
                | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        cell.set(x);
        // Count trailing ones in the low bits: P(height = h) = 2^-h.
        let h = (x.trailing_ones() as usize) + 1;
        h.min(MAX_LEVEL)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GuardedMap;
    use csds_ebr::{pin, unprotected};
    use csds_sync::atomic::AtomicUsize;
    use std::collections::BTreeSet;
    use std::sync::{Barrier, Mutex};

    std::thread_local! {
        static FORCED_LEVEL: Cell<usize> = const { Cell::new(0) };
    }

    /// The tower height [`random_level`] returns on this thread, if a test
    /// forced one.
    pub(super) fn forced_level() -> Option<usize> {
        Some(FORCED_LEVEL.with(Cell::get)).filter(|&h| h != 0)
    }

    /// Run `f` with every tower this thread builds exactly `height` tall.
    fn with_height<R>(height: usize, f: impl FnOnce() -> R) -> R {
        FORCED_LEVEL.with(|c| c.set(height));
        let out = f();
        FORCED_LEVEL.with(|c| c.set(0));
        out
    }

    /// Heights the per-height tests visit: all of them, or (under Miri)
    /// the two extremes and one in between.
    fn heights() -> Vec<usize> {
        if cfg!(miri) {
            vec![1, 5, MAX_LEVEL]
        } else {
            (1..=MAX_LEVEL).collect()
        }
    }

    /// A header that counts its own drops.
    struct TestHeader<'a> {
        top_level: u8,
        drops: &'a AtomicUsize,
    }

    // SAFETY: `top_level` is never written after construction.
    unsafe impl Header for TestHeader<'_> {
        fn top_level(&self) -> usize {
            usize::from(self.top_level)
        }
    }

    impl Drop for TestHeader<'_> {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn tower_sits_inside_the_block_at_every_height() {
        let drops = AtomicUsize::new(0);
        for height in heights() {
            let ptr = alloc_node(TestHeader {
                top_level: (height - 1) as u8,
                drops: &drops,
            });
            // SAFETY: owned, unpublished.
            let n = unsafe { node(ptr) };
            let base = ptr.as_raw();
            let size = layout::<TestHeader>(height).size();
            assert_eq!(size, tower_offset::<TestHeader>() + 8 * height);
            for l in 0..height {
                let at = n.next(l) as *const _ as usize;
                assert!(at >= base + size_of::<TestHeader>() && at + 8 <= base + size);
                assert_eq!(n.next(l).load_raw(), 0, "successor {l} starts null");
                n.next(l).store(ptr);
            }
            for l in 0..height {
                assert_eq!(n.next(l).load_raw(), base, "successor {l} round-trips");
            }
            let before = drops.load(Ordering::Relaxed);
            // SAFETY: never published.
            let header = unsafe { reclaim(ptr) };
            assert_eq!(header.top_level(), height - 1);
            assert_eq!(
                drops.load(Ordering::Relaxed),
                before,
                "reclaim returns the header"
            );
            drop(header);
        }
        assert_eq!(drops.load(Ordering::Relaxed), heights().len());
    }

    #[test]
    fn retired_node_is_freed_once_with_its_header() {
        let drops = AtomicUsize::new(0);
        // SAFETY: single-threaded; the nodes are never published.
        let g = unsafe { unprotected() };
        for height in heights() {
            let ptr = alloc_node(TestHeader {
                top_level: (height - 1) as u8,
                drops: &drops,
            });
            let before = drops.load(Ordering::Relaxed);
            // SAFETY: never published; retired once. An unprotected guard
            // frees at once.
            unsafe { retire(&g, ptr) };
            assert_eq!(drops.load(Ordering::Relaxed), before + 1, "height {height}");
        }
    }

    /// Values the drop-accounting tests have created and not yet dropped.
    /// Every value, clones included, gets an id of its own, so a double
    /// drop and a leak are both told apart from a correct run.
    struct Ledger(Mutex<(u64, BTreeSet<u64>)>);

    impl Ledger {
        const fn new() -> Self {
            Ledger(Mutex::new((0, BTreeSet::new())))
        }

        fn live(&self) -> Vec<u64> {
            self.0.lock().unwrap().1.iter().copied().collect()
        }
    }

    struct Tracked {
        id: u64,
        ledger: &'static Ledger,
    }

    impl Tracked {
        fn new(ledger: &'static Ledger) -> Self {
            let mut l = ledger.0.lock().unwrap();
            l.0 += 1;
            let id = l.0;
            l.1.insert(id);
            Tracked { id, ledger }
        }
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Tracked::new(self.ledger)
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            let dropped = self.ledger.0.lock().unwrap().1.remove(&self.id);
            assert!(dropped, "value {} dropped twice", self.id);
        }
    }

    /// For each tower height, drive every path that creates, replaces or
    /// frees a value through a fresh map whose towers all have that height:
    /// inserts (fresh and of a present key), `rmw_in` (replace, decline,
    /// insert), removes, pop-min where the structure has one, racing
    /// inserts of the same keys from two threads (the loser's node is never
    /// published), and finally the structure's drop. Then wait until every
    /// retirement has run and check that each value was dropped exactly
    /// once. A header owns its value (inline, or the box it points to) and
    /// is dropped only by `reclaim`, which frees its block, so this also
    /// shows that no node leaked or was freed twice.
    fn account_drops<M: GuardedMap<Tracked>>(
        ledger: &'static Ledger,
        make: impl Fn() -> M,
        pop: Option<fn(&M, &Guard) -> Option<u64>>,
    ) {
        let (keys, rounds) = if cfg!(miri) { (6, 2) } else { (16, 8) };
        for height in heights() {
            let map = make();
            with_height(height, || {
                let g = pin();
                for k in 0..keys {
                    assert!(map.insert_in(k, Tracked::new(ledger), &g));
                }
                assert!(!map.insert_in(0, Tracked::new(ledger), &g), "present");
                for k in 0..keys / 2 {
                    let out = map.rmw_in(k, &mut |_| Some(Tracked::new(ledger)), &g);
                    assert!(out.applied && out.prev.is_some(), "replace {k}");
                }
                let out = map.rmw_in(1, &mut |_| None, &g);
                assert!(!out.applied, "decline");
                let out = map.rmw_in(keys, &mut |_| Some(Tracked::new(ledger)), &g);
                assert!(out.applied && out.prev.is_none(), "rmw insert");
                for k in (0..keys).step_by(3) {
                    assert!(map.remove_in(k, &g).is_some(), "remove {k}");
                }
                if let Some(pop) = pop {
                    assert_eq!(pop(&map, &g), Some(1));
                    assert_eq!(pop(&map, &g), Some(2));
                }
            });
            // Two threads insert the same keys at once, so some inserts
            // lose the race after building their node.
            let start = Barrier::new(2);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        with_height(height, || {
                            start.wait();
                            for round in 0..rounds {
                                let base = 100 + round * keys;
                                for k in base..base + keys {
                                    map.insert_in(k, Tracked::new(ledger), &pin());
                                }
                                for k in base..base + keys {
                                    map.remove_in(k, &pin());
                                }
                            }
                        })
                    });
                }
            });
            drop(map);
        }
        // Retired nodes and value boxes drain once the epoch moves on. Other
        // tests may hold pins meanwhile, so wait rather than demand it now.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !ledger.live().is_empty() && std::time::Instant::now() < deadline {
            pin().flush();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(ledger.live(), Vec::<u64>::new(), "values never dropped");
    }

    #[test]
    fn pugh_drops_every_value_once_at_every_height() {
        static LEDGER: Ledger = Ledger::new();
        account_drops(
            &LEDGER,
            PughSkipList::new,
            Some(|m, g| m.pop_min_in(g).map(|(k, _)| k)),
        );
    }

    #[test]
    fn lock_free_drops_every_value_once_at_every_height() {
        static LEDGER: Ledger = Ledger::new();
        account_drops(
            &LEDGER,
            LockFreeSkipList::new,
            Some(|m, g| m.pop_min_in(g).map(|(k, _)| k)),
        );
    }

    #[test]
    fn herlihy_drops_every_value_once_at_every_height() {
        static LEDGER: Ledger = Ledger::new();
        account_drops(&LEDGER, HerlihySkipList::new, None);
        static ELIDED: Ledger = Ledger::new();
        account_drops(
            &ELIDED,
            || HerlihySkipList::with_mode(crate::SyncMode::Elision),
            None,
        );
    }

    #[test]
    fn level_distribution_is_roughly_geometric() {
        let mut counts = [0usize; MAX_LEVEL + 1];
        const N: usize = 100_000;
        for _ in 0..N {
            let l = random_level();
            assert!((1..=MAX_LEVEL).contains(&l));
            counts[l] += 1;
        }
        // Level 1 should occur for about half the samples.
        let f1 = counts[1] as f64 / N as f64;
        assert!((0.45..0.55).contains(&f1), "P(level=1) = {f1}");
        // Monotone decreasing in expectation across the first few levels.
        assert!(counts[1] > counts[2] && counts[2] > counts[3]);
    }
}
