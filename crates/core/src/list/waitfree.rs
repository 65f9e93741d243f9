//! A wait-free sorted linked list in the style of Timnat et al. [57, 58].
//!
//! # Why this structure exists in the study
//!
//! The paper's Figure 1 compares a blocking, a lock-free and a wait-free
//! list and finds the wait-free one delivers roughly **half** the
//! throughput. Figure 2 explains why: efficient wait-free algorithms cannot
//! squeeze their concurrency metadata into pointer tag bits, so they
//! interpose *concurrency-data objects* between nodes, doubling the pointer
//! chases per traversal hop. This implementation reproduces that design
//! honestly:
//!
//! * every `next` relationship goes through a heap-allocated [`Link`]
//!   object (`node → link → node`), so traversals pay two dereferences per
//!   hop;
//! * updates are published as **operation descriptors** in an announce
//!   array; before running its own operation, a thread *helps* every
//!   announced operation with a phase number at most its own, which bounds
//!   the number of steps until any given operation completes (wait-freedom,
//!   modulo memory allocation, as in the original work);
//! * physical changes use a **claim / complete / rollback** protocol:
//!   a helper installs a flagged link carrying the descriptor, then tries
//!   to CAS the descriptor's state from `Pending` to "claimed by this
//!   flag"; losers roll their flag back, and any thread can complete the
//!   winning claim. The descriptor state CAS is the linearization point.
//!
//! Link objects are immutable after allocation and are only ever swung by
//! CAS with pointer-equality expectations; together with epoch-based
//! reclamation (readers stay pinned for the duration of an operation) this
//! rules out ABA on every CAS in the module.

use csds_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::marker::PhantomData;

use csds_ebr::{pin, Atomic, Guard, Shared};

use crate::key::{self, HEAD_IKEY, TAIL_IKEY};
use crate::{GuardedMap, RmwFn, RmwOutcome};

/// Announce-array size. Threads map to slots by a global round-robin id;
/// with more than `MAX_SLOTS` concurrent threads, slot collisions merely
/// reduce helping (progress degrades to lock-free), never correctness.
const MAX_SLOTS: usize = 64;

/// Descriptor states (values < `PTR_STATES` are terminal scalars; anything
/// larger is a pointer payload — a claimed flag link for inserts, the
/// marked node for removes).
const PENDING: usize = 0;
const FAILURE: usize = 1;
const SUCCESS: usize = 2;
const PTR_STATES: usize = 16;

/// The interposed concurrency-data object of the paper's Figure 2.
/// Immutable after allocation.
struct Link<V> {
    /// Raw pointer to the successor `Node`; 0 in a freshly allocated
    /// insert-node link (`INIT`), set during claim completion.
    succ: usize,
    /// Logical deletion mark for the node owning this link.
    marked: bool,
    /// Raw pointer to the [`OpDesc`] of an in-flight operation on this
    /// edge (an insert flag or a tentative remove mark); 0 when resolved.
    desc: usize,
    /// Raw pointer to the node whose `.link` holds (held) this object; lets
    /// helpers that discover the link through a descriptor find the edge.
    home: usize,
    _pd: PhantomData<fn() -> V>,
}

impl<V> Link<V> {
    fn plain(succ: usize, marked: bool) -> Self {
        Link {
            succ,
            marked,
            desc: 0,
            home: 0,
            _pd: PhantomData,
        }
    }
}

/// The value lives behind an atomic pointer (null in sentinels). Presence
/// stays the descriptor/link protocol (unchanged); the unique successful
/// remover **claims** the box (swap to null) after its operation concluded,
/// and a compound RMW replaces a clean node's value with one CAS on
/// `value`, linearizing there — a replace that lands before the remover's
/// claim linearizes immediately before the remove, which then returns the
/// replaced-in value. Compound RMWs on this structure are therefore
/// lock-free rather than wait-free (no helping for the value CAS); the
/// basic vocabulary keeps its wait-free helping protocol.
struct Node<V> {
    key: u64,
    value: Atomic<V>,
    link: Atomic<Link<V>>,
}

impl<V> Drop for Node<V> {
    fn drop(&mut self) {
        let raw = self.value.load_raw();
        if raw != 0 {
            // SAFETY: dropping a node owns its current value box; claimed
            // or replaced boxes were nulled/swapped out and retired
            // separately.
            unsafe { drop(Box::from_raw(raw as *mut V)) };
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Insert,
    Remove,
}

/// An announced operation.
struct OpDesc<V> {
    phase: u64,
    kind: OpKind,
    key: u64, // internal key
    /// Insert: the preallocated node to link. Remove: 0.
    node: usize,
    /// Insert: the initial (`succ == 0`) link object of `node`, used as the
    /// expected value when completion initializes the node's successor.
    init_link: usize,
    state: AtomicUsize,
    _pd: PhantomData<fn() -> V>,
}

thread_local! {
    static SLOT_ID: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % MAX_SLOTS
    };
}

/// Wait-free sorted list. See the module docs.
pub struct WaitFreeList<V> {
    head: Atomic<Node<V>>,
    phase: AtomicU64,
    slots: Vec<Atomic<OpDesc<V>>>,
}

/// The `(pred, pred_link, curr, curr_link)` window returned by `search`:
/// both links clean (unmarked, unflagged) at read time.
struct Window<'g, V> {
    pred: Shared<'g, Node<V>>,
    pred_link: Shared<'g, Link<V>>,
    curr: Shared<'g, Node<V>>,
    curr_link: Shared<'g, Link<V>>,
}

impl<V: Clone + Send + Sync> Default for WaitFreeList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Send + Sync> WaitFreeList<V> {
    /// Empty list.
    pub fn new() -> Self {
        let tail = Shared::boxed(Node {
            key: TAIL_IKEY,
            value: Atomic::null(),
            link: Atomic::new(Link::<V>::plain(0, false)),
        });
        let head = Node {
            key: HEAD_IKEY,
            value: Atomic::null(),
            link: Atomic::new(Link::<V>::plain(tail.as_raw(), false)),
        };
        WaitFreeList {
            head: Atomic::new(head),
            phase: AtomicU64::new(0),
            slots: (0..MAX_SLOTS).map(|_| Atomic::null()).collect(),
        }
    }

    // ------------------------------------------------------------------
    // Link resolution (claim / complete / rollback)
    // ------------------------------------------------------------------

    /// Resolve a link that carries a descriptor: help the operation to its
    /// conclusion and detach the descriptor from the edge.
    fn resolve_link<'g>(
        &self,
        home: Shared<'g, Node<V>>,
        link: Shared<'g, Link<V>>,
        guard: &'g Guard,
    ) {
        // SAFETY: links reachable under pin are live; descriptors referenced
        // by unresolved links are live for the same reason (see module docs
        // for the pinned-completer argument).
        let l = unsafe { link.deref() };
        debug_assert!(l.desc != 0);
        let desc_s = unsafe { Shared::<OpDesc<V>>::from_raw(l.desc) };
        let d = unsafe { desc_s.deref() };
        match d.kind {
            OpKind::Insert => loop {
                match d.state.load(Ordering::Acquire) {
                    PENDING => {
                        let _ = d.state.compare_exchange(
                            PENDING,
                            link.as_raw(),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        continue; // re-read the state
                    }
                    s if s == link.as_raw() => {
                        self.complete_insert_claim(d, link, guard);
                        return;
                    }
                    _ => {
                        // This flag lost (another claim won, or the op
                        // concluded): roll the edge back.
                        let fresh = Shared::boxed(Link::plain(l.succ, false));
                        let home_node = unsafe { home.deref() };
                        match home_node.link.compare_exchange(link, fresh, guard) {
                            // SAFETY: `link` unlinked by us, retired once.
                            Ok(_) => unsafe { guard.defer_drop(link) },
                            // SAFETY: `fresh` never published.
                            Err(_) => unsafe { drop(fresh.into_box()) },
                        }
                        return;
                    }
                }
            },
            OpKind::Remove => loop {
                match d.state.load(Ordering::Acquire) {
                    PENDING => {
                        let _ = d.state.compare_exchange(
                            PENDING,
                            home.as_raw(),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        continue;
                    }
                    s if s == home.as_raw() => {
                        // The tentative mark is definitive: normalize it to a
                        // final (descriptor-free) mark.
                        let fresh = Shared::boxed(Link::plain(l.succ, true));
                        let home_node = unsafe { home.deref() };
                        match home_node.link.compare_exchange(link, fresh, guard) {
                            // SAFETY: unlinked by us, retired once.
                            Ok(_) => unsafe { guard.defer_drop(link) },
                            // SAFETY: never published.
                            Err(_) => unsafe { drop(fresh.into_box()) },
                        }
                        return;
                    }
                    _ => {
                        // The descriptor concluded on another node (or
                        // failed): this tentative mark must be undone.
                        let fresh = Shared::boxed(Link::plain(l.succ, false));
                        let home_node = unsafe { home.deref() };
                        match home_node.link.compare_exchange(link, fresh, guard) {
                            // SAFETY: unlinked by us, retired once.
                            Ok(_) => unsafe { guard.defer_drop(link) },
                            // SAFETY: never published.
                            Err(_) => unsafe { drop(fresh.into_box()) },
                        }
                        return;
                    }
                }
            },
        }
    }

    /// Complete a claimed insert: initialize the new node's successor, swing
    /// the flagged edge to the new node, finalize the descriptor.
    fn complete_insert_claim<'g>(
        &self,
        d: &OpDesc<V>,
        flag: Shared<'g, Link<V>>,
        guard: &'g Guard,
    ) {
        // SAFETY: flag links referenced by a live claimed state are
        // protected (their retirer is still pinned until the state CAS).
        let f = unsafe { flag.deref() };
        let new_s = unsafe { Shared::<Node<V>>::from_raw(d.node) };
        let new_node = unsafe { new_s.deref() };

        // (a) point the new node at the claimed successor (exactly once:
        // the expected value is the unique initial link).
        let cur_link = new_node.link.load(guard);
        if cur_link.as_raw() == d.init_link {
            let fresh = Shared::boxed(Link::plain(f.succ, false));
            match new_node.link.compare_exchange(cur_link, fresh, guard) {
                // SAFETY: the init link is unlinked by us, retired once.
                Ok(_) => unsafe { guard.defer_drop(cur_link) },
                // SAFETY: never published.
                Err(_) => unsafe { drop(fresh.into_box()) },
            }
        }

        // (b) swing the flagged edge to the new node.
        let home_s = unsafe { Shared::<Node<V>>::from_raw(f.home) };
        let home_node = unsafe { home_s.deref() };
        let fresh = Shared::boxed(Link::plain(d.node, false));
        match home_node.link.compare_exchange(flag, fresh, guard) {
            // SAFETY: the flag is unlinked by us, retired once.
            Ok(_) => unsafe { guard.defer_drop(flag) },
            // SAFETY: never published.
            Err(_) => unsafe { drop(fresh.into_box()) },
        }

        // (c) finalize.
        let _ =
            d.state
                .compare_exchange(flag.as_raw(), SUCCESS, Ordering::AcqRel, Ordering::Acquire);
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Find the clean window for `ikey`, resolving in-flight operations and
    /// unlinking finally-marked nodes on the way.
    fn search<'g>(&self, ikey: u64, guard: &'g Guard) -> Window<'g, V> {
        'retry: loop {
            let mut pred = self.head.load(guard);
            // SAFETY: head never retired.
            let mut pred_link = unsafe { pred.deref() }.link.load(guard);
            {
                // SAFETY: pinned.
                let pl = unsafe { pred_link.deref() };
                if pl.desc != 0 {
                    self.resolve_link(pred, pred_link, guard);
                    continue 'retry;
                }
            }
            loop {
                // SAFETY: pinned traversal; links are live objects.
                let pl = unsafe { pred_link.deref() };
                let curr = unsafe { Shared::<Node<V>>::from_raw(pl.succ) };
                let c = unsafe { curr.deref() };
                let curr_link = c.link.load(guard);
                let cl = unsafe { curr_link.deref() };
                if cl.desc != 0 {
                    self.resolve_link(curr, curr_link, guard);
                    continue 'retry;
                }
                if cl.marked {
                    // Final mark: physically unlink `curr`.
                    let fresh = Shared::boxed(Link::plain(cl.succ, false));
                    let p = unsafe { pred.deref() };
                    match p.link.compare_exchange(pred_link, fresh, guard) {
                        Ok(_) => {
                            // SAFETY: we unlinked the edge: the old pred
                            // link, the node and its final link are all
                            // unreachable; each retired exactly once here.
                            unsafe {
                                guard.defer_drop(pred_link);
                                guard.defer_drop(curr_link);
                                guard.defer_drop(curr);
                            }
                            pred_link = fresh;
                            continue;
                        }
                        Err(_) => {
                            csds_metrics::restart();
                            continue 'retry;
                        }
                    }
                }
                if c.key >= ikey {
                    return Window {
                        pred,
                        pred_link,
                        curr,
                        curr_link,
                    };
                }
                pred = curr;
                pred_link = curr_link;
            }
        }
    }

    // ------------------------------------------------------------------
    // Helping
    // ------------------------------------------------------------------

    fn help_insert<'g>(&self, desc_s: Shared<'g, OpDesc<V>>, guard: &'g Guard) {
        // SAFETY: descriptors in slots / claimed links are live under pin.
        let d = unsafe { desc_s.deref() };
        loop {
            match d.state.load(Ordering::Acquire) {
                FAILURE | SUCCESS => return,
                PENDING => {
                    let w = self.search(d.key, guard);
                    // SAFETY: pinned.
                    let c = unsafe { w.curr.deref() };
                    if w.curr.as_raw() == d.node {
                        // Already linked by a completed claim we raced with.
                        let _ = d.state.compare_exchange(
                            PENDING,
                            SUCCESS,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        continue;
                    }
                    if c.key == d.key {
                        // An unmarked node with this key exists (state is
                        // still PENDING, so it is not ours: while PENDING the
                        // new node has never been linked).
                        let _ = d.state.compare_exchange(
                            PENDING,
                            FAILURE,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        continue;
                    }
                    // Claim attempt: flag the edge with the descriptor.
                    let flag = Shared::boxed(Link {
                        succ: w.curr.as_raw(),
                        marked: false,
                        desc: desc_s.as_raw(),
                        home: w.pred.as_raw(),
                        _pd: PhantomData,
                    });
                    // SAFETY: pinned.
                    let p = unsafe { w.pred.deref() };
                    match p.link.compare_exchange(w.pred_link, flag, guard) {
                        Ok(_) => {
                            // SAFETY: old edge link consumed, retired once.
                            unsafe { guard.defer_drop(w.pred_link) };
                            if d.state
                                .compare_exchange(
                                    PENDING,
                                    flag.as_raw(),
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_ok()
                            {
                                self.complete_insert_claim(d, flag, guard);
                            } else {
                                // Someone decided otherwise; resolve our flag
                                // (completes if the claim is ours after all,
                                // rolls back otherwise).
                                self.resolve_link(w.pred, flag, guard);
                            }
                            continue;
                        }
                        Err(_) => {
                            // SAFETY: never published.
                            unsafe { drop(flag.into_box()) };
                            csds_metrics::restart();
                            continue;
                        }
                    }
                }
                claimed => {
                    // SAFETY: claimed flag links are protected (see module
                    // docs: the retiring completer is still pinned).
                    let flag = unsafe { Shared::<Link<V>>::from_raw(claimed) };
                    self.complete_insert_claim(d, flag, guard);
                }
            }
        }
    }

    fn help_remove<'g>(&self, desc_s: Shared<'g, OpDesc<V>>, guard: &'g Guard) {
        // SAFETY: see help_insert.
        let d = unsafe { desc_s.deref() };
        loop {
            match d.state.load(Ordering::Acquire) {
                FAILURE => return,
                s if s >= PTR_STATES => {
                    // Success on node `s`: make sure the tentative mark has
                    // been normalized before reporting completion.
                    let node_s = unsafe { Shared::<Node<V>>::from_raw(s) };
                    let node = unsafe { node_s.deref() };
                    let link = node.link.load(guard);
                    let l = unsafe { link.deref() };
                    if l.desc == desc_s.as_raw() {
                        self.resolve_link(node_s, link, guard);
                    }
                    return;
                }
                _pending => {
                    let w = self.search(d.key, guard);
                    // SAFETY: pinned.
                    let c = unsafe { w.curr.deref() };
                    if c.key != d.key {
                        let _ = d.state.compare_exchange(
                            PENDING,
                            FAILURE,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        continue;
                    }
                    // Tentative mark carrying the descriptor.
                    let cl = unsafe { w.curr_link.deref() };
                    let mark = Shared::boxed(Link {
                        succ: cl.succ,
                        marked: true,
                        desc: desc_s.as_raw(),
                        home: w.curr.as_raw(),
                        _pd: PhantomData,
                    });
                    match c.link.compare_exchange(w.curr_link, mark, guard) {
                        Ok(_) => {
                            // SAFETY: old link consumed, retired once.
                            unsafe { guard.defer_drop(w.curr_link) };
                            let _ = d.state.compare_exchange(
                                PENDING,
                                w.curr.as_raw(),
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            );
                            // Normalize or roll back according to the state.
                            self.resolve_link(w.curr, mark, guard);
                            continue;
                        }
                        Err(_) => {
                            // SAFETY: never published.
                            unsafe { drop(mark.into_box()) };
                            csds_metrics::restart();
                            continue;
                        }
                    }
                }
            }
        }
    }

    /// Help every announced operation whose phase is at most `my_phase`.
    fn help_others(&self, my_phase: u64, guard: &Guard) {
        for slot in &self.slots {
            let desc_s = slot.load(guard);
            if desc_s.is_null() {
                continue;
            }
            // SAFETY: descriptors are retired only after being removed from
            // their slot; loading under pin keeps them live.
            let d = unsafe { desc_s.deref() };
            if d.phase > my_phase {
                continue;
            }
            match d.kind {
                OpKind::Insert => self.help_insert(desc_s, guard),
                OpKind::Remove => self.help_remove(desc_s, guard),
            }
        }
    }

    /// Announce `desc` (already allocated), help lower phases, run it to
    /// completion, then retract and retire the descriptor. Returns the final
    /// state value.
    fn run_op<'g>(&self, desc_s: Shared<'g, OpDesc<V>>, guard: &'g Guard) -> usize {
        // SAFETY: we own desc until retirement.
        let d = unsafe { desc_s.deref() };
        let slot = &self.slots[SLOT_ID.with(|s| *s)];
        let previous = slot.swap(desc_s, guard);
        // `previous` (if any) belonged to a completed op of a slot-sharing
        // thread; that owner retains ownership and retires it — not us.
        let _ = previous;
        self.help_others(d.phase, guard);
        match d.kind {
            OpKind::Insert => self.help_insert(desc_s, guard),
            OpKind::Remove => self.help_remove(desc_s, guard),
        }
        let state = d.state.load(Ordering::Acquire);
        debug_assert_ne!(state, PENDING);
        // Retract the announcement (tolerate a slot-sharing overwrite).
        let _ = slot.compare_exchange(desc_s, Shared::null(), guard);
        state
    }

    fn new_phase(&self) -> u64 {
        self.phase.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Snapshot of present user keys (racy but safe; for tests).
    pub fn keys(&self) -> Vec<u64> {
        let guard = pin();
        let mut out = Vec::new();
        // SAFETY: pinned read-only traversal.
        unsafe {
            let mut link = self.head.load(&guard).deref().link.load(&guard);
            loop {
                let l = link.deref();
                let node_s = Shared::<Node<V>>::from_raw(l.succ);
                let node = node_s.deref();
                if node.key == TAIL_IKEY {
                    return out;
                }
                let nl_s = node.link.load(&guard);
                let nl = nl_s.deref();
                if !Self::link_says_deleted(node_s, nl) {
                    out.push(key::ukey(node.key));
                }
                link = nl_s;
            }
        }
    }

    /// Whether `link` marks its home node as (linearizably) deleted.
    /// A tentative mark counts only once its descriptor has committed to
    /// this node.
    fn link_says_deleted(node: Shared<'_, Node<V>>, l: &Link<V>) -> bool {
        if !l.marked {
            return false;
        }
        if l.desc == 0 {
            return true;
        }
        // SAFETY: unresolved descriptors are live under pin.
        let d = unsafe { Shared::<OpDesc<V>>::from_raw(l.desc).deref() };
        d.state.load(Ordering::Acquire) == node.as_raw()
    }

    /// Insert machinery shared by [`insert_in`](Self::insert_in) and
    /// [`rmw_in`](Self::rmw_in): announce, help, run. Returns a reference
    /// to the published value box on success; `None` (value dropped) when
    /// the key was present.
    fn insert_op<'g>(&'g self, ikey: u64, value: V, guard: &'g Guard) -> Option<&'g V> {
        let init_link = Shared::boxed(Link::<V>::plain(0, false));
        let node = Shared::boxed(Node {
            key: ikey,
            value: Atomic::new(value),
            link: Atomic::null(),
        });
        // Capture the box before publication: after a successful insert a
        // racing remove may claim (null) the pointer, but our pin predates
        // the publish, so the box itself stays alive for 'g.
        // SAFETY: unpublished, exclusive.
        let vraw = unsafe { node.deref() }.value.load(guard);
        // SAFETY: unpublished.
        unsafe { node.deref() }.link.store(init_link);
        let desc = Shared::boxed(OpDesc::<V> {
            phase: self.new_phase(),
            kind: OpKind::Insert,
            key: ikey,
            node: node.as_raw(),
            init_link: init_link.as_raw(),
            state: AtomicUsize::new(PENDING),
            _pd: PhantomData,
        });
        let state = self.run_op(desc, guard);
        // SAFETY: the descriptor left the announce slot; helpers may still
        // hold pinned references — retire, don't free.
        unsafe { guard.defer_drop(desc) };
        if state == SUCCESS {
            // SAFETY: published under our pin (see `vraw` above).
            Some(unsafe { vraw.deref() })
        } else {
            // Never linked (state PENDING ⇒ unlinked; FAILURE is only
            // reachable from PENDING): we own node + its init link.
            // SAFETY: unreachable from the structure; retired once
            // (Node::drop frees the value box).
            unsafe {
                guard.defer_drop(node);
                guard.defer_drop(init_link);
            }
            None
        }
    }
}

impl<V: Clone + Send + Sync> GuardedMap<V> for WaitFreeList<V> {
    /// Guard-scoped `get`: clone-free reference valid for `'g`.
    fn get_in<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        let ikey = key::ikey(key);
        // Store-free traversal: node → link → node, skipping deleted nodes;
        // never helps, never restarts.
        // SAFETY: pinned read-only traversal.
        unsafe {
            let mut link = self.head.load(guard).deref().link.load(guard);
            loop {
                let l = link.deref();
                let node_s = Shared::<Node<V>>::from_raw(l.succ);
                let node = node_s.deref();
                if node.key >= ikey {
                    if node.key != ikey {
                        return None;
                    }
                    let nl = node.link.load(guard);
                    return if Self::link_says_deleted(node_s, nl.deref()) {
                        None
                    } else {
                        // Null: a racing remove (committed after our link
                        // check) already claimed the value — absent.
                        node.value.load(guard).as_ref()
                    };
                }
                link = node.link.load(guard);
            }
        }
    }

    /// Guard-scoped `insert`.
    fn insert_in(&self, key: u64, value: V, guard: &Guard) -> bool {
        self.insert_op(key::ikey(key), value, guard).is_some()
    }

    /// Guard-scoped `remove`.
    fn remove_in(&self, key: u64, guard: &Guard) -> Option<V> {
        let ikey = key::ikey(key);
        let desc = Shared::boxed(OpDesc::<V> {
            phase: self.new_phase(),
            kind: OpKind::Remove,
            key: ikey,
            node: 0,
            init_link: 0,
            state: AtomicUsize::new(PENDING),
            _pd: PhantomData,
        });
        let state = self.run_op(desc, guard);
        // SAFETY: see insert.
        unsafe { guard.defer_drop(desc) };
        if state >= PTR_STATES {
            // SAFETY: the removed node is retired by whichever search
            // physically unlinks it, and we are pinned since before the
            // mark, so the reference is live.
            let node = unsafe { Shared::<Node<V>>::from_raw(state).deref() };
            // Claim the value: exactly one remove descriptor can conclude
            // successfully on a node, so this op is the unique claimer. A
            // replace whose value CAS landed before this claim linearized
            // immediately before us — we return the value it installed.
            let vptr = node.value.swap(Shared::null(), guard);
            debug_assert!(!vptr.is_null(), "unique successful remover claims once");
            // SAFETY: claimed under pin.
            let out = Some(unsafe { vptr.deref() }.clone());
            // SAFETY: unlinked from the node by the claim; retired once.
            unsafe { guard.defer_drop(vptr) };
            out
        } else {
            None
        }
    }

    /// Guard-scoped element count (O(n); quiescently consistent).
    fn len_in(&self, guard: &Guard) -> usize {
        let mut n = 0;
        // SAFETY: pinned read-only traversal (same shape as `keys`).
        unsafe {
            let mut link = self.head.load(guard).deref().link.load(guard);
            loop {
                let l = link.deref();
                let node_s = Shared::<Node<V>>::from_raw(l.succ);
                let node = node_s.deref();
                if node.key == TAIL_IKEY {
                    return n;
                }
                let nl_s = node.link.load(guard);
                if !Self::link_says_deleted(node_s, nl_s.deref()) {
                    n += 1;
                }
                link = nl_s;
            }
        }
    }

    /// Guard-scoped atomic closure RMW; the native override behind
    /// [`GuardedMap::rmw_in`] — value-pointer replacement (see `Node`).
    /// **Linearization point: the successful CAS on the node's `value`
    /// pointer** for a present key, the descriptor-state commit of the
    /// underlying insert for an absent one, the `value` load for read-only
    /// decisions. Lock-free (the value CAS is not helped); the basic
    /// vocabulary retains its wait-free protocol.
    fn rmw_in<'g>(&'g self, key: u64, f: RmwFn<'_, V>, guard: &'g Guard) -> RmwOutcome<'g, V> {
        let ikey = key::ikey(key);
        loop {
            let w = self.search(ikey, guard);
            // SAFETY: pinned.
            let c = unsafe { w.curr.deref() };
            if c.key == ikey {
                let vptr = c.value.load(guard);
                if vptr.is_null() {
                    // A remove concluded and claimed between the window
                    // observation and this load; re-parse (the search will
                    // resolve and unlink the node).
                    csds_metrics::restart();
                    continue;
                }
                // SAFETY: value boxes are EBR-retired; pinned.
                let current = unsafe { vptr.deref() };
                let Some(new_value) = f(Some(current)) else {
                    return RmwOutcome {
                        prev: Some(current.clone()),
                        cur: Some(current),
                        applied: false,
                    };
                };
                let new_b = Shared::boxed(new_value);
                match c.value.compare_exchange(vptr, new_b, guard) {
                    Ok(_) => {
                        let prev = Some(current.clone());
                        // SAFETY: swapped out by our CAS; retired once.
                        unsafe { guard.defer_drop(vptr) };
                        // SAFETY: published; pinned.
                        let cur = Some(unsafe { new_b.deref() });
                        return RmwOutcome {
                            prev,
                            cur,
                            applied: true,
                        };
                    }
                    Err(_) => {
                        // SAFETY: never published.
                        unsafe { drop(new_b.into_box()) };
                        csds_metrics::restart();
                        continue;
                    }
                }
            }
            // Absent.
            let Some(new_value) = f(None) else {
                return RmwOutcome {
                    prev: None,
                    cur: None,
                    applied: false,
                };
            };
            match self.insert_op(ikey, new_value, guard) {
                Some(cur) => {
                    return RmwOutcome {
                        prev: None,
                        cur: Some(cur),
                        applied: true,
                    };
                }
                None => {
                    // The key appeared underneath us; re-run the closure.
                    csds_metrics::restart();
                    continue;
                }
            }
        }
    }

    fn is_empty_in(&self, guard: &Guard) -> bool {
        // Early-exit walk: stops at the first live node.
        // SAFETY: pinned read-only traversal (same shape as `len_in`).
        unsafe {
            let mut link = self.head.load(guard).deref().link.load(guard);
            loop {
                let l = link.deref();
                let node_s = Shared::<Node<V>>::from_raw(l.succ);
                let node = node_s.deref();
                if node.key == TAIL_IKEY {
                    return true;
                }
                let nl_s = node.link.load(guard);
                if !Self::link_says_deleted(node_s, nl_s.deref()) {
                    return false;
                }
                link = nl_s;
            }
        }
    }
}

impl<V> Drop for WaitFreeList<V> {
    fn drop(&mut self) {
        // Exclusive access: free every node and its current link object.
        let mut node_raw = self.head.load_raw();
        while node_raw != 0 {
            // SAFETY: &mut self; every node/link was Box-allocated; retired
            // (unlinked) objects are owned by EBR, not reachable here.
            unsafe {
                let node = Box::from_raw(node_raw as *mut Node<V>);
                let link_raw = node.link.load_raw();
                if link_raw != 0 {
                    let link = Box::from_raw(link_raw as *mut Link<V>);
                    node_raw = link.succ;
                } else {
                    node_raw = 0;
                }
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
        let l = WaitFreeList::new();
        assert!(l.insert(5, 50));
        assert!(!l.insert(5, 51));
        assert_eq!(l.get(5), Some(50));
        assert!(l.insert(1, 10));
        assert!(l.insert(9, 90));
        assert_eq!(l.keys(), vec![1, 5, 9]);
        assert_eq!(l.remove(5), Some(50));
        assert_eq!(l.remove(5), None);
        assert_eq!(l.get(5), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn sequential_model() {
        testutil::sequential_model_check(WaitFreeList::new(), 3_000, 48);
    }

    #[test]
    fn concurrent_net_effect() {
        testutil::concurrent_net_effect(Arc::new(WaitFreeList::new()), 4, 3_000, 24);
    }

    #[test]
    fn same_key_hammering() {
        let l = Arc::new(WaitFreeList::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                const ITERS: u64 = if cfg!(miri) { 100 } else { 2_000 };
                for i in 0..ITERS {
                    if (i + t) % 2 == 0 {
                        l.insert(3, i);
                    } else {
                        l.remove(3);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let present = l.get(3).is_some();
        assert_eq!(l.len(), usize::from(present));
    }

    #[test]
    fn traversal_is_interposed() {
        // White-box: the wait-free list really does interpose a link object
        // between nodes (Figure 2), visible as one extra allocation per
        // element; here we just verify structural integrity after updates.
        let l = WaitFreeList::new();
        for k in (0..64).rev() {
            assert!(l.insert(k, k * 2));
        }
        for k in 0..64 {
            assert_eq!(l.get(k), Some(k * 2));
        }
        let keys = l.keys();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "list must stay sorted");
        assert_eq!(keys.len(), 64);
    }

    #[test]
    fn reads_never_help_or_store() {
        let _ = csds_metrics::take_and_reset();
        let l = WaitFreeList::new();
        for k in 0..32 {
            l.insert(k, k);
        }
        let _ = csds_metrics::take_and_reset();
        for k in 0..32 {
            assert_eq!(l.get(k), Some(k));
        }
        let snap = csds_metrics::take_and_reset();
        assert_eq!(snap.restarts, 0);
        assert_eq!(snap.lock_acquires, 0);
    }
}
