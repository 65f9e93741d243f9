//! A lock-free oneshot channel: one value, one [`Sender`], one
//! [`Receiver`] that is a standard [`Future`] — the completion half of a
//! `csds_service` request.
//!
//! The channel is one heap cell: an atomic state word beside two plain
//! cells, the value and the receiver's waker. There is no reference count.
//! Whichever half touches the cell last frees it, and the state word says
//! who that is:
//!
//! | state       | value cell                  | waker cell           | who frees the cell |
//! |-------------|-----------------------------|----------------------|--------------------|
//! | `EMPTY`     | sender's, not written       | receiver's           | —                  |
//! | `WAITING`   | sender's, not written       | holds a waker; whoever moves `WAITING` out owns it | — |
//! | `UNPARKING` | sender's                    | sender's (it takes the waker) | —         |
//! | `READY`     | written; receiver's         | receiver's           | the receiver, when it takes the value or goes away |
//! | `CLOSED`    | never written               | receiver's           | the receiver, when it reads `Closed` or goes away  |
//! | `RX_GONE`   | sender's                    | left behind, dropped with the cell | the sender, when it sends or goes away |
//!
//! * The **sender** finishes once. It CASes `EMPTY → READY` (value written
//!   first) or, dropped unsent, `EMPTY → CLOSED`. If it finds `WAITING` it
//!   moves `WAITING → UNPARKING`, takes the waker, stores the outcome and
//!   only then wakes, from its own copy of the waker: the store that
//!   publishes the outcome is its last touch of the cell. If it finds
//!   `RX_GONE` it drops the value and frees the cell.
//! * The **receiver** polls. A `READY` or `CLOSED` it reads (Acquire) ends
//!   the channel: it moves the value out and frees the cell, with no
//!   further write to the state word. Otherwise it stores its waker while
//!   the state is `EMPTY` and publishes it with `EMPTY → WAITING`; a
//!   re-poll first takes the cell back with `WAITING → EMPTY`. A receiver
//!   dropped early CASes `EMPTY`/`WAITING → RX_GONE` and leaves the cell to
//!   the sender.
//!
//! A receiver that reads `UNPARKING` (a re-poll or a drop racing the
//! wake-up) waits it out with [`Backoff`]. The wait is bounded: between its
//! CAS into `UNPARKING` and its store out of it the sender moves one
//! pointer out of the waker cell — no loop, no lock, no allocation — so
//! only a descheduled sender makes it last longer than those few
//! instructions, which is what `Backoff`'s escalation to `yield_now` is
//! for. `try_recv` does not wait: `UNPARKING` is "not yet".
//!
//! Every RMW is `AcqRel` with an `Acquire` failure ordering, probing loads
//! are `Acquire`, and the sender's publishing store is `Release`: the
//! outcome's Release publishes the value (and the end of the sender's
//! accesses) to the receiver's Acquire read, the receiver's Release CASes
//! hand the waker, or the whole cell, to the sender's Acquire.
//!
//! Per hand-off that is one RMW by each side in the common case (`EMPTY →
//! READY` against the receiver's `EMPTY → WAITING`, or a single RMW when
//! the reply is there before the first poll), no lock and no reference
//! count. Freed cells go to a bounded per-thread pool keyed by the cell's
//! layout, so a thread that keeps receiving keeps reusing the cells it
//! freed instead of calling the allocator. A cell is aligned to a 64-byte
//! line ([`cell_size`] is whole lines), so a sender publishing into one
//! cell does not invalidate the line a receiver is reading another from.
//!
//! Both halves run under `csds_modelcheck` through the atomic seam
//! (`crates/modelcheck/tests/oneshot.rs`). Built with the `modelcheck`
//! feature, a free writes a poison value into the state word (asserting
//! it was not there yet), and every read of the state word asserts that it
//! does not see it. Each side reads the state word before it touches a
//! plain cell (only the sender's write of the value comes first, and no
//! free can precede that), so a touch after the free shows up as one.

use crate::atomic::{AtomicU32, Ordering};
use crate::Backoff;
use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::future::Future;
use std::mem::MaybeUninit;
use std::pin::Pin;
use std::ptr::NonNull;
use std::task::{Context, Poll, Waker};

const EMPTY: u32 = 0;
const WAITING: u32 = 1;
const UNPARKING: u32 = 2;
const READY: u32 = 3;
const CLOSED: u32 = 4;
const RX_GONE: u32 = 5;
/// Written into the state word by a free, in model-checked builds only.
#[cfg(feature = "modelcheck")]
const POISON: u32 = 0xDEAD_CE11;

/// Line-aligned, so a cell is whole cache lines and shares none with its
/// neighbours: a worker that publishes one reply does not invalidate the
/// line a client is reading the previous reply from. The pool is keyed by
/// layout, so the padding costs nothing per hand-off.
#[repr(align(64))]
struct Cell<T> {
    state: AtomicU32,
    value: UnsafeCell<MaybeUninit<T>>,
    waker: UnsafeCell<Option<Waker>>,
}

impl<T> Cell<T> {
    /// A fresh `EMPTY` cell, from this thread's pool if it holds one.
    fn alloc() -> NonNull<Cell<T>> {
        let layout = Layout::new::<Cell<T>>();
        let raw = pool::take(layout).unwrap_or_else(|| {
            // SAFETY: the layout is never zero-sized (it holds the state
            // word and a waker).
            NonNull::new(unsafe { std::alloc::alloc(layout) })
                .unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
        });
        let cell = raw.cast::<Cell<T>>();
        // SAFETY: `raw` is unused memory of `Cell<T>`'s layout.
        unsafe {
            cell.as_ptr().write(Cell {
                state: AtomicU32::new(EMPTY),
                value: UnsafeCell::new(MaybeUninit::uninit()),
                waker: UnsafeCell::new(None),
            })
        };
        cell
    }

    /// Free the cell: drop a waker left in it, then hand the memory to this
    /// thread's pool. The value must already be moved out or dropped.
    ///
    /// # Safety
    /// The caller is the last party to touch the cell, and does not touch it
    /// again.
    unsafe fn free(cell: NonNull<Cell<T>>) {
        #[cfg(feature = "modelcheck")]
        assert_ne!(
            cell.as_ref().state.swap(POISON, Ordering::Relaxed),
            POISON,
            "oneshot cell freed twice"
        );
        // Outside the pool's borrow: a waker's destructor is arbitrary code.
        std::ptr::drop_in_place(cell.as_ref().waker.get());
        pool::give(cell.cast(), Layout::new::<Cell<T>>());
    }

    /// A state read, asserted against the poison of a free in model-checked
    /// builds.
    #[inline]
    fn checked(state: u32) -> u32 {
        #[cfg(feature = "modelcheck")]
        assert_ne!(state, POISON, "oneshot cell touched after its free");
        state
    }

    /// The sender's one transition to `outcome` (`READY` with the value
    /// already written, or `CLOSED`), waking a registered receiver.
    ///
    /// # Safety
    /// Called once per cell, by its sender, which does not touch the cell
    /// afterwards.
    unsafe fn finish(cell: NonNull<Cell<T>>, outcome: u32) {
        let ch = cell.as_ref();
        // The `oneshot.publish_before_take` model knob re-orders this
        // function into the bug `UNPARKING` exists to avoid — publishing
        // the outcome before taking the waker — so the oneshot model can
        // show that it catches the receiver freeing the cell under the
        // sender (see crates/modelcheck/tests/oneshot.rs). The model that
        // flips it never drops its receiver early, so `RX_GONE` is not
        // handled here.
        #[cfg(feature = "modelcheck")]
        if csds_modelcheck::model_config_u64("oneshot.publish_before_take") == Some(1) {
            if ch.state.swap(outcome, Ordering::AcqRel) == WAITING {
                // SAFETY: none — this is the seeded race. Model threads run
                // one at a time and a freed cell stays in its freeing
                // thread's pool, so inside the checker the touch below is
                // a logic bug only, which the poison check reports.
                Self::checked(ch.state.load(Ordering::Relaxed));
                if let Some(w) = (*ch.waker.get()).take() {
                    w.wake();
                }
            }
            return;
        }
        let mut state = EMPTY;
        loop {
            let next = if state == WAITING { UNPARKING } else { outcome };
            match ch
                .state
                .compare_exchange(state, next, Ordering::AcqRel, Ordering::Acquire)
            {
                // Published; the receiver frees the cell.
                Ok(EMPTY) => return,
                Ok(_) => {
                    // SAFETY: `WAITING` was published by the receiver's
                    // Release CAS after it wrote the cell, and this CAS's
                    // Acquire half saw it. Having moved `WAITING` out, this
                    // thread owns the cell until the store below.
                    let waker = (*ch.waker.get()).take();
                    ch.state.store(outcome, Ordering::Release);
                    if let Some(w) = waker {
                        w.wake();
                    }
                    return;
                }
                Err(RX_GONE) => {
                    if outcome == READY {
                        // SAFETY: the sender wrote the value and nobody
                        // else reads it once the receiver is gone.
                        (*ch.value.get()).assume_init_drop();
                    }
                    Self::free(cell);
                    return;
                }
                // The receiver registered, or took its waker back, since
                // the last look.
                Err(s @ (EMPTY | WAITING)) => state = s,
                Err(s) => unreachable!("oneshot sender found state {}", Self::checked(s)),
            }
        }
    }
}

/// The bytes one channel of `T` occupies: its cell, a whole number of
/// 64-byte lines.
pub const fn cell_size<T>() -> usize {
    std::mem::size_of::<Cell<T>>()
}

/// A connected sender/receiver pair.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let cell = Cell::alloc();
    (Sender { cell: Some(cell) }, Receiver { cell: Some(cell) })
}

/// The sending half was dropped without sending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Closed;

/// The sending half. One pointer wide (`None` once sent), so it travels
/// inside a queue element cheaply. Dropping it unsent resolves the receiver
/// to [`Closed`] instead of stranding it.
pub struct Sender<T> {
    cell: Option<NonNull<Cell<T>>>,
}

// SAFETY: the value moves from the sender's thread to the receiver's (or is
// dropped on whichever thread frees the cell), so T must be Send; `Waker` is
// Send + Sync. Access to the cell is serialized by its state word as the
// module docs lay out, and a `&Sender` gives access to nothing.
unsafe impl<T: Send> Send for Sender<T> {}
unsafe impl<T: Send> Sync for Sender<T> {}

impl<T> Sender<T> {
    /// Deliver `value` and wake the receiver if it is waiting. A value sent
    /// to a receiver that is already gone is dropped here.
    pub fn send(mut self, value: T) {
        let cell = self
            .cell
            .take()
            .expect("a sender keeps its cell until it is consumed");
        // SAFETY: the value cell is the sender's until its outcome is
        // published, and this is the only write: `send` consumes the
        // sender. The cell is live: only the sender frees it before then.
        unsafe {
            (*cell.as_ref().value.get()).write(value);
            Cell::finish(cell, READY);
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            // SAFETY: an unsent sender has not finished its cell.
            unsafe { Cell::finish(cell, CLOSED) };
        }
    }
}

/// The receiving half: a [`Future`] resolving to the sent value, or to
/// [`Closed`] if the sender was dropped without sending.
#[must_use = "a Receiver does nothing until polled (or probed with try_recv)"]
pub struct Receiver<T> {
    /// `None` once the outcome is taken (and the cell freed).
    cell: Option<NonNull<Cell<T>>>,
}

// SAFETY: as for `Sender`; every method that touches the cell takes
// `&mut self`, except `Debug`, which only loads the state word.
unsafe impl<T: Send> Send for Receiver<T> {}
unsafe impl<T: Send> Sync for Receiver<T> {}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // SAFETY: a receiver that holds its cell has not freed it, and the
        // sender frees it only after the receiver has gone.
        let state = self
            .cell
            .map(|c| Cell::<T>::checked(unsafe { c.as_ref() }.state.load(Ordering::Relaxed)));
        let name = match state {
            None => "taken",
            Some(READY) => "ready",
            Some(CLOSED) => "closed",
            Some(_) => "pending",
        };
        write!(f, "Receiver({name})")
    }
}

impl<T> Receiver<T> {
    /// Non-blocking probe: `Some` once the sender has sent or gone (consumes
    /// the outcome), `None` while it has not — and ever after.
    pub fn try_recv(&mut self) -> Option<Result<T, Closed>> {
        let cell = self.cell?;
        // SAFETY: the receiver's cell is live until the receiver frees it.
        match Cell::<T>::checked(unsafe { cell.as_ref() }.state.load(Ordering::Acquire)) {
            state @ (READY | CLOSED) => Some(self.take(cell, state)),
            _ => None,
        }
    }

    /// Consume the outcome `state` (`READY` or `CLOSED`, just read with
    /// Acquire) and free the cell.
    fn take(&mut self, cell: NonNull<Cell<T>>, state: u32) -> Result<T, Closed> {
        self.cell = None;
        // SAFETY: `READY` was read with Acquire from the sender's Release
        // publication, its last touch of the cell; the value is read once,
        // because the receiver forgets the cell here.
        unsafe {
            let out = match state {
                READY => Ok((*cell.as_ref().value.get()).assume_init_read()),
                _ => Err(Closed),
            };
            Cell::free(cell);
            out
        }
    }
}

impl<T> Future for Receiver<T> {
    type Output = Result<T, Closed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let cell = this
            .cell
            .expect("oneshot Receiver polled after it returned Ready");
        // SAFETY: the receiver's cell is live until the receiver frees it.
        let ch = unsafe { cell.as_ref() };
        let mut backoff = Backoff::new();
        let mut state = ch.state.load(Ordering::Acquire);
        loop {
            state = match Cell::<T>::checked(state) {
                READY | CLOSED => return Poll::Ready(this.take(cell, state)),
                UNPARKING => {
                    // The sender is moving the last registered waker out;
                    // it must be done before this poll's waker replaces it.
                    backoff.snooze();
                    ch.state.load(Ordering::Acquire)
                }
                // A re-poll: take the waker cell back before touching it.
                // If the CAS fails the sender got there first.
                WAITING => match ch.state.compare_exchange(
                    WAITING,
                    EMPTY,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => EMPTY,
                    Err(actual) => actual,
                },
                _ => {
                    // SAFETY: in `EMPTY` the waker cell is the receiver's:
                    // the sender reads it only after moving `WAITING` out,
                    // which is published below, after this write.
                    let slot = unsafe { &mut *ch.waker.get() };
                    match slot {
                        Some(w) => w.clone_from(cx.waker()),
                        None => *slot = Some(cx.waker().clone()),
                    }
                    match ch.state.compare_exchange(
                        EMPTY,
                        WAITING,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return Poll::Pending,
                        // The sender finished between the load and here: it
                        // found `EMPTY`, so it will wake nobody, and the
                        // waker just stored is dropped with the cell.
                        Err(actual) => actual,
                    }
                }
            };
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let Some(cell) = self.cell else { return };
        // SAFETY: the receiver's cell is live until the receiver frees it or
        // hands it to the sender with `RX_GONE`.
        let ch = unsafe { cell.as_ref() };
        let mut backoff = Backoff::new();
        let mut state = ch.state.load(Ordering::Acquire);
        loop {
            state = match Cell::<T>::checked(state) {
                READY | CLOSED => {
                    drop(self.take(cell, state));
                    return;
                }
                UNPARKING => {
                    backoff.snooze();
                    ch.state.load(Ordering::Acquire)
                }
                // `EMPTY` or `WAITING`: the sender has not finished, so the
                // cell (and any waker left in it) is its to free.
                s => {
                    match ch
                        .state
                        .compare_exchange(s, RX_GONE, Ordering::AcqRel, Ordering::Acquire)
                    {
                        Ok(_) => return,
                        Err(actual) => actual,
                    }
                }
            };
        }
    }
}

/// The per-thread pool of freed cells.
///
/// One intrusive free list per cell layout, threaded through the free
/// cells' first word, and at most [`CAP`] cells over all lists, so a thread
/// that only frees (a sender whose receivers are gone, a thread that awaits
/// completions created elsewhere) holds a bounded amount. The pool is
/// deallocated when its thread exits; a free after that goes straight back
/// to the allocator. No destructor runs while the pool is borrowed: callers
/// drop what a cell holds before they give it back.
mod pool {
    use std::alloc::Layout;
    use std::cell::RefCell;
    use std::ptr::NonNull;

    /// Cells one thread keeps, over all layouts.
    const CAP: usize = 1024;

    struct Free {
        next: Option<NonNull<Free>>,
    }

    struct List {
        layout: Layout,
        head: Option<NonNull<Free>>,
    }

    struct Pool {
        lists: Vec<List>,
        held: usize,
    }

    impl Drop for Pool {
        fn drop(&mut self) {
            for list in &self.lists {
                let mut next = list.head;
                while let Some(cell) = next {
                    // SAFETY: every cell on a list is a free allocation of
                    // the list's layout, owned by the pool.
                    unsafe {
                        next = cell.as_ref().next;
                        std::alloc::dealloc(cell.as_ptr().cast(), list.layout);
                    }
                }
            }
        }
    }

    thread_local! {
        static POOL: RefCell<Pool> = const {
            RefCell::new(Pool {
                lists: Vec::new(),
                held: 0,
            })
        };
    }

    /// A free cell of `layout` from this thread's pool, if it has one.
    pub(super) fn take(layout: Layout) -> Option<NonNull<u8>> {
        POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            let list = pool.lists.iter_mut().find(|l| l.layout == layout)?;
            let cell = list.head?;
            // SAFETY: the head is a free cell the pool owns.
            list.head = unsafe { cell.as_ref().next };
            pool.held -= 1;
            Some(cell.cast())
        })
        .ok()
        .flatten()
    }

    /// Give back a cell of `layout`: into this thread's pool while it is
    /// under [`CAP`] (and not yet torn down), to the allocator otherwise.
    ///
    /// # Safety
    /// `cell` was allocated with `layout` by the global allocator, holds
    /// nothing that needs dropping, and is not used again by the caller.
    pub(super) unsafe fn give(cell: NonNull<u8>, layout: Layout) {
        let kept = POOL
            .try_with(|pool| {
                let mut pool = pool.borrow_mut();
                if pool.held == CAP {
                    return false;
                }
                pool.held += 1;
                let i = match pool.lists.iter().position(|l| l.layout == layout) {
                    Some(i) => i,
                    None => {
                        pool.lists.push(List { layout, head: None });
                        pool.lists.len() - 1
                    }
                };
                let list = &mut pool.lists[i];
                let free = cell.cast::<Free>();
                // SAFETY: a cell holds a state word and a waker, so it is
                // at least as large and as aligned as `Free`.
                free.as_ptr().write(Free { next: list.head });
                list.head = Some(free);
                true
            })
            .unwrap_or(false);
        if !kept {
            std::alloc::dealloc(cell.as_ptr(), layout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::{AtomicUsize, Ordering as O};
    use std::sync::Arc;
    use std::task::Wake;

    /// Counts wakes; optionally unparks a thread.
    struct CountWaker {
        wakes: AtomicUsize,
        thread: Option<std::thread::Thread>,
    }

    impl CountWaker {
        fn new(thread: Option<std::thread::Thread>) -> Arc<Self> {
            Arc::new(CountWaker {
                wakes: AtomicUsize::new(0),
                thread,
            })
        }
    }

    impl Wake for CountWaker {
        fn wake(self: Arc<Self>) {
            self.wakes.fetch_add(1, O::SeqCst);
            if let Some(t) = &self.thread {
                t.unpark();
            }
        }
    }

    fn poll_with<T>(rx: &mut Receiver<T>, w: &Arc<CountWaker>) -> Poll<Result<T, Closed>> {
        let waker = Waker::from(Arc::clone(w));
        Pin::new(rx).poll(&mut Context::from_waker(&waker))
    }

    /// Payload whose drops are counted.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, O::SeqCst);
        }
    }

    #[test]
    fn sent_before_the_first_poll() {
        let (tx, mut rx) = channel::<u32>();
        tx.send(7);
        let w = CountWaker::new(None);
        assert_eq!(poll_with(&mut rx, &w), Poll::Ready(Ok(7)));
        assert_eq!(w.wakes.load(O::SeqCst), 0, "nobody was waiting");
    }

    #[test]
    fn pending_then_woken_then_ready() {
        let (tx, mut rx) = channel::<u32>();
        let w = CountWaker::new(None);
        assert_eq!(poll_with(&mut rx, &w), Poll::Pending);
        tx.send(9);
        assert_eq!(w.wakes.load(O::SeqCst), 1);
        assert_eq!(poll_with(&mut rx, &w), Poll::Ready(Ok(9)));
    }

    #[test]
    fn a_repoll_replaces_the_waker() {
        let (tx, mut rx) = channel::<u32>();
        let (old, new) = (CountWaker::new(None), CountWaker::new(None));
        assert_eq!(poll_with(&mut rx, &old), Poll::Pending);
        assert_eq!(poll_with(&mut rx, &new), Poll::Pending);
        tx.send(1);
        assert_eq!(old.wakes.load(O::SeqCst), 0, "a replaced waker stays quiet");
        assert_eq!(new.wakes.load(O::SeqCst), 1);
        assert_eq!(rx.try_recv(), Some(Ok(1)));
    }

    #[test]
    fn dropped_sender_closes_and_wakes() {
        let (tx, mut rx) = channel::<u32>();
        let w = CountWaker::new(None);
        assert_eq!(poll_with(&mut rx, &w), Poll::Pending);
        drop(tx);
        assert_eq!(w.wakes.load(O::SeqCst), 1);
        assert_eq!(poll_with(&mut rx, &w), Poll::Ready(Err(Closed)));
    }

    #[test]
    fn try_recv_probes_and_consumes_once() {
        let (tx, mut rx) = channel::<u32>();
        assert_eq!(rx.try_recv(), None);
        assert_eq!(format!("{rx:?}"), "Receiver(pending)");
        tx.send(5);
        assert_eq!(format!("{rx:?}"), "Receiver(ready)");
        assert_eq!(rx.try_recv(), Some(Ok(5)));
        assert_eq!(rx.try_recv(), None);
        assert_eq!(format!("{rx:?}"), "Receiver(taken)");
    }

    #[test]
    #[should_panic(expected = "polled after it returned Ready")]
    fn polling_a_finished_receiver_panics() {
        let (tx, mut rx) = channel::<u32>();
        tx.send(1);
        let w = CountWaker::new(None);
        assert!(poll_with(&mut rx, &w).is_ready());
        let _ = poll_with(&mut rx, &w);
    }

    #[test]
    fn the_value_is_dropped_exactly_once_whoever_ends_up_with_it() {
        let drops = Arc::new(AtomicUsize::new(0));
        // Taken by the receiver.
        let (tx, mut rx) = channel();
        tx.send(Counted(Arc::clone(&drops)));
        drop(rx.try_recv().unwrap().unwrap());
        drop(rx);
        assert_eq!(drops.load(O::SeqCst), 1);
        // Sent, never taken: the receiver's drop frees it.
        let (tx, rx) = channel();
        tx.send(Counted(Arc::clone(&drops)));
        drop(rx);
        assert_eq!(drops.load(O::SeqCst), 2);
        // Receiver gone (with a waker registered) before the send: the
        // sender drops it.
        let (tx, mut rx) = channel();
        let w = CountWaker::new(None);
        assert!(poll_with(&mut rx, &w).is_pending());
        drop(rx);
        tx.send(Counted(Arc::clone(&drops)));
        assert_eq!(drops.load(O::SeqCst), 3);
        assert_eq!(w.wakes.load(O::SeqCst), 0, "a gone receiver is not woken");
        // Never sent.
        let (tx, rx) = channel::<Counted>();
        drop(tx);
        drop(rx);
        assert_eq!(drops.load(O::SeqCst), 3);
    }

    #[test]
    fn hand_off_across_threads() {
        const ROUNDS: u32 = if cfg!(miri) { 20 } else { 2_000 };
        for i in 0..ROUNDS {
            let (tx, mut rx) = channel::<u32>();
            let sender = std::thread::spawn(move || tx.send(i));
            let w = CountWaker::new(Some(std::thread::current()));
            let got = loop {
                match poll_with(&mut rx, &w) {
                    Poll::Ready(v) => break v,
                    Poll::Pending => {
                        // Park until woken; `wakes` tells a wake-up from a
                        // spurious return.
                        while w.wakes.load(O::SeqCst) == 0 {
                            std::thread::park();
                        }
                    }
                }
            };
            assert_eq!(got, Ok(i));
            sender.join().unwrap();
        }
    }
}
