//! A lock-free oneshot channel: one value, one [`Sender`], one
//! [`Receiver`] that is a standard [`Future`] — the completion half of a
//! `csds_service` request.
//!
//! The channel is one atomic state word beside two plain cells, the value
//! and the receiver's waker. The state word says who owns each cell:
//!
//! | state     | value cell             | waker cell                          |
//! |-----------|------------------------|-------------------------------------|
//! | `EMPTY`   | sender's, not written  | receiver's                          |
//! | `WAITING` | sender's, not written  | holds a waker; whoever swaps `WAITING` out owns it |
//! | `READY`   | written; receiver's    | —                                   |
//! | `CLOSED`  | never written          | —                                   |
//! | `TAKEN`   | moved out (or never written) | —                             |
//!
//! * The **sender** makes exactly one transition: it writes the value and
//!   swaps in `READY` (or, dropped unsent, swaps in `CLOSED`). If it
//!   swapped out `WAITING` it takes the waker and wakes it; otherwise it
//!   never looks at the waker cell.
//! * The **receiver** polls: a `READY` or `CLOSED` it reads (one Acquire
//!   load) ends the channel — it moves the value out and stores `TAKEN`.
//!   Otherwise it stores its waker while the state is `EMPTY` and publishes
//!   it with `EMPTY → WAITING`; a re-poll first takes the cell back with
//!   `WAITING → EMPTY`. Whichever of those two CASes fails lost to the
//!   sender's swap, and the outcome is there to take.
//!
//! The sender's swap is `AcqRel` and so are the receiver's CASes (their
//! failure ordering and the probing load are `Acquire`): the swap's Release
//! half publishes the value to the receiver's Acquire read of `READY`, and
//! the publishing CAS's Release half hands the waker to the swap's Acquire
//! half. After it has read `READY` or `CLOSED` the receiver is the only
//! party that touches the state again, so `TAKEN` is a Relaxed store; the
//! `Arc`'s reference count orders it before `Drop`.
//!
//! Per hand-off that is one RMW on the state word (plus the reference
//! counting of the `Arc` both halves share) and no lock. The `Arc` stays:
//! the sender may still be waking after the receiver has read the value
//! and gone.
//!
//! Both halves run under `csds_modelcheck` through the atomic seam
//! (`crates/modelcheck/tests/oneshot.rs`).

use crate::atomic::{AtomicU32, Ordering};
use std::cell::UnsafeCell;
use std::future::Future;
use std::mem::MaybeUninit;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

const EMPTY: u32 = 0;
const WAITING: u32 = 1;
const READY: u32 = 2;
const CLOSED: u32 = 3;
const TAKEN: u32 = 4;

struct Channel<T> {
    state: AtomicU32,
    value: UnsafeCell<MaybeUninit<T>>,
    waker: UnsafeCell<Option<Waker>>,
}

// SAFETY: the value moves from the sender's thread to the receiver's (or is
// dropped on whichever thread drops the channel last), so T must be Send;
// `Waker` is Send + Sync. Access to both cells is serialized by `state` as
// the module docs lay out: at any moment one side owns each cell.
unsafe impl<T: Send> Sync for Channel<T> {}

impl<T> Channel<T> {
    /// The sender's one transition: swap in `outcome` (`READY` with the
    /// value already written, or `CLOSED`) and wake a registered receiver.
    fn finish(&self, outcome: u32) {
        // The `oneshot.wake_before_swap` model knob re-orders this function
        // into the bug it is written to avoid — reading the waker cell
        // before owning it — so the oneshot model can show that it catches
        // a lost wakeup (see crates/modelcheck/tests/oneshot.rs).
        #[cfg(feature = "modelcheck")]
        if csds_modelcheck::model_config_u64("oneshot.wake_before_swap") == Some(1) {
            // SAFETY: none — this is the seeded race. Model threads run one
            // at a time, so inside the checker it is a logic bug only.
            let early = unsafe { (*self.waker.get()).take() };
            self.state.swap(outcome, Ordering::AcqRel);
            if let Some(w) = early {
                w.wake();
            }
            return;
        }
        if self.state.swap(outcome, Ordering::AcqRel) == WAITING {
            // SAFETY: `WAITING` was published by the receiver's Release CAS
            // after it wrote the cell, and the swap's Acquire half saw it.
            // Having swapped `WAITING` out, this thread owns the cell: the
            // receiver's take-back CAS can no longer succeed, and it does
            // not touch the cell otherwise.
            let waker = unsafe { (*self.waker.get()).take() };
            if let Some(w) = waker {
                w.wake();
            }
        }
    }
}

impl<T> Drop for Channel<T> {
    fn drop(&mut self) {
        if *self.state.get_mut() == READY {
            // SAFETY: `READY` means the sender initialized the cell and the
            // receiver never moved the value out (it stores `TAKEN` when it
            // does); `&mut self` means both halves are gone.
            unsafe { self.value.get_mut().assume_init_drop() };
        }
    }
}

/// A connected sender/receiver pair.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let ch = Arc::new(Channel {
        state: AtomicU32::new(EMPTY),
        value: UnsafeCell::new(MaybeUninit::uninit()),
        waker: UnsafeCell::new(None),
    });
    (
        Sender {
            ch: Some(Arc::clone(&ch)),
        },
        Receiver { ch },
    )
}

/// The sending half was dropped without sending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Closed;

/// The sending half. One pointer wide (`None` once sent), so it travels
/// inside a queue element cheaply. Dropping it unsent resolves the receiver
/// to [`Closed`] instead of stranding it.
pub struct Sender<T> {
    ch: Option<Arc<Channel<T>>>,
}

impl<T> Sender<T> {
    /// Deliver `value` and wake the receiver if it is waiting. A value sent
    /// to a receiver that is already gone is dropped with the channel.
    pub fn send(mut self, value: T) {
        let ch = self
            .ch
            .take()
            .expect("a sender keeps its channel until it is consumed");
        // SAFETY: the value cell is the sender's until its swap publishes
        // it, and this is the only write: `send` consumes the sender.
        unsafe { (*ch.value.get()).write(value) };
        ch.finish(READY);
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if let Some(ch) = self.ch.take() {
            ch.finish(CLOSED);
        }
    }
}

/// The receiving half: a [`Future`] resolving to the sent value, or to
/// [`Closed`] if the sender was dropped without sending.
#[must_use = "a Receiver does nothing until polled (or probed with try_recv)"]
pub struct Receiver<T> {
    ch: Arc<Channel<T>>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self.ch.state.load(Ordering::Relaxed) {
            EMPTY | WAITING => "pending",
            READY => "ready",
            CLOSED => "closed",
            _ => "taken",
        };
        write!(f, "Receiver({name})")
    }
}

impl<T> Receiver<T> {
    /// Non-blocking probe: `Some` once the sender has sent or gone (consumes
    /// the outcome), `None` while it has not — and ever after.
    pub fn try_recv(&mut self) -> Option<Result<T, Closed>> {
        self.take(self.ch.state.load(Ordering::Acquire))
    }

    /// Consume the outcome if `state` (just read with Acquire) is one.
    fn take(&mut self, state: u32) -> Option<Result<T, Closed>> {
        let out = match state {
            // SAFETY: `READY` was read with Acquire from the sender's
            // Release swap, after which the sender leaves the cell alone;
            // the `TAKEN` store below keeps this (only) receiver, and
            // `Channel::drop`, from reading the cell a second time.
            READY => Ok(unsafe { (*self.ch.value.get()).assume_init_read() }),
            CLOSED => Err(Closed),
            _ => return None,
        };
        // Relaxed: nobody else reads the state before `Channel::drop`,
        // which the `Arc`'s reference count orders after this store.
        self.ch.state.store(TAKEN, Ordering::Relaxed);
        Some(out)
    }
}

impl<T> Future for Receiver<T> {
    type Output = Result<T, Closed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let ch = &*this.ch;
        let mut state = ch.state.load(Ordering::Acquire);
        if state == WAITING {
            // A re-poll: take the waker cell back before touching it. If the
            // CAS fails the sender swapped first and owns the cell; its
            // outcome is in `state`.
            state =
                match ch
                    .state
                    .compare_exchange(WAITING, EMPTY, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => EMPTY,
                    Err(actual) => actual,
                };
        }
        if state == EMPTY {
            // SAFETY: in `EMPTY` the waker cell is the receiver's: the
            // sender reads it only after swapping out `WAITING`, which is
            // published below, after this write.
            let slot = unsafe { &mut *ch.waker.get() };
            match slot {
                Some(w) => w.clone_from(cx.waker()),
                None => *slot = Some(cx.waker().clone()),
            }
            state =
                match ch
                    .state
                    .compare_exchange(EMPTY, WAITING, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => return Poll::Pending,
                    // The sender finished between the load and here. It swapped
                    // out `EMPTY`, so it will not wake anybody: take the outcome.
                    Err(actual) => actual,
                };
        }
        match this.take(state) {
            Some(out) => Poll::Ready(out),
            None => panic!("oneshot Receiver polled after it returned Ready"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::{AtomicUsize, Ordering as O};
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
        // Sent, never taken: the channel drops it.
        let (tx, rx) = channel();
        tx.send(Counted(Arc::clone(&drops)));
        drop(rx);
        assert_eq!(drops.load(O::SeqCst), 2);
        // Receiver gone (with a waker registered) before the send.
        let (tx, mut rx) = channel();
        let w = CountWaker::new(None);
        assert!(poll_with(&mut rx, &w).is_pending());
        drop(rx);
        tx.send(Counted(Arc::clone(&drops)));
        assert_eq!(drops.load(O::SeqCst), 3);
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
