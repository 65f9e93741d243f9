//! Interleaving models for the lock-free oneshot channel
//! (`csds_sync::oneshot`), the completion half of a `csds_service` request:
//! the sender's one swap against everything the receiver can be doing —
//! a first poll, a re-poll with a different waker, a `try_recv` probe, or
//! going away.
//!
//! In every schedule:
//!
//! * the value is delivered or dropped **exactly once** (the payload counts
//!   its drops, so a second read of a finished channel would show as a
//!   second drop, a forgotten value as none);
//! * a poll that returned `Pending` has its waker woken once the sender is
//!   done — and it is the waker of the *latest* such poll;
//! * after that wake the next poll is `Ready`.
//!
//! The two plain cells (value, waker) are invisible to the checker, so what
//! it explores is the state word's protocol; the seeded negative turns a
//! cell-ownership mistake into the lost wakeup it would cause.

use csds_modelcheck::{thread, Model};
use csds_sync::oneshot::{channel, Closed, Receiver};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// Model bookkeeping, not protocol state: plain std atomics, so waking and
/// dropping add no scheduling points.
#[derive(Default)]
struct Woken(AtomicUsize);

impl Wake for Woken {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

impl Woken {
    fn count(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn poll_with<T>(rx: &mut Receiver<T>, w: &Arc<Woken>) -> Poll<Result<T, Closed>> {
    let waker = Waker::from(Arc::clone(w));
    Pin::new(rx).poll(&mut Context::from_waker(&waker))
}

/// `send` against a poll and a re-poll with a second waker.
fn send_vs_poll_and_repoll() {
    let drops = Arc::new(AtomicUsize::new(0));
    let (tx, mut rx) = channel();
    let payload = Counted(Arc::clone(&drops));
    let sender = thread::spawn(move || tx.send(payload));
    let (first, second) = (Arc::new(Woken::default()), Arc::new(Woken::default()));
    // Whoever registered last, if anybody did.
    let mut registered = None;
    let mut got = None;
    for w in [&first, &second] {
        match poll_with(&mut rx, w) {
            Poll::Ready(v) => {
                got = Some(v);
                break;
            }
            Poll::Pending => registered = Some(w),
        }
    }
    sender.join().unwrap();
    if got.is_none() {
        let w = registered.expect("a Pending poll registered its waker");
        assert_eq!(w.count(), 1, "registered waker never woken");
        got = match poll_with(&mut rx, w) {
            Poll::Ready(v) => Some(v),
            Poll::Pending => panic!("Pending after the sender finished"),
        };
    }
    assert!(
        first.count() + second.count() <= 1,
        "one swap wakes at most one waker"
    );
    assert_eq!(drops.load(Ordering::SeqCst), 0, "dropped while still held");
    assert!(matches!(got, Some(Ok(_))), "sent value must arrive");
    assert!(rx.try_recv().is_none(), "finished: no re-read");
    drop(got);
    drop(rx);
    assert_eq!(drops.load(Ordering::SeqCst), 1, "exactly one drop");
}

#[test]
fn send_racing_poll_and_repoll_delivers_once_and_wakes_the_latest_waker() {
    let report = Model::new().check(send_vs_poll_and_repoll);
    assert!(report.complete, "oneshot model must be fully explored");
    assert!(report.executions > 1);
}

/// The seeded negative: a sender that reads the waker cell *before* its
/// swap has not swapped out `WAITING`, so it does not own the cell — a
/// receiver that registers in between is never woken.
#[test]
fn checker_catches_a_sender_that_reads_the_waker_before_owning_it() {
    let report = Model::new()
        .cfg("oneshot.wake_before_swap", 1)
        .run(send_vs_poll_and_repoll);
    let f = report
        .failure
        .expect("reading the waker cell early must lose a wakeup in some schedule");
    assert!(
        f.message.contains("registered waker never woken"),
        "unexpected failure: {}",
        f.message
    );
}

/// `send` against `try_recv` probes: `None` until the swap, the value
/// exactly once after it.
#[test]
fn send_racing_try_recv_delivers_once() {
    let report = Model::new().check(|| {
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx, mut rx) = channel();
        let payload = Counted(Arc::clone(&drops));
        let sender = thread::spawn(move || tx.send(payload));
        let mut got = Vec::new();
        got.extend(rx.try_recv());
        got.extend(rx.try_recv());
        sender.join().unwrap();
        got.extend(rx.try_recv());
        assert_eq!(got.len(), 1, "one outcome, however the probes fell");
        assert!(got[0].is_ok());
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(got);
        drop(rx);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "exactly one drop");
    });
    assert!(report.complete);
    assert!(report.executions > 1);
}

/// The receiver polls once and goes away while the sender sends: the value
/// is dropped exactly once — by the receiver if its poll got it, by the
/// channel otherwise — and a waker left behind is never a dangling one.
#[test]
fn send_racing_receiver_drop_drops_the_value_once() {
    let report = Model::new().check(|| {
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx, mut rx) = channel();
        let payload = Counted(Arc::clone(&drops));
        let sender = thread::spawn(move || tx.send(payload));
        let w = Arc::new(Woken::default());
        let polled = poll_with(&mut rx, &w);
        drop(rx);
        drop(polled);
        sender.join().unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "exactly one drop");
        assert!(w.count() <= 1);
    });
    assert!(report.complete);
    assert!(report.executions > 1);
}

/// The sender is dropped unsent while the receiver polls: a registered
/// waker is woken and the channel resolves to `Closed`, once.
#[test]
fn sender_drop_racing_poll_closes_and_wakes() {
    let report = Model::new().check(|| {
        let (tx, mut rx) = channel::<u64>();
        let sender = thread::spawn(move || drop(tx));
        let w = Arc::new(Woken::default());
        let first = poll_with(&mut rx, &w);
        sender.join().unwrap();
        let out = match first {
            Poll::Ready(out) => out,
            Poll::Pending => {
                assert_eq!(w.count(), 1, "registered waker never woken");
                match poll_with(&mut rx, &w) {
                    Poll::Ready(out) => out,
                    Poll::Pending => panic!("Pending after the sender dropped"),
                }
            }
        };
        assert_eq!(out, Err(Closed));
        assert_eq!(rx.try_recv(), None, "finished: no re-read");
    });
    assert!(report.complete);
    assert!(report.executions > 1);
}
