//! Interleaving models for the lock-free oneshot channel
//! (`csds_sync::oneshot`), the completion half of a `csds_service` request:
//! the sender's one transition against everything the receiver can be
//! doing — a first poll, a re-poll with a different waker, a `try_recv`
//! probe, or going away — and a freed cell reused by the next channel.
//!
//! In every schedule:
//!
//! * the value is delivered or dropped **exactly once** (the payload counts
//!   its drops, so a second read of a finished channel would show as a
//!   second drop, a forgotten value as none);
//! * a poll that returned `Pending` has its waker woken once the sender is
//!   done — and it is the waker of the *latest* such poll;
//! * after that wake the next poll is `Ready`, and a finished channel is
//!   not read again;
//! * the cell is **freed exactly once and never touched after its free**:
//!   built with the `modelcheck` feature, a free writes a poison value into
//!   the state word (asserting it was not there already), and every read
//!   of the state word asserts that it does not see it. A freed cell stays
//!   in its freeing thread's pool for the rest of the execution, so a late
//!   touch reads the poison instead of freed memory.
//!
//! The two plain cells (value, waker) are invisible to the checker, so what
//! it explores is the state word's protocol; the seeded negative turns a
//! cell-ownership mistake into the touch-after-free it would cause.
//!
//! A receiver that meets `UNPARKING` waits with a backoff loop, so the
//! models in which it can (a re-poll or a drop after a registered poll)
//! cannot demand `complete`; see [`assert_drained`]. The execution counts
//! stated on each model are exact for this step budget.

use csds_modelcheck::{thread, Model, Report};
use csds_sync::oneshot::{channel, Closed, Receiver};
use std::future::Future;
use std::mem::ManuallyDrop;
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

/// A channel whose receiver the model body drops only on its normal path.
/// A truncated execution unwinds the body with every other model thread
/// frozen where it stood, and a receiver dropped then whose sender froze
/// inside `UNPARKING` would wait for a store that never comes. Leaking it
/// instead is harmless: the execution is abandoned.
fn guarded_channel<T>() -> (csds_sync::oneshot::Sender<T>, ManuallyDrop<Receiver<T>>) {
    let (tx, rx) = channel();
    (tx, ManuallyDrop::new(rx))
}

/// Steps one execution may take. Every model here finishes well inside it
/// (raising it to 100 cuts the same number of executions); a receiver
/// spinning on `UNPARKING` behind a sender the schedule never resumes is
/// cut here. Each spin step also has a sibling schedule in which the sender
/// runs, so the execution counts below grow with this budget.
const MAX_STEPS: u64 = 40;
/// Schedules one model may explore; exploration must end well before it.
const MAX_EXECUTIONS: u64 = 50_000;

/// A model whose receiver can wait on `UNPARKING`: the checker finds the
/// schedules in which the sender is descheduled for good inside the window
/// and the receiver's backoff spins until the step budget cuts it — the
/// bounded wait seen from inside the model, where "bounded" means "until
/// the sender runs again". Every schedule that terminates must pass, and
/// the DFS frontier — not the execution budget — must end exploration.
fn assert_drained(report: &Report, what: &str) {
    assert!(report.failure.is_none(), "{what}: {:?}", report.failure);
    assert!(
        report.truncated > 0,
        "{what}: no schedule met UNPARKING; the window is not explored"
    );
    assert!(
        report.executions > 2 * report.truncated,
        "{what}: too few complete schedules ({} executions, {} truncated)",
        report.executions,
        report.truncated
    );
    assert!(
        report.executions < MAX_EXECUTIONS,
        "{what}: execution budget exhausted before the schedule space was drained"
    );
}

fn model() -> Model {
    Model::new()
        .max_steps(MAX_STEPS)
        .max_executions(MAX_EXECUTIONS)
}

/// `send` against a poll and a re-poll with a second waker.
fn send_vs_poll_and_repoll() {
    let drops = Arc::new(AtomicUsize::new(0));
    let (tx, mut rx) = guarded_channel();
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
        "one sender wakes at most one waker"
    );
    assert_eq!(drops.load(Ordering::SeqCst), 0, "dropped while still held");
    assert!(matches!(got, Some(Ok(_))), "sent value must arrive");
    assert!(rx.try_recv().is_none(), "finished: no re-read");
    drop(got);
    drop(ManuallyDrop::into_inner(rx));
    assert_eq!(drops.load(Ordering::SeqCst), 1, "exactly one drop");
}

/// 267 executions, 21 of them cut while the re-poll waits out `UNPARKING`.
#[test]
fn send_racing_poll_and_repoll_delivers_once_and_wakes_the_latest_waker() {
    let report = model().run(send_vs_poll_and_repoll);
    assert_drained(&report, "send vs poll and re-poll");
}

/// The seeded negative: a sender that publishes its outcome *before* it
/// takes the waker (no `UNPARKING` window) is still reading the cell when
/// a re-poll sees the outcome, takes the value and frees the cell. The
/// touch reads the free's poison.
#[test]
fn checker_catches_a_sender_that_publishes_before_taking_the_waker() {
    let report = model()
        .cfg("oneshot.publish_before_take", 1)
        .run(send_vs_poll_and_repoll);
    let f = report
        .failure
        .expect("publishing before taking the waker must touch a freed cell in some schedule");
    assert!(
        f.message.contains("touched after its free"),
        "unexpected failure: {}",
        f.message
    );
}

/// `send` against `try_recv` probes: `None` until the outcome is
/// published, the value exactly once after it. A probe never waits, so the
/// model is complete: 6 executions.
#[test]
fn send_racing_try_recv_delivers_once() {
    let report = model().check(|| {
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
/// is dropped exactly once — by the receiver if its poll got it or its drop
/// found the outcome, by the sender if it found `RX_GONE` — and a waker
/// left behind is never a dangling one. 253 executions, 21 of them cut in
/// the drop's wait.
#[test]
fn send_racing_receiver_drop_drops_the_value_once() {
    let report = model().run(|| {
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx, mut rx) = guarded_channel();
        let payload = Counted(Arc::clone(&drops));
        let sender = thread::spawn(move || tx.send(payload));
        let w = Arc::new(Woken::default());
        let polled = poll_with(&mut rx, &w);
        drop(ManuallyDrop::into_inner(rx));
        drop(polled);
        sender.join().unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "exactly one drop");
        assert!(w.count() <= 1);
    });
    assert_drained(&report, "send vs receiver drop");
}

/// The sender is dropped unsent while the receiver polls: a registered
/// waker is woken and the channel resolves to `Closed`, once. The first
/// poll cannot meet `UNPARKING` (only its own registration starts the
/// window) and the second runs after the join, so the model is complete:
/// 6 executions.
#[test]
fn sender_drop_racing_poll_closes_and_wakes() {
    let report = model().check(|| {
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

/// The `UNPARKING` window from both of the receiver's sides: the waker is
/// registered before the sender exists, so every send goes through
/// `WAITING → UNPARKING`, and the receiver either drops or re-polls with a
/// second waker while it does. Exactly one drop of the value, at most one
/// wake, and after a re-poll it is the second waker that is woken.
/// Drop: 108 executions, 9 cut. Re-poll: 116 executions, 6 cut.
#[test]
fn receiver_drop_or_repoll_racing_the_wake_up() {
    for repoll in [false, true] {
        let report = model().run(move || {
            let drops = Arc::new(AtomicUsize::new(0));
            let (tx, mut rx) = guarded_channel();
            let (first, second) = (Arc::new(Woken::default()), Arc::new(Woken::default()));
            assert!(poll_with(&mut rx, &first).is_pending());
            let payload = Counted(Arc::clone(&drops));
            let sender = thread::spawn(move || tx.send(payload));
            if repoll {
                let got = match poll_with(&mut rx, &second) {
                    Poll::Ready(v) => v,
                    Poll::Pending => {
                        sender.join().unwrap();
                        assert_eq!(second.count(), 1, "re-registered waker never woken");
                        match poll_with(&mut rx, &second) {
                            Poll::Ready(v) => v,
                            Poll::Pending => panic!("Pending after the sender finished"),
                        }
                    }
                };
                assert!(got.is_ok(), "sent value must arrive");
                assert!(rx.try_recv().is_none(), "finished: no re-read");
                drop(got);
                drop(ManuallyDrop::into_inner(rx));
            } else {
                drop(ManuallyDrop::into_inner(rx));
                sender.join().unwrap();
            }
            assert_eq!(drops.load(Ordering::SeqCst), 1, "exactly one drop");
            assert!(first.count() + second.count() <= 1, "at most one wake");
        });
        let what = if repoll {
            "re-poll vs wake-up"
        } else {
            "drop vs wake-up"
        };
        assert_drained(&report, what);
    }
}

/// Reuse: a first channel ends with the receiver's drop racing the send;
/// whenever the drop finds the outcome, this thread frees the cell into
/// its pool and the second channel, created right after, pops the same
/// cell while the first sender may still be running its wake-up. The
/// second channel must behave as a fresh one. 2 710 executions, 234 cut.
#[test]
fn a_freed_cell_reused_by_the_next_channel_starts_fresh() {
    let report = model().run(|| {
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx1, mut rx1) = guarded_channel();
        let w1 = Arc::new(Woken::default());
        assert!(poll_with(&mut rx1, &w1).is_pending());
        let payload = Counted(Arc::clone(&drops));
        let first = thread::spawn(move || tx1.send(payload));
        drop(ManuallyDrop::into_inner(rx1));
        let (tx2, mut rx2) = guarded_channel::<u64>();
        let second = thread::spawn(move || tx2.send(7));
        let w2 = Arc::new(Woken::default());
        let polled = poll_with(&mut rx2, &w2);
        first.join().unwrap();
        second.join().unwrap();
        let got = match polled {
            Poll::Ready(v) => v,
            Poll::Pending => {
                assert_eq!(w2.count(), 1, "registered waker never woken");
                match poll_with(&mut rx2, &w2) {
                    Poll::Ready(v) => v,
                    Poll::Pending => panic!("Pending after the sender finished"),
                }
            }
        };
        assert_eq!(got, Ok(7), "the reused cell must carry its own value");
        assert_eq!(rx2.try_recv(), None, "finished: no re-read");
        drop(ManuallyDrop::into_inner(rx2));
        assert_eq!(drops.load(Ordering::SeqCst), 1, "exactly one drop");
    });
    assert_drained(&report, "reuse");
}
