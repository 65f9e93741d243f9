//! Interleaving models for the Vyukov-style bounded MPSC ring
//! (`csds_sync::MpscRing`): sequence-stamp claiming under producer races,
//! exactly-once delivery, single-consumer FIFO, and `close()` against a
//! racing push.

use csds_modelcheck::{thread, Model};
use csds_sync::MpscRing;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Two producers race for slots; after both finish, draining yields each
/// value exactly once (no lost or duplicated elements, whatever order the
/// tail CAS races resolve in).
#[test]
fn racing_producers_deliver_exactly_once() {
    let report = Model::new().check(|| {
        let ring = Arc::new(MpscRing::with_capacity(2));
        let (r1, r2) = (Arc::clone(&ring), Arc::clone(&ring));
        let p1 = thread::spawn(move || r1.try_push(1u64).is_ok());
        let p2 = thread::spawn(move || r2.try_push(2u64).is_ok());
        let ok1 = p1.join().unwrap();
        let ok2 = p2.join().unwrap();
        // Capacity 2, two pushes: neither can observe a full ring.
        assert!(ok1 && ok2, "push spuriously reported full");
        let rx = ring.consumer().expect("the ring's one consumer");
        let mut got = vec![
            rx.pop().expect("first element missing"),
            rx.pop().expect("second element missing"),
        ];
        assert!(rx.pop().is_none(), "phantom third element");
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "elements lost or duplicated");
    });
    assert!(report.complete, "ring model must be fully explored");
    assert!(report.executions > 1);
}

/// Consumer concurrent with a producer driving a capacity-2 ring past full:
/// `try_push` reports backpressure exactly when the lap stamps say so, the
/// consumer never observes an unpublished slot, `pop_ready` never promises
/// a pop that then fails, and whatever was accepted drains FIFO with nothing
/// lost or duplicated.
///
/// (This model is also what exposed the original capacity-1 stamp
/// collision — a second push could claim the consumer's undrained slot —
/// which is why `with_capacity` now floors at 2.)
#[test]
fn concurrent_producer_consumer_with_backpressure() {
    let report = Model::new().check(|| {
        let ring = Arc::new(MpscRing::with_capacity(2));
        let r2 = Arc::clone(&ring);
        let producer = thread::spawn(move || {
            // Two fills plus one that races the consumer for room.
            let a = r2.try_push(1u64).is_ok();
            let b = r2.try_push(2u64).is_ok();
            let c = r2.try_push(3u64).is_ok();
            (a, b, c)
        });
        // Concurrent pop attempts; each may legitimately see "empty". The
        // consumer-side probe may under-promise (a claimed slot not yet
        // stamped reads "not ready") but never over-promises.
        let rx = ring.consumer().expect("the ring's one consumer");
        let mut got = Vec::new();
        for _ in 0..2 {
            let ready = rx.pop_ready();
            let popped = rx.pop();
            assert!(
                !ready || popped.is_some(),
                "probe promised a pop that failed"
            );
            got.extend(popped);
        }
        let (a, b, c) = producer.join().unwrap();
        assert!(a && b, "two pushes into a capacity-2 ring cannot be full");
        // Drain what is left after the producer finished.
        while let Some(v) = rx.pop() {
            got.push(v);
        }
        let mut expected = vec![1, 2];
        if c {
            expected.push(3);
        }
        assert_eq!(got, expected, "accepted elements must drain FIFO, once");
    });
    assert!(report.complete);
    assert!(report.executions > 1);
}

/// Model bookkeeping (a plain std atomic, not protocol state): exit checks
/// that ran on a closed ring whose head slot was claimed but not stamped.
static CHECKED_UNSTAMPED: AtomicUsize = AtomicUsize::new(0);

/// Two pushes racing `close()` and the drain-to-exit loop of a
/// `csds_service` worker (`worker_loop`: pop what is there, leave once the
/// ring is closed and `len() == 0`). Shutdown's whole guarantee rests on
/// the tail word: a push that claimed its slot before the closed bit went
/// up is counted in `len()` from that moment, stamped or not, so a worker
/// that leaves on the count has popped it; a push after the bit is refused.
///
/// `exit_on_claimed_count = false` leaves on the consumer-side probe
/// instead (`!pop_ready()`), which reads a claimed, unstamped slot as
/// "nothing there".
fn close_vs_push(exit_on_claimed_count: bool) {
    let ring = Arc::new(MpscRing::with_capacity(2));
    let r2 = Arc::clone(&ring);
    let producer = thread::spawn(move || (r2.try_push(1u64).is_ok(), r2.try_push(2u64).is_ok()));
    ring.close();
    let rx = ring.consumer().expect("the ring's one consumer");
    let mut got = Vec::new();
    let mut exited = false;
    // Two rounds are enough to go round once behind an unstamped slot; a
    // worker that has not left by then has simply not left yet.
    for _ in 0..2 {
        while let Some(v) = rx.pop() {
            got.push(v);
        }
        let (empty, ready) = (ring.is_empty(), rx.pop_ready());
        if !empty && !ready {
            CHECKED_UNSTAMPED.fetch_add(1, Ordering::Relaxed);
        }
        exited = ring.is_closed() && if exit_on_claimed_count { empty } else { !ready };
        if exited {
            break;
        }
    }
    let (first, second) = producer.join().unwrap();
    assert!(first || !second, "a closed ring does not reopen");
    let accepted: Vec<u64> = [(first, 1), (second, 2)]
        .into_iter()
        .filter_map(|(ok, v)| ok.then_some(v))
        .collect();
    if !exited {
        // Quiescent now: the next round of the same loop finishes the job.
        while let Some(v) = rx.pop() {
            got.push(v);
        }
        assert!(ring.is_closed() && ring.is_empty());
    }
    assert_eq!(
        got, accepted,
        "the worker left with an accepted request still in the ring"
    );
    assert_eq!(ring.try_push(3), Err(3), "closed for good");
}

#[test]
fn a_push_racing_close_is_drained_or_refused() {
    let report = Model::new().check(|| close_vs_push(true));
    assert!(report.complete, "close model must be fully explored");
    assert!(
        CHECKED_UNSTAMPED.load(Ordering::Relaxed) > 0,
        "never explored an exit check behind a claimed-but-unstamped slot"
    );
}

/// The seeded negative: leaving on `!pop_ready()` strands the request of a
/// producer that won its claim against `close()` but had not stamped yet.
#[test]
fn checker_catches_an_exit_that_ignores_claimed_slots() {
    let report = Model::new().run(|| close_vs_push(false));
    let f = report
        .failure
        .expect("exiting on the probe must strand a claimed request in some schedule");
    assert!(
        f.message.contains("still in the ring"),
        "unexpected failure: {}",
        f.message
    );
}
