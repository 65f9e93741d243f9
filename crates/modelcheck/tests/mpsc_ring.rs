//! Interleaving models for the Vyukov-style bounded MPSC ring
//! (`csds_sync::MpscRing`): sequence-stamp claiming under producer races,
//! exactly-once delivery, and single-consumer FIFO.

use csds_modelcheck::{thread, Model};
use csds_sync::MpscRing;
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
        let mut got = vec![
            ring.pop().expect("first element missing"),
            ring.pop().expect("second element missing"),
        ];
        assert!(ring.pop().is_none(), "phantom third element");
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
        let mut got = Vec::new();
        for _ in 0..2 {
            let ready = ring.pop_ready();
            let popped = ring.pop();
            assert!(
                !ready || popped.is_some(),
                "probe promised a pop that failed"
            );
            got.extend(popped);
        }
        let (a, b, c) = producer.join().unwrap();
        assert!(a && b, "two pushes into a capacity-2 ring cannot be full");
        // Drain what is left after the producer finished.
        while let Some(v) = ring.pop() {
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
