//! The one-long-lived-session-per-thread discipline, checked once for all
//! three handle kinds: they share `csds_ebr::Session`, so the stall
//! accounting, the `repin_stalls` counter and the `RepinStall` trace event
//! must behave identically whichever handle is starved.

use csds::core::queuestack::MsQueue;
use csds::core::{MapHandle, PoolHandle, REPIN_STALL_WARN_THRESHOLD as THRESHOLD};
use csds::metrics::{trace, EventKind};
use csds::pq::{LotanShavitPq, PqHandle};
use csds::prelude::HarrisList;

/// Two live handles of one kind on this thread: every repin is inert, so
/// the stall run grows by one per operation, each threshold multiple ticks
/// `repin_stalls` and emits a `RepinStall` event carrying the run length,
/// and dropping the other handle resets the run on the next operation.
fn stall_discipline<H>(open: impl Fn() -> H, op: impl Fn(&mut H), stalled: impl Fn(&H) -> u64) {
    let _ = csds::metrics::take_and_reset();
    let _ = trace::drain_all();
    let first = open();
    let mut second = open();
    for i in 1..=2 * THRESHOLD {
        op(&mut second);
        assert_eq!(stalled(&second), i);
    }
    assert_eq!(csds::metrics::take_and_reset().repin_stalls, 2);
    let runs: Vec<u64> = trace::drain_all()
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == EventKind::RepinStall)
        .map(|e| e.arg)
        .collect();
    assert_eq!(runs, [THRESHOLD, 2 * THRESHOLD]);
    drop(first);
    op(&mut second);
    assert_eq!(stalled(&second), 0);
}

#[test]
fn every_handle_kind_reports_and_recovers_from_a_repin_stall() {
    trace::set_tracing(true);
    let map: HarrisList<u64> = HarrisList::new();
    stall_discipline(
        || MapHandle::new(&map),
        |h| _ = h.insert(1, 1),
        |h| h.stalled_ops(),
    );
    let pool: MsQueue<u64> = MsQueue::new();
    stall_discipline(
        || PoolHandle::new(&pool),
        |h| h.push(1),
        |h| h.stalled_ops(),
    );
    let pq: LotanShavitPq<u64> = LotanShavitPq::new();
    stall_discipline(
        || PqHandle::new(&pq),
        |h| _ = h.push(1, 1),
        |h| h.stalled_ops(),
    );
    trace::set_tracing(false);

    // `refresh` feeds the same accounting as the operations.
    let other = MapHandle::new(&map);
    let mut h = PqHandle::new(&pq);
    assert!(!h.refresh());
    assert_eq!(h.stalled_ops(), 1);
    drop(other);
    assert!(h.refresh());
    assert_eq!(h.stalled_ops(), 0);
}
