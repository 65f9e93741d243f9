//! Reclamation under the priority queues' session discipline.
//!
//! In a test binary of their own: the EBR epoch is process-wide, so a
//! sibling test's pinned thread, descheduled at the wrong moment, holds the
//! epoch back for as long as these tests take (a millisecond in release
//! builds) and makes the garbage bound below fail spuriously. For the same
//! reason the two tests here never overlap.

use std::sync::Mutex;

use csds_ebr::pin;
use csds_pq::{GuardedPq, LotanShavitPq, PqHandle, PughPq};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn popped_nodes_reclaimed_under_live_handle() {
    // The repin-starvation class: a long-lived PqHandle driving push/pop
    // cycles must not warehouse its own retirements — the per-op repin
    // lets the epoch advance, so deferred garbage stays bounded instead of
    // growing with the op count.
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let q = LotanShavitPq::new();
    let mut h = PqHandle::new(&q);
    for round in 0..20_000u64 {
        let k = round % 64;
        h.push(k, round);
        h.pop_min();
        if round % 1024 == 0 {
            let pending = csds_ebr::local_garbage_items();
            assert!(
                pending < 10_000,
                "deferred garbage grew without bound under a live \
                 PqHandle: {pending} items at round {round}"
            );
        }
    }
    let final_pending = csds_ebr::local_garbage_items();
    assert!(
        final_pending < 10_000,
        "final deferred garbage: {final_pending}"
    );
}

#[test]
fn pop_min_reference_survives_its_own_retirement() {
    // pop_min_in retires the node it returns a reference into; the
    // caller's pin must keep it and its value alive for 'g.
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let q = PughPq::new();
    let g = pin();
    assert!(q.push_in(7, vec![1u64, 2, 3], &g));
    let (k, v) = q.pop_min_in(&g).expect("present");
    // Force epoch churn from another thread while we hold the ref.
    std::thread::spawn(|| {
        for _ in 0..64 {
            let g = pin();
            drop(g);
        }
    })
    .join()
    .unwrap();
    assert_eq!(k, 7);
    assert_eq!(v, &vec![1u64, 2, 3]);
}
