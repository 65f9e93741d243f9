//! Reclamation stress tests for the EBR substrate.
//!
//! Two properties, exercised under thread churn:
//!
//! 1. **completeness** — every retired node is eventually freed, including
//!    garbage donated through the orphan path by exiting threads;
//! 2. **safety** — no node is freed while a guard that could still reach it
//!    is live (readers continuously validate a canary word, and a dedicated
//!    blocked-reader test asserts a zero drop count while pinned).

use csds_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

use csds_ebr::{pin, Atomic, Shared};

/// The epoch is process-wide and libtest runs this file's tests side by
/// side, so a pinned thread of one test that gets descheduled stalls
/// collection for all of them until it runs again. Three tests only wait
/// longer. The repin regression test counts what is freed within a fixed
/// budget of repins, so it takes the write side and runs alone; the others
/// share the read side and still overlap each other.
static EPOCH_TO_ITSELF: RwLock<()> = RwLock::new(());

/// Churn pin+flush on the calling thread until `pred` holds.
fn churn_until(pred: impl Fn() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        {
            let g = pin();
            g.flush();
        }
        if pred() {
            return true;
        }
        std::thread::yield_now();
    }
    pred()
}

#[test]
fn every_retired_node_is_eventually_freed() {
    let _shared = EPOCH_TO_ITSELF
        .read()
        .unwrap_or_else(PoisonError::into_inner);
    static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicUsize = AtomicUsize::new(0);

    struct Counted;
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPPED.fetch_add(1, Ordering::SeqCst);
        }
    }

    const THREADS: usize = 4;
    // Miri interprets every access; scale the churn down to stay inside the
    // CI timebox while native runs keep full pressure.
    const PER_THREAD: usize = if cfg!(miri) { 128 } else { 2_000 };

    // Each worker retires nodes under its own pins and then exits without
    // flushing, forcing the leftovers through the orphan-donation path.
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(|| {
                for i in 0..PER_THREAD {
                    let g = pin();
                    ALLOCATED.fetch_add(1, Ordering::SeqCst);
                    let s = Shared::boxed(Counted);
                    // SAFETY: never published; unique, retired once.
                    unsafe { g.defer_drop(s) };
                    drop(g);
                    if i % 512 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let target = THREADS * PER_THREAD;
    assert_eq!(ALLOCATED.load(Ordering::SeqCst), target);
    assert!(
        churn_until(
            || DROPPED.load(Ordering::SeqCst) == target,
            Duration::from_secs(30),
        ),
        "leaked retired nodes: dropped {} of {target}",
        DROPPED.load(Ordering::SeqCst)
    );
}

#[test]
fn a_long_lived_repinning_guard_reclaims_its_own_garbage() {
    let _alone = EPOCH_TO_ITSELF
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    // Regression: maintenance used to run only on the top-level pin path,
    // so a session holding one guard and calling `repin` between
    // operations (the `MapHandle` hot path) never advanced the epoch or
    // collected — a handle-driven update loop accumulated every retired
    // node until the handle dropped (~130 MB per 2M ops, with the
    // allocator degradation to match). Repins now share the pin path's
    // amortized maintenance counter, so the backlog must drain while the
    // guard stays live.
    static DROPPED: AtomicUsize = AtomicUsize::new(0);

    struct Counted;
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPPED.fetch_add(1, Ordering::SeqCst);
        }
    }

    const OPS: usize = if cfg!(miri) { 512 } else { 50_000 };
    std::thread::spawn(|| {
        let mut g = pin();
        for _ in 0..OPS {
            let s = Shared::boxed(Counted);
            // SAFETY: never published; unique, retired once.
            unsafe { g.defer_drop(s) };
            g.repin();
        }
        let freed_while_live = DROPPED.load(Ordering::SeqCst);
        drop(g);
        assert!(
            freed_while_live >= OPS / 2,
            "repin path never collected: {freed_while_live} of {OPS} freed \
             while the guard was live"
        );
    })
    .join()
    .unwrap();
}

#[test]
fn nothing_is_freed_while_a_guard_can_reach_it() {
    let _shared = EPOCH_TO_ITSELF
        .read()
        .unwrap_or_else(PoisonError::into_inner);
    static DROPPED: AtomicUsize = AtomicUsize::new(0);

    struct Blocked;
    impl Drop for Blocked {
        fn drop(&mut self) {
            DROPPED.fetch_add(1, Ordering::SeqCst);
        }
    }

    // Reader pins and holds; every retirement below happens while the
    // reader could still (in principle) reach the node.
    let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let reader = std::thread::spawn(move || {
        let _g = pin();
        ready_tx.send(()).unwrap();
        hold_rx.recv().unwrap();
    });
    ready_rx.recv().unwrap();

    const RETIRED: usize = if cfg!(miri) { 64 } else { 500 };
    {
        let g = pin();
        for _ in 0..RETIRED {
            let s = Shared::boxed(Blocked);
            // SAFETY: unique allocation, retired once.
            unsafe { g.defer_drop(s) };
        }
        g.flush();
    }
    // Try hard to reclaim; the pinned reader must hold everything back.
    for _ in 0..64 {
        let g = pin();
        g.flush();
    }
    assert_eq!(
        DROPPED.load(Ordering::SeqCst),
        0,
        "nodes freed under a live guard"
    );

    hold_tx.send(()).unwrap();
    reader.join().unwrap();
    assert!(
        churn_until(
            || DROPPED.load(Ordering::SeqCst) == RETIRED,
            Duration::from_secs(30),
        ),
        "dropped {} of {RETIRED} after release",
        DROPPED.load(Ordering::SeqCst)
    );
}

/// Readers continuously dereference epoch-protected nodes and validate a
/// canary while writers swap and retire them. A premature free shows up as
/// a corrupted canary (in practice) long before anything else.
#[test]
fn canary_survives_concurrent_swap_and_retire() {
    let _shared = EPOCH_TO_ITSELF
        .read()
        .unwrap_or_else(PoisonError::into_inner);
    const CANARY: u64 = 0xDEAD_BEEF_CAFE_F00D;
    const SLOTS: usize = 8;
    const WRITER_OPS: usize = if cfg!(miri) { 200 } else { 4_000 };

    struct Node {
        canary: u64,
        payload: u64,
    }

    let slots: Arc<Vec<Atomic<Node>>> = Arc::new(
        (0..SLOTS)
            .map(|i| {
                Atomic::new(Node {
                    canary: CANARY,
                    payload: i as u64,
                })
            })
            .collect(),
    );
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let slots = Arc::clone(&slots);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut checksum = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let g = pin();
                    for slot in slots.iter() {
                        let s = slot.load(&g);
                        // SAFETY: loaded under the pin guard.
                        let n = unsafe { s.deref() };
                        assert_eq!(n.canary, CANARY, "use-after-free detected");
                        checksum = checksum.wrapping_add(n.payload);
                    }
                }
                checksum
            })
        })
        .collect();

    {
        let writer_slots = Arc::clone(&slots);
        for op in 0..WRITER_OPS {
            let g = pin();
            let idx = op % SLOTS;
            let fresh = Shared::boxed(Node {
                canary: CANARY,
                payload: op as u64,
            });
            let old = writer_slots[idx].swap(fresh, &g);
            // SAFETY: `old` was just unlinked from the only shared slot
            // holding it, and is retired exactly once.
            unsafe { g.defer_drop(old) };
            if op % 256 == 0 {
                std::thread::yield_now();
            }
        }
    }

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    // Teardown: retire the final nodes through the normal path.
    {
        let g = pin();
        for slot in slots.iter() {
            let last = slot.swap(Shared::null(), &g);
            // SAFETY: unlinked above; unique retire.
            unsafe { g.defer_drop(last) };
        }
        g.flush();
    }
}
