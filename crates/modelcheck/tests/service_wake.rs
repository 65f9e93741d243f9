//! Model of the service front-end's sleep/wake handshake
//! (`csds_service`: `try_submit` against the worker's pre-park sequence).
//!
//! The protocol, as shipped:
//!
//! * **producer** — `ring.try_push(req)`, `fence(SeqCst)`, then
//!   load-before-swap on the core's `sleeping` flag and an `unpark` if the
//!   swap took it down;
//! * **worker** — finds the ring empty, stores `sleeping = true`,
//!   `fence(SeqCst)`, re-checks the ring with the tail-free consumer probe
//!   ([`MpscRing::pop_ready`]) and asks [`MpscRing::is_closed`], and parks
//!   only if the probe still says empty and the ring is open;
//! * **shutdown** — `ring.close()`, then the same swap on `sleeping` and
//!   `unpark` a producer does. There is no shutdown flag in the handshake:
//!   the closed bit on the ring's tail is what the worker's re-check reads.
//!
//! The probe reads the head slot's *stamp*, not the producers' tail, so a
//! producer that has claimed the tail but not yet stamped its slot looks
//! like an empty ring to the worker. That is sound only because the
//! producer reads `sleeping` *after* stamping: the model explores that
//! schedule with every other one.
//!
//! `std::thread::park` cannot block inside the checker, so the park token
//! is a shim atomic and a park that finds no token ends the worker's part
//! of the model in the state "parked". The invariant is then a statement
//! about the final state: **a published request — or a closed ring — never
//! sits behind a parked worker with no unpark pending.**
//!
//! `recheck = false` re-introduces the classic lost wakeup (raise the flag,
//! park, never look again) to show the checker catches it.

use csds_modelcheck::{fence, thread, AtomicBool, Model};
use csds_sync::MpscRing;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Core {
    ring: MpscRing<u64>,
    sleeping: AtomicBool,
    /// The worker thread's park token: `unpark` sets it, `park` takes it.
    token: AtomicBool,
}

/// Model bookkeeping (a plain std atomic, not protocol state): times the
/// re-check read "empty" while a producer had claimed the tail but not yet
/// stamped its slot.
static PROBED_UNSTAMPED: AtomicUsize = AtomicUsize::new(0);

/// `try_submit`'s enqueue-and-wake tail.
fn submit(core: &Core, req: u64) {
    core.ring
        .try_push(req)
        .expect("one push into an empty ring");
    fence(Ordering::SeqCst);
    if core.sleeping.load(Ordering::SeqCst) && core.sleeping.swap(false, Ordering::SeqCst) {
        core.token.store(true, Ordering::SeqCst); // unpark
    }
}

/// One idle episode of the worker loop: an empty drain, the pre-park
/// sequence, and (if woken) the drain after the park. Returns what it
/// executed.
fn worker(core: &Core, recheck: bool) -> Option<u64> {
    if let Some(req) = core.ring.pop() {
        return Some(req);
    }
    core.sleeping.store(true, Ordering::SeqCst);
    fence(Ordering::SeqCst);
    // Bookkeeping only: `is_empty()` reads the tail, which the probe does not.
    let claimed = !core.ring.is_empty();
    if recheck && (core.ring.pop_ready() || core.ring.is_closed()) {
        core.sleeping.store(false, Ordering::SeqCst);
        // Nothing closes the ring in this model: it was the probe.
        return Some(core.ring.pop().expect("the probe promised this pop"));
    }
    if recheck && claimed {
        PROBED_UNSTAMPED.fetch_add(1, Ordering::Relaxed);
    }
    if !core.token.swap(false, Ordering::SeqCst) {
        return None; // parked: blocked until somebody sets the token
    }
    core.sleeping.store(false, Ordering::SeqCst);
    // An unpark is only ever sent after a completed push.
    Some(core.ring.pop().expect("woken without a published request"))
}

fn handshake(recheck: bool) {
    let core = Arc::new(Core {
        ring: MpscRing::with_capacity(2),
        sleeping: AtomicBool::new(false),
        token: AtomicBool::new(false),
    });
    let c2 = Arc::clone(&core);
    let producer = thread::spawn(move || submit(&c2, 7));
    let executed = worker(&core, recheck);
    producer.join().unwrap();
    match executed {
        Some(req) => assert_eq!(req, 7),
        // The worker parked and the push has completed, so the request is
        // in the ring: the unpark that will wake the worker must be there.
        None => assert!(
            core.token.load(Ordering::SeqCst),
            "lost wakeup: request published, worker parked, no unpark pending"
        ),
    }
}

#[test]
fn no_schedule_parks_the_worker_on_a_published_request() {
    let report = Model::new().check(|| handshake(true));
    assert!(report.complete, "handshake model must be fully explored");
    assert!(
        PROBED_UNSTAMPED.load(Ordering::Relaxed) > 0,
        "never explored the re-check behind a claimed-but-unstamped slot"
    );
}

/// The seeded negative: without the re-check after raising the flag, a push
/// that lands between the empty drain and the flag store sees `sleeping ==
/// false`, sends no unpark, and the worker parks on a non-empty ring.
#[test]
fn checker_catches_a_dropped_pre_park_recheck() {
    let report = Model::new().run(|| handshake(false));
    let f = report
        .failure
        .expect("without the re-check the wakeup must be lost in some schedule");
    assert!(
        f.message.contains("lost wakeup"),
        "unexpected failure: {}",
        f.message
    );
}

/// `shutdown_inner`'s per-core step against the same pre-park sequence: the
/// worker either sees the closed ring in its re-check (and goes round again
/// towards its exit test) or shutdown sees `sleeping` and unparks it.
#[test]
fn no_schedule_parks_the_worker_on_a_closed_ring() {
    let report = Model::new().check(|| {
        let core = Arc::new(Core {
            ring: MpscRing::with_capacity(2),
            sleeping: AtomicBool::new(false),
            token: AtomicBool::new(false),
        });
        let c2 = Arc::clone(&core);
        let shutdown = thread::spawn(move || {
            c2.ring.close();
            if c2.sleeping.swap(false, Ordering::SeqCst) {
                c2.token.store(true, Ordering::SeqCst); // unpark
            }
        });
        // The worker's pre-park sequence on an empty ring.
        core.sleeping.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let parked = !(core.ring.pop_ready() || core.ring.is_closed());
        shutdown.join().unwrap();
        assert!(
            !parked || core.token.load(Ordering::SeqCst),
            "lost wakeup: ring closed, worker parked, no unpark pending"
        );
    });
    assert!(report.complete, "shutdown handshake must be fully explored");
    assert!(report.executions > 1);
}
