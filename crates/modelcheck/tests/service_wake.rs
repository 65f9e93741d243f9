//! Model of the service front-end's park/wake handshake
//! (`csds_service`: `try_submit` against the worker's pre-park sequence).
//!
//! The protocol, as shipped, lives on the ring's tail word:
//!
//! * **producer** — `ring.try_push(req)`; if it returns `Ok(true)` its
//!   claim took the worker's park announcement down, and it unparks the
//!   worker (after stamping, which `try_push` has done by then);
//! * **worker** — finds the ring empty and announces the park with
//!   [`Consumer::announce_park`], one CAS that expects the tail to equal
//!   the head: refused if anything was claimed, stamped or not, or if the
//!   ring is closed. It parks only if the announcement went up, and after
//!   waking clears a bit no push took ([`Consumer::withdraw_park`]);
//! * **shutdown** — `ring.close()`, then an unconditional `unpark`.
//!
//! There is no flag beside the ring and no fence: the tail's modification
//! order decides every race.
//!
//! `std::thread::park` cannot block inside the checker, so the park token
//! is a shim atomic and a park that finds no token ends the worker's part
//! of the model in the state "parked". The invariant is then a statement
//! about the final state: **a published request — or a closed ring — never
//! sits behind a parked worker with no unpark pending.**
//!
//! The `mpsc_ring.announce_on_stamp` knob makes the announcement decide on
//! the head slot's stamp instead of the tail. A producer that claimed its
//! slot before the bit went up but has not stamped it yet then looks like
//! an empty ring, sees no announcement, and the worker sleeps on its
//! request: the checker must catch that.

use csds_modelcheck::{thread, AtomicBool, Model};
use csds_sync::mpsc_ring::Consumer;
use csds_sync::MpscRing;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Core {
    ring: MpscRing<u64>,
    /// The worker thread's park token: `unpark` sets it, `park` takes it.
    token: AtomicBool,
}

impl Core {
    fn new() -> Arc<Core> {
        Arc::new(Core {
            ring: MpscRing::with_capacity(2),
            token: AtomicBool::new(false),
        })
    }

    fn unpark(&self) {
        self.token.store(true, Ordering::SeqCst);
    }

    /// A park that ends the worker's part of the model when no token is
    /// there: `true` means "parked, blocked until somebody unparks".
    fn parks(&self) -> bool {
        !self.token.swap(false, Ordering::SeqCst)
    }
}

/// Model bookkeeping (a plain std atomic, not protocol state): times an
/// announcement was refused while a producer had claimed the tail but not
/// yet stamped its slot.
static REFUSED_UNSTAMPED: AtomicUsize = AtomicUsize::new(0);

/// `try_submit`'s enqueue-and-wake tail; returns whether it unparked.
fn submit(core: &Core, req: u64) -> bool {
    let woke = core.ring.try_push(req).expect("a push into a roomy ring");
    if woke {
        core.unpark();
    }
    woke
}

/// Where one idle episode of the worker loop ended.
enum Episode {
    /// Drained a request, before or after a park.
    Executed(u64),
    /// The announcement was refused: the worker goes round again.
    Refused,
    /// Parked with no token: blocked until an unpark.
    Parked,
}

/// An empty drain, the park announcement, and (if woken) the drain after
/// the park.
fn idle_episode(core: &Core, rx: &Consumer<'_, u64>) -> Episode {
    if let Some(req) = rx.pop() {
        return Episode::Executed(req);
    }
    // Bookkeeping only: `is_empty()` reads the tail, `pop_ready()` the stamp.
    let unstamped = !core.ring.is_empty() && !rx.pop_ready();
    if !rx.announce_park() {
        if unstamped {
            REFUSED_UNSTAMPED.fetch_add(1, Ordering::Relaxed);
        }
        return Episode::Refused;
    }
    if core.parks() {
        return Episode::Parked;
    }
    rx.withdraw_park();
    // An unpark is only ever sent after a stamped push.
    Episode::Executed(rx.pop().expect("woken without a published request"))
}

fn handshake() {
    let core = Core::new();
    let rx = core.ring.consumer().expect("the ring's one consumer");
    let c2 = Arc::clone(&core);
    let producer = thread::spawn(move || submit(&c2, 7));
    let episode = idle_episode(&core, &rx);
    producer.join().unwrap();
    match episode {
        Episode::Executed(req) => assert_eq!(req, 7),
        // Going round finds the request: the push has completed.
        Episode::Refused => assert_eq!(rx.pop(), Some(7), "a refusal with no request behind it"),
        // The worker parked and the push has completed, so the request is
        // in the ring: the unpark that will wake the worker must be there.
        Episode::Parked => assert!(
            core.token.load(Ordering::SeqCst),
            "lost wakeup: request published, worker parked, no unpark pending"
        ),
    }
}

#[test]
fn no_schedule_parks_the_worker_on_a_published_request() {
    let report = Model::new().check(handshake);
    assert!(report.complete, "handshake model must be fully explored");
    assert!(
        REFUSED_UNSTAMPED.load(Ordering::Relaxed) > 0,
        "never explored an announcement behind a claimed-but-unstamped slot"
    );
}

/// The seeded negative: an announcement that reads the head slot's stamp
/// instead of the tail parks behind a producer that claimed before the bit
/// went up, and that producer's `try_push` reports no wake-up.
#[test]
fn checker_catches_an_announcement_that_ignores_an_unstamped_claim() {
    let report = Model::new()
        .cfg("mpsc_ring.announce_on_stamp", 1)
        .run(handshake);
    let f = report
        .failure
        .expect("deciding on the stamp must lose the wakeup in some schedule");
    assert!(
        f.message.contains("lost wakeup"),
        "unexpected failure: {}",
        f.message
    );
}

/// Two producers race one parking worker. Whatever the order of the three
/// tail RMWs, the wake-up is not lost, and exactly the claim that follows
/// a successful announcement unparks: one producer if the worker
/// announced, none if it was refused.
#[test]
fn two_producers_racing_a_park_wake_the_worker_once() {
    let report = Model::new().check(|| {
        let core = Core::new();
        let rx = core.ring.consumer().expect("the ring's one consumer");
        let (c1, c2) = (Arc::clone(&core), Arc::clone(&core));
        let p1 = thread::spawn(move || submit(&c1, 1));
        let p2 = thread::spawn(move || submit(&c2, 2));
        let announced = rx.announce_park();
        let parked = announced && core.parks();
        if announced && !parked {
            rx.withdraw_park();
        }
        let (w1, w2) = (p1.join().unwrap(), p2.join().unwrap());
        assert!(
            !parked || core.token.load(Ordering::SeqCst),
            "lost wakeup: two requests published, worker parked, no unpark pending"
        );
        assert!(!(w1 && w2), "both producers unparked the worker");
        assert_eq!(
            w1 || w2,
            announced,
            "an unpark without an announcement, or an announcement nobody took"
        );
        let mut got = vec![rx.pop().unwrap(), rx.pop().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    });
    assert!(report.complete, "two-producer model must be fully explored");
    assert!(report.executions > 1);
}

/// `shutdown_inner`'s per-core step against the same pre-park sequence:
/// `close()` then an unconditional unpark. The worker either announced
/// before the close — and the unpark wakes it — or finds its announcement
/// refused; either way it goes round to its exit test, and from then on
/// every announcement is refused.
#[test]
fn no_schedule_parks_the_worker_on_a_closed_ring() {
    let report = Model::new().check(|| {
        let core = Core::new();
        let rx = core.ring.consumer().expect("the ring's one consumer");
        let c2 = Arc::clone(&core);
        let shutdown = thread::spawn(move || {
            c2.ring.close();
            c2.unpark();
        });
        let announced = rx.announce_park();
        let parked = announced && core.parks();
        if announced && !parked {
            rx.withdraw_park();
        }
        shutdown.join().unwrap();
        assert!(
            !parked || core.token.load(Ordering::SeqCst),
            "lost wakeup: ring closed, worker parked, no unpark pending"
        );
        if !parked {
            assert!(core.ring.is_closed() && core.ring.is_empty(), "no exit");
            assert!(!rx.announce_park(), "announced on a closed ring");
        }
    });
    assert!(report.complete, "shutdown handshake must be fully explored");
    assert!(report.executions > 1);
}
