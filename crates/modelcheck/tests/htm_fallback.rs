//! Interleaving models for the order rule of elided write phases
//! (`csds_htm`): a locked write phase takes the region's sequence lock
//! *after* the structure's locks and *before* it validates, and holds it
//! through its last store.
//!
//! Speculators never read a structure lock word, so the sequence lock is
//! all that orders a speculative commit against a locked write phase. The
//! models race one speculative claimant and one locked claimant of the same
//! `(marked, link)` pair — the shape of two removers of one list node —
//! on the production `TxRegion`, `attempt_elision` and `TasLock`:
//!
//! * in the production order, exactly one of them claims the node in every
//!   schedule;
//! * the seeded negative validates first and enters the region afterwards.
//!   The checker must find the schedule in which a commit lands between the
//!   two, and both claim the node: in a structure, both would unlink it and
//!   both would retire it.

use std::sync::Arc;
use std::time::Duration;

use csds_htm::{attempt_elision, Elided, SpecStep, TxRegion};
use csds_modelcheck::{thread, Model, Report};
use csds_sync::atomic::{AtomicUsize, Ordering};
use csds_sync::{lock_guard, RawMutex, TasLock};

/// `link` points at the node.
const LINKED: usize = 1;
/// `link` points past the node: it has been unlinked.
const UNLINKED: usize = 2;

/// One removal window: the node's structure lock, its `marked` flag and
/// the predecessor link that points at it, in one elision region.
struct Window {
    region: TxRegion,
    lock: TasLock,
    marked: AtomicUsize,
    link: AtomicUsize,
}

impl Window {
    fn new() -> Self {
        Window {
            // No emulated interrupts: only the order of steps decides.
            region: TxRegion::with_quantum(Duration::from_secs(300)),
            lock: TasLock::new(),
            marked: AtomicUsize::new(0),
            link: AtomicUsize::new(LINKED),
        }
    }

    fn unclaimed(&self) -> bool {
        self.marked.load(Ordering::Acquire) == 0 && self.link.load(Ordering::Acquire) == LINKED
    }

    fn claim(&self) {
        self.marked.store(1, Ordering::Release);
        self.link.store(UNLINKED, Ordering::Release);
    }
}

/// Validate and claim in one speculative attempt (one is enough: a
/// claimant that does not commit claims nothing here).
fn speculative_claim(w: &Window) -> bool {
    let out = attempt_elision(&w.region, 1, |tx| {
        if tx.read(&w.marked) != 0 || tx.read(&w.link) != LINKED {
            return SpecStep::Invalid;
        }
        tx.write(&w.marked, 1);
        tx.write(&w.link, UNLINKED);
        SpecStep::Commit(())
    });
    matches!(out, Elided::Committed(()))
}

/// The production order: structure lock, region, validation, stores.
fn locked_claim(w: &Window) -> bool {
    let _g = lock_guard(&w.lock);
    let _fb = w.region.enter_fallback();
    if !w.unclaimed() {
        return false;
    }
    w.claim();
    true
}

/// Seeded negative: validation before the region is entered.
fn locked_claim_validating_first(w: &Window) -> bool {
    let _g = lock_guard(&w.lock);
    if !w.unclaimed() {
        return false;
    }
    let _fb = w.region.enter_fallback();
    w.claim();
    true
}

/// Schedules one model may explore; exploration must end well before it.
const MAX_EXECUTIONS: u64 = 20_000;

fn race(locked: fn(&Window) -> bool) -> Report {
    Model::new()
        // The negative's window is one preemption wide; two leave room for
        // the speculator to start, be preempted and commit late.
        .preemption_bound(2)
        .max_steps(2_000)
        .max_executions(MAX_EXECUTIONS)
        .run(move || {
            let w = Arc::new(Window::new());
            let w2 = Arc::clone(&w);
            let t = thread::spawn(move || speculative_claim(&w2));
            let mine = locked(&w);
            let theirs = t.join().unwrap();
            assert!(mine || theirs, "nobody claimed the node");
            assert!(!(mine && theirs), "both claimed the node");
        })
}

/// The locked claimant waits for the sequence lock in a spin loop, so the
/// model cannot demand `truncated == 0`, for the reason `pq_popmin.rs`
/// gives: the checker finds schedules in which a committing speculator is
/// preempted for good and the waiter spins until the step budget cuts it.
/// Every schedule that terminates must pass, and the DFS frontier — not
/// the execution budget — must end exploration. Exact counts at this
/// budget: 278 executions, 2 of them truncated.
#[test]
fn region_before_validation_claims_exactly_once() {
    let report = race(locked_claim);
    assert!(
        report.failure.is_none(),
        "locked write phase raced a commit: {:?}",
        report.failure
    );
    assert!(
        report.executions > report.truncated + 1,
        "too few complete schedules ({} executions, {} truncated)",
        report.executions,
        report.truncated
    );
    assert!(
        report.executions < MAX_EXECUTIONS,
        "execution budget exhausted before the schedule space was drained"
    );
}

/// Found after 269 executions at this budget.
#[test]
fn validation_before_region_double_claims_and_the_checker_sees_it() {
    let report = race(locked_claim_validating_first);
    let f = report
        .failure
        .expect("validating before entering the region must expose a double claim");
    assert!(f.message.contains("both claimed"), "message: {}", f.message);
    assert!(!f.schedule.is_empty());
}
