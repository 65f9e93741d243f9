//! Interleaving models for the emulated-HTM commit (`csds_htm`): a
//! speculative section names the locks its write phase would take, and
//! `Tx::commit` try-locks them, validates, writes and releases. The commit
//! and the locked write phase then follow one lock discipline, so they
//! exclude each other on the structure's own lock word and on nothing
//! else. On the production `TxRegion`, `attempt_elision` and `TasLock`:
//!
//! * a speculative claimant and a locked claimant of the same
//!   `(marked, link)` pair — the shape of two removers of one list node —
//!   behind one lock: exactly one of them claims the node in every
//!   schedule;
//! * two commits on disjoint locks and words both commit in every
//!   schedule: no commit waits on, or aborts for, a lock it did not name;
//! * the seeded negative's speculative body omits the lock. The checker must
//!   find the schedule in which its commit lands between the locked
//!   claimant's validation and its stores, and both claim the node: in a
//!   structure, both would unlink it and both would retire it.

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

/// One removal window: the node's structure lock, its `marked` flag and the
/// predecessor link that points at it.
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
}

/// Validate and claim in one speculative attempt (one is enough: a
/// claimant that does not commit claims nothing here). `named` says
/// whether the body names the window's lock, as the one rule requires.
fn speculative_claim(w: &Window, named: bool) -> bool {
    let out = attempt_elision(&w.region, 1, |tx| {
        if named {
            tx.lock(&w.lock);
        }
        if tx.read(&w.marked) != 0 || tx.read(&w.link) != LINKED {
            return SpecStep::Invalid;
        }
        tx.write(&w.marked, 1);
        tx.write(&w.link, UNLINKED);
        SpecStep::Commit(())
    });
    matches!(out, Elided::Committed(()))
}

/// The locked write phase: lock, validate, store.
fn locked_claim(w: &Window) -> bool {
    let _g = lock_guard(&w.lock);
    if w.marked.load(Ordering::Acquire) != 0 || w.link.load(Ordering::Acquire) != LINKED {
        return false;
    }
    w.marked.store(1, Ordering::Release);
    w.link.store(UNLINKED, Ordering::Release);
    true
}

/// Schedules one model may explore; exploration must end well before it.
const MAX_EXECUTIONS: u64 = 20_000;

fn model() -> Model {
    Model::new()
        // The negative's window is one preemption wide; two leave room for
        // the speculator to start, be preempted and commit late.
        .preemption_bound(2)
        .max_steps(2_000)
        .max_executions(MAX_EXECUTIONS)
}

fn race(named: bool) -> Report {
    model().run(move || {
        let w = Arc::new(Window::new());
        let w2 = Arc::clone(&w);
        let t = thread::spawn(move || speculative_claim(&w2, named));
        let mine = locked_claim(&w);
        let theirs = t.join().unwrap();
        assert!(mine || theirs, "nobody claimed the node");
        assert!(!(mine && theirs), "both claimed the node");
    })
}

fn print(name: &str, r: &Report) {
    println!(
        "{name}: {} executions, {} truncated",
        r.executions, r.truncated
    );
}

/// The locked claimant waits for the lock in a spin loop, so the model
/// cannot demand `truncated == 0`, for the reason `pq_popmin.rs` gives: the
/// checker finds schedules in which a committing speculator is preempted
/// for good while it holds the lock, and the waiter spins until the step
/// budget cuts it. Every schedule that terminates must pass, and the DFS
/// frontier — not the execution budget — must end exploration.
#[test]
fn a_commit_and_a_locked_write_on_one_lock_claim_exactly_once() {
    let report = race(true);
    print("one lock", &report);
    assert!(
        report.failure.is_none(),
        "a commit raced a locked write phase: {:?}",
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

/// Neither commit waits, so no schedule is cut.
#[test]
fn commits_on_disjoint_locks_both_commit() {
    let report = model().run(|| {
        let a = Arc::new(Window::new());
        let b = Arc::new(Window::new());
        let a2 = Arc::clone(&a);
        let t = thread::spawn(move || speculative_claim(&a2, true));
        let mine = speculative_claim(&b, true);
        let theirs = t.join().unwrap();
        assert!(mine && theirs, "a commit aborted on a lock it did not name");
    });
    print("disjoint locks", &report);
    assert!(
        report.failure.is_none(),
        "disjoint commits: {:?}",
        report.failure
    );
    assert_eq!(report.truncated, 0);
    assert!(report.executions > 1);
    assert!(report.executions < MAX_EXECUTIONS);
}

#[test]
fn a_commit_that_omits_the_lock_double_claims_and_the_checker_sees_it() {
    let report = race(false);
    print("lock omitted", &report);
    let f = report
        .failure
        .expect("a commit outside the write phase's lock must expose a double claim");
    assert!(f.message.contains("both claimed"), "message: {}", f.message);
    assert!(!f.schedule.is_empty());
}
