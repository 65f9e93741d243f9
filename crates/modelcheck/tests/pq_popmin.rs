//! Interleaving models for the pop-min race of both `csds_pq` queues.
//!
//! Lock-free Lotan–Shavit: two poppers chase one element, and under every
//! explored schedule **exactly one** wins the level-0 mark CAS and claims
//! the value; the loser either observes the queue empty or returns a
//! later element — never the same one, never a torn value.
//!
//! Blocking Pugh: the winner is whoever sets the victim's `deleted` flag
//! under its lock, and the unlink then holds the head lock across the
//! victim's levels — the lock a push of a new minimum needs for each of
//! its own levels. The models check exactly-once for two poppers, and
//! that a pop racing such a push loses neither element.
//!
//! This is the protocol the `pq_pop_contention` metric counts failures
//! of: the models prove the race is claim-exactly-once, the metric merely
//! reports how often it is lost.

use csds_modelcheck::{thread, Model};
use csds_pq::{ConcurrentPq, LotanShavitPq, PughPq};
use std::sync::Arc;

#[test]
fn two_poppers_one_element_exactly_one_wins() {
    let report = Model::new()
        // CHESS-style bound: a lost CAS needs only one untimely switch.
        .preemption_bound(2)
        .max_steps(50_000)
        .max_executions(30_000)
        .run(|| {
            let pq = Arc::new(LotanShavitPq::<u64>::new());
            assert!(pq.push(3, 33));
            let pq2 = Arc::clone(&pq);
            let t = thread::spawn(move || pq2.pop_min());
            let mine = pq.pop_min();
            let theirs = t.join().unwrap();
            match (mine, theirs) {
                // Exactly one popper claims the element, value intact.
                (Some((3, 33)), None) | (None, Some((3, 33))) => {}
                (a, b) => panic!("pop race broke exactly-once: {a:?} / {b:?}"),
            }
            assert!(pq.pop_min().is_none(), "element must not resurrect");
        });
    assert!(
        report.failure.is_none(),
        "pop-min race violated exactly-once: {:?}",
        report.failure
    );
    assert!(
        report.executions > 1,
        "the mark-CAS race must actually be explored"
    );
    assert_eq!(report.truncated, 0, "model must fit the step budget");
}

#[test]
fn loser_sees_the_next_element_not_the_same_one() {
    let report = Model::new()
        .preemption_bound(2)
        .max_steps(50_000)
        .max_executions(30_000)
        .run(|| {
            let pq = Arc::new(LotanShavitPq::<u64>::new());
            assert!(pq.push(1, 11));
            assert!(pq.push(2, 22));
            let pq2 = Arc::clone(&pq);
            let t = thread::spawn(move || pq2.pop_min());
            let mine = pq.pop_min();
            let theirs = t.join().unwrap();
            // Two elements, two poppers: between them they claim both,
            // each exactly once, in some order.
            let mut got = [mine, theirs];
            got.sort();
            assert_eq!(
                got,
                [Some((1, 11)), Some((2, 22))],
                "each element claimed exactly once"
            );
            assert!(pq.pop_min().is_none());
        });
    assert!(
        report.failure.is_none(),
        "two-element pop race failed: {:?}",
        report.failure
    );
    assert!(report.executions > 1);
    assert_eq!(report.truncated, 0);
}

const PUGH_MAX_EXECUTIONS: u64 = 30_000;

/// The Pugh models cannot demand `truncated == 0`, for the reason
/// `namespace_create.rs` gives: a waiter spins on a blocking `TasLock`, so
/// the checker finds schedules in which the holder is preempted for good
/// and the waiter spins until the step budget cuts it. Every schedule that
/// terminates must pass, and the DFS frontier — not the execution budget —
/// must end exploration.
fn assert_pugh_report(report: csds_modelcheck::Report, what: &str) {
    assert!(report.failure.is_none(), "{what}: {:?}", report.failure);
    assert!(
        report.executions > report.truncated + 1,
        "{what}: too few complete schedules ({} executions, {} truncated)",
        report.executions,
        report.truncated
    );
    assert!(
        report.executions < PUGH_MAX_EXECUTIONS,
        "{what}: execution budget exhausted before the schedule space was drained"
    );
}

#[test]
fn pugh_two_poppers_one_element_exactly_one_wins() {
    // Preemption bound 2 drains in ~100 executions, ~5 of them truncated.
    let report = Model::new()
        .preemption_bound(2)
        .max_steps(5_000)
        .max_executions(PUGH_MAX_EXECUTIONS)
        .run(|| {
            let pq = Arc::new(PughPq::<u64>::new());
            assert!(pq.push(3, 33));
            let pq2 = Arc::clone(&pq);
            let t = thread::spawn(move || pq2.pop_min());
            let mine = pq.pop_min();
            let theirs = t.join().unwrap();
            match (mine, theirs) {
                (Some((3, 33)), None) | (None, Some((3, 33))) => {}
                (a, b) => panic!("pop race broke exactly-once: {a:?} / {b:?}"),
            }
            assert!(pq.pop_min().is_none(), "element must not resurrect");
        });
    assert_pugh_report(report, "Pugh two-popper race");
}

#[test]
fn pugh_pop_racing_a_new_minimum_push_loses_nothing() {
    // Preemption bound 1 drains in a few dozen executions. Bound 2 drains
    // too, but takes ~5 000 executions and over half a minute in a debug
    // build, past this suite's budget.
    let report = Model::new()
        .preemption_bound(1)
        .max_steps(5_000)
        .max_executions(PUGH_MAX_EXECUTIONS)
        .run(|| {
            let pq = Arc::new(PughPq::<u64>::new());
            assert!(pq.push(5, 55));
            let pq2 = Arc::clone(&pq);
            let t = thread::spawn(move || assert!(pq2.push(2, 22)));
            let popped = pq.pop_min().expect("the queue is never empty");
            t.join().unwrap();
            // The pop takes whichever element was the minimum when it
            // linearized; the other one drains afterwards, exactly once.
            let mut got = vec![popped];
            while let Some(e) = pq.pop_min() {
                got.push(e);
            }
            assert!(
                got == [(2, 22), (5, 55)] || got == [(5, 55), (2, 22)],
                "pop racing a push of a new minimum: {got:?}"
            );
        });
    assert_pugh_report(report, "Pugh pop against a new-minimum push");
}
