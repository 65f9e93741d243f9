//! Interleaving models for the emulated-HTM commit (`csds_htm`): a write
//! phase is one body generic over the executor, which a `LockSet` runs
//! under the locks the body names and a `Tx` runs speculatively, its
//! commit try-locking the same locks, validating, writing and releasing.
//! The commit and the locked write phase then follow one lock discipline,
//! so they exclude each other on the structure's own lock word and on
//! nothing else. On the production `TxRegion`, `speculate`, `LockSet`,
//! `TasLock` and `OptikLock`:
//!
//! * (a) one claim of a `(marked, link)` pair — the shape of two removers
//!   of one list node — run by one thread through the lock set and by the
//!   other through a transaction, behind one lock: exactly one of them
//!   claims the node in every schedule;
//! * (b) two commits on disjoint locks and words both commit in every
//!   schedule: no commit waits on, or aborts for, a lock it did not name;
//! * (c) the seeded negative's body names no lock, so neither executor
//!   excludes the other. The checker must find the schedule in which both
//!   claim the node: in a structure, both would unlink it and both would
//!   retire it;
//! * (d) the BST-TK / lazy-ht shape: the claim takes one `OptikLock` at the
//!   version its parse saw, a lock-set `try_lock_version(seen)` against a
//!   commit at `seen`: exactly one claims.

use std::sync::Arc;
use std::time::Duration;

use csds_htm::{speculate, Exec, LockSet, Tx, TxRegion, VersionExec};
use csds_modelcheck::{thread, Model, Report};
use csds_sync::atomic::{AtomicUsize, Ordering};
use csds_sync::{OptikLock, RawMutex, TasLock};

/// `link` points at the node.
const LINKED: usize = 1;
/// `link` points past the node: it has been unlinked.
const UNLINKED: usize = 2;

/// One removal window: the node's structure lock `L`, its `marked` flag and
/// the predecessor link that points at it.
struct Window<L> {
    region: TxRegion,
    lock: L,
    marked: AtomicUsize,
    link: AtomicUsize,
}

impl<L: RawMutex> Window<L> {
    fn new() -> Self {
        Window {
            // No emulated interrupts: only the order of steps decides.
            region: TxRegion::with_quantum(Duration::from_secs(300)),
            lock: L::new(),
            marked: AtomicUsize::new(0),
            link: AtomicUsize::new(LINKED),
        }
    }
}

/// The one claim body: lock (if `named`, as the one rule requires),
/// validate, claim.
fn claim<'a>(e: &mut impl Exec<'a, TasLock>, w: &'a Window<TasLock>, named: bool) -> bool {
    if named {
        e.lock(&w.lock);
    }
    if e.read(&w.marked) != 0 || e.read(&w.link) != LINKED {
        return false;
    }
    e.write(&w.marked, 1);
    e.write(&w.link, UNLINKED);
    true
}

/// The version-lock claim: take the lock at the version `seen` the parse
/// observed, then claim; the version proves the window unchanged.
fn version_claim<'a>(e: &mut impl VersionExec<'a>, w: &'a Window<OptikLock>, seen: u64) -> bool {
    if !e.lock_version(&w.lock, seen) {
        return false;
    }
    e.write(&w.marked, 1);
    e.write(&w.link, UNLINKED);
    true
}

/// Run `body` once through a lock set; commit if it claimed.
fn locked<'a, L: RawMutex + 'a>(body: impl FnOnce(&mut LockSet<'a, L, 1>) -> bool) -> bool {
    let mut locks = LockSet::default();
    let claimed = body(&mut locks);
    if claimed {
        locks.commit();
    }
    claimed
}

/// Run `body` in one speculative attempt (one is enough: a claimant that
/// does not commit claims nothing here).
fn speculative<'a>(region: &'a TxRegion, body: impl FnMut(&mut Tx<'a>) -> bool) -> bool {
    speculate(region, 1, body) == Some(true)
}

/// The parse of the version-lock shape: the version, then the link it
/// guards. `None`: the node is gone already.
fn parse(w: &Window<OptikLock>) -> Option<u64> {
    let seen = w.lock.version();
    (w.link.load(Ordering::Acquire) == LINKED).then_some(seen)
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
        let w = Arc::new(Window::<TasLock>::new());
        let w2 = Arc::clone(&w);
        let t = thread::spawn(move || speculative(&w2.region, |tx| claim(tx, &w2, named)));
        let mine = locked(|locks| claim(locks, &w, named));
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

/// Model (a). The locked claimant waits for the lock in a spin loop, so the model
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

/// Model (b). Neither commit waits, so no schedule is cut.
#[test]
fn commits_on_disjoint_locks_both_commit() {
    let report = model().run(|| {
        let a = Arc::new(Window::<TasLock>::new());
        let b = Arc::new(Window::<TasLock>::new());
        let a2 = Arc::clone(&a);
        let t = thread::spawn(move || speculative(&a2.region, |tx| claim(tx, &a2, true)));
        let mine = speculative(&b.region, |tx| claim(tx, &b, true));
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

/// Negative (c).
#[test]
fn a_commit_that_omits_the_lock_double_claims_and_the_checker_sees_it() {
    let report = race(false);
    print("lock omitted", &report);
    let f = report
        .failure
        .expect("a body that names no lock must expose a double claim");
    assert!(f.message.contains("both claimed"), "message: {}", f.message);
    assert!(!f.schedule.is_empty());
}

/// Model (d). Neither claimant waits (a version take is a trylock), so no
/// schedule is cut.
#[test]
fn a_commit_and_a_locked_write_at_one_version_claim_exactly_once() {
    let report = model().run(|| {
        let w = Arc::new(Window::<OptikLock>::new());
        let w2 = Arc::clone(&w);
        let t = thread::spawn(move || {
            parse(&w2)
                .is_some_and(|seen| speculative(&w2.region, |tx| version_claim(tx, &w2, seen)))
        });
        let mine = parse(&w).is_some_and(|seen| locked(|locks| version_claim(locks, &w, seen)));
        let theirs = t.join().unwrap();
        assert!(mine || theirs, "nobody claimed the node");
        assert!(!(mine && theirs), "both claimed the node");
    });
    print("one version lock", &report);
    assert!(
        report.failure.is_none(),
        "a commit raced a version-locked write phase: {:?}",
        report.failure
    );
    assert_eq!(report.truncated, 0);
    assert!(report.executions > 1);
    assert!(report.executions < MAX_EXECUTIONS);
}
