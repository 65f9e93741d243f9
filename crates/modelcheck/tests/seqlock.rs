//! Exhaustive interleaving models for the OPTIK seqlock (`OptikLock`).
//!
//! These check the *production* `csds_sync::OptikLock` — the `modelcheck`
//! feature on `csds_sync` routes its version word through the shim atomics,
//! so every load/store/CAS below is a scheduling point.

use csds_modelcheck::{AtomicU64, Model};
use csds_sync::{OptikLock, RawMutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Two data words guarded by one seqlock. The writer keeps `a == b`; a torn
/// read observes them unequal.
struct Pair {
    lock: OptikLock,
    a: AtomicU64,
    b: AtomicU64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            lock: OptikLock::new(),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// A validated optimistic read never observes a torn pair: in every
/// interleaving of writer and reader, `read_validate` returning `true`
/// certifies that both data loads ran under an even, unchanged version.
#[test]
fn validated_read_is_never_torn() {
    let report = Model::new().check(|| {
        let p = Arc::new(Pair::new());
        let p2 = Arc::clone(&p);
        let writer = csds_modelcheck::thread::spawn(move || {
            let seen = p2.lock.version();
            if let Some(_g) = p2.lock.try_lock_version(seen) {
                p2.a.store(1, Ordering::Relaxed);
                p2.b.store(1, Ordering::Relaxed);
            }
        });
        if let Some(s) = p.lock.read_begin() {
            let a = p.a.load(Ordering::Relaxed);
            let b = p.b.load(Ordering::Relaxed);
            if p.lock.read_validate(s) {
                assert_eq!(a, b, "validated read observed a torn pair");
            }
        }
        writer.join().unwrap();
    });
    assert!(report.complete, "seqlock model must be fully explored");
    assert!(
        report.executions > 1,
        "must branch over writer/reader races"
    );
}

/// Sanity check that the checker *can* see the torn state `read_validate`
/// exists to reject: the same model with the validation dropped must fail.
#[test]
fn unvalidated_read_tears_and_the_checker_sees_it() {
    let report = Model::new().run(|| {
        let p = Arc::new(Pair::new());
        let p2 = Arc::clone(&p);
        let writer = csds_modelcheck::thread::spawn(move || {
            let seen = p2.lock.version();
            if let Some(_g) = p2.lock.try_lock_version(seen) {
                p2.a.store(1, Ordering::Relaxed);
                p2.b.store(1, Ordering::Relaxed);
            }
        });
        if p.lock.read_begin().is_some() {
            let a = p.a.load(Ordering::Relaxed);
            let b = p.b.load(Ordering::Relaxed);
            // Deliberately no read_validate: the speculative loads are used
            // as if they were certified.
            assert_eq!(a, b, "torn pair");
        }
        writer.join().unwrap();
    });
    let f = report
        .failure
        .expect("dropping read_validate must expose the torn interleaving");
    assert!(f.message.contains("torn pair"), "message: {}", f.message);
    assert!(!f.schedule.is_empty());
}

/// `try_lock_version` is mutually exclusive: of two threads CASing from the
/// same observed version, at most one wins, and updates under the lock are
/// never lost.
#[test]
fn try_lock_version_excludes_concurrent_writers() {
    let report = Model::new().check(|| {
        let p = Arc::new(Pair::new());
        // Plain std atomic: bookkeeping only, deliberately not a model step.
        let wins = Arc::new(AtomicUsize::new(0));
        let (p2, w2) = (Arc::clone(&p), Arc::clone(&wins));
        let t = csds_modelcheck::thread::spawn(move || {
            let seen = p2.lock.version();
            if let Some(g) = p2.lock.try_lock_version(seen) {
                let v = p2.a.load(Ordering::Relaxed);
                p2.a.store(v + 1, Ordering::Relaxed);
                drop(g);
                w2.fetch_add(1, Ordering::Relaxed);
            }
        });
        let seen = p.lock.version();
        if let Some(g) = p.lock.try_lock_version(seen) {
            let v = p.a.load(Ordering::Relaxed);
            p.a.store(v + 1, Ordering::Relaxed);
            drop(g);
            wins.fetch_add(1, Ordering::Relaxed);
        }
        t.join().unwrap();
        let expected = wins.load(Ordering::Relaxed) as u64;
        assert_eq!(
            p.a.load(Ordering::Relaxed),
            expected,
            "update lost under try_lock_version"
        );
        assert!(!p.lock.is_locked(), "lock leaked");
    });
    assert!(report.complete);
    assert!(report.executions > 1);
}
