//! Interleaving models for the EBR substrate (`csds_ebr`).
//!
//! The `modelcheck` feature makes the collector execution-scoped (fresh
//! epoch/registry/orphans per explored schedule) and routes every slot
//! publication, epoch CAS and fence through the shim atomics, so these
//! models check the production pin/repin/advance/collect protocol itself.
//!
//! The `ebr.maintenance_period` knob shrinks the amortization constant
//! (pins between maintenance ticks) to 1, so the handful of repins a model
//! can afford still reaches the advance/collect path. A tick advances and
//! collects only once the thread holds a bag of garbage (64 items); the
//! retirement models simply retire that many, which costs no scheduled
//! steps (a retirement touches no shim atomic). `ebr.omit_repin_maintenance`
//! re-introduces the historical "repin never collects" bug so we can
//! demonstrate the checker catches it; the negative runs the same session
//! as its positive twin, so it fails because of the omitted repin tick and
//! nothing else.

use csds_ebr::{pin, Shared};
use csds_modelcheck::Model;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Drop-counting payload. The counter is a plain std atomic on purpose:
/// it is model bookkeeping, not protocol state.
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Pending garbage at which a maintenance tick advances the epoch and
/// collects: one bag (the crate's `BAG_CAP`).
const BAG_CAP: usize = 64;

/// Retire a fresh drop-counted object through `g`.
fn retire_one(g: &csds_ebr::Guard, drops: &Arc<AtomicUsize>) {
    let s = Shared::boxed(Counted(Arc::clone(drops)));
    // SAFETY: never published; unique, retired once.
    unsafe { g.defer_drop(s) };
}

/// The session-handle pattern: one long-lived guard that retires garbage
/// and only ever `repin`s. A bag of retirements fills and seals the first
/// bag; with period 1 each repin is a maintenance tick, so three repins
/// advance the epoch to the bag's tag + 2 and collect it.
fn repin_driven_session() {
    let drops = Arc::new(AtomicUsize::new(0));
    let mut g = pin();
    for _ in 0..BAG_CAP {
        retire_one(&g, &drops);
    }
    assert!(g.repin(), "sole guard repin must be effective");
    assert!(g.repin());
    retire_one(&g, &drops);
    assert!(g.repin());
    assert!(g.repin());
    assert!(
        drops.load(Ordering::Relaxed) >= 1,
        "repin-driven session never reclaimed its garbage"
    );
    drop(g);
}

/// A long-lived guard that retires garbage and only ever `repin`s must
/// still reclaim: repins tick the maintenance counter.
#[test]
fn repin_driven_session_reclaims_garbage() {
    let report = Model::new()
        .cfg("ebr.maintenance_period", 1)
        .check(repin_driven_session);
    assert!(report.complete);
}

/// The acceptance demo: re-introduce the historical bug (repin skipping the
/// maintenance tick) via the model knob and confirm the same model FAILS —
/// i.e. the checker catches the regression that was fixed in the repin path.
#[test]
fn checker_catches_reintroduced_repin_maintenance_bug() {
    let report = Model::new()
        .cfg("ebr.maintenance_period", 1)
        .cfg("ebr.omit_repin_maintenance", 1)
        .run(repin_driven_session);
    let f = report
        .failure
        .expect("with repin maintenance omitted the session must leak");
    assert!(
        f.message.contains("never reclaimed"),
        "unexpected failure: {}",
        f.message
    );
}

/// Two live handles on one thread: repin must be inert (returning `false`)
/// while another guard's loaded pointers are at stake, and effective again
/// once the session is back to a single guard.
#[test]
fn second_handle_stalls_repin_until_dropped() {
    let report = Model::new().check(|| {
        let mut outer = pin();
        let mut inner = pin();
        assert!(
            !inner.repin(),
            "repin must be inert under a second live guard"
        );
        drop(inner);
        assert!(outer.repin(), "sole remaining guard must repin effectively");
        drop(outer);
    });
    assert!(report.complete);
}

/// Safety under concurrency: an object retired while another thread is
/// pinned *and holding a reference to it* is never reclaimed inside that
/// reference's lifetime, however the advance/collect steps interleave with
/// the reader's pin publication. (CHESS-style bound: every interleaving
/// with up to 2 preemptive switches.)
#[test]
fn retired_object_outlives_pinned_reader() {
    struct Tracked {
        val: csds_modelcheck::AtomicU64,
        in_use: Arc<AtomicBool>,
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            assert!(
                !self.in_use.load(Ordering::Relaxed),
                "reclaimed while a pinned reader held a reference"
            );
        }
    }

    let report = Model::new().preemption_bound(2).check(|| {
        let in_use = Arc::new(AtomicBool::new(false));
        let cell = Arc::new(csds_ebr::Atomic::new(Tracked {
            val: csds_modelcheck::AtomicU64::new(7),
            in_use: Arc::clone(&in_use),
        }));
        let (cell2, flag) = (Arc::clone(&cell), Arc::clone(&in_use));
        let reader = csds_modelcheck::thread::spawn(move || {
            let g = pin();
            let p = cell2.load(&g);
            // SAFETY: loaded under the pin; EBR must keep it live.
            if let Some(t) = unsafe { p.as_ref() } {
                flag.store(true, Ordering::Relaxed);
                // The shim load is a scheduling point inside the hazard
                // window, so the writer's flush can interleave here.
                assert_eq!(t.val.load(Ordering::SeqCst), 7);
                flag.store(false, Ordering::Relaxed);
            }
            drop(g);
        });
        {
            let g = pin();
            let old = cell.swap(Shared::null(), &g);
            // SAFETY: just unlinked; retired once.
            unsafe { g.defer_drop(old) };
            // Two forced maintenance rounds: enough epoch headroom to
            // free the object wherever the reader is not blocking it.
            g.flush();
            g.flush();
            drop(g);
        }
        reader.join().unwrap();
    });
    assert!(report.failure.is_none());
    assert!(report.executions > 1);
}
