//! Regression tests for the reclamation watchdog (PR 6 bug class).
//!
//! The PR 6 repin-starvation bug: a thread whose pin path never runs
//! maintenance — nested pins skip `acquire`, and before the fix an inert
//! `repin` skipped maintenance too — accumulates deferred garbage without
//! bound (~130 MB per 2 M RMWs when it was live). The observability layer's
//! watchdog makes that class a first-class, release-build-visible signal:
//! a `csds_metrics::ebr_stall` counter + trace event fires every time a
//! thread's pending queue crosses the watchdog threshold without being
//! collected.
//!
//! These tests re-create the starvation shape with the production API (a
//! long-lived outer guard makes every inner pin nested, so no pin ever runs
//! maintenance — exactly the behaviour the `ebr.omit_repin_maintenance`
//! model knob re-introduces for the checker) and assert the watchdog fires;
//! the control asserts a healthy loop stays silent.

use std::sync::{Mutex, MutexGuard, PoisonError};

use csds_ebr::{health, pin, set_watchdog_threshold, Atomic};

/// The tests share the process-wide epoch: while one holds a guard (the
/// starved thread's outer pin), a healthy loop running beside it cannot
/// collect and trips its own watchdog. Each test holds this for its body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Each spawned thread gets fresh thread-local metrics/EBR state, so the
/// scenarios don't contaminate each other (tests run in one process).
fn in_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().unwrap()
}

/// Defer `n` drops while an outer guard keeps every inner pin nested —
/// the starved shape: no `acquire`, no repin maintenance, no collection.
fn churn_starved(n: usize) -> csds_metrics::StatsSnapshot {
    let _ = csds_metrics::take_and_reset();
    set_watchdog_threshold(64);
    let outer = pin();
    for i in 0..n {
        let g = pin(); // nested: never runs acquire()/maintenance
        let slot = Atomic::new(i as u64);
        let s = slot.load(&g);
        // SAFETY: freshly allocated, unlinked, retired exactly once —
        // `Atomic` has no drop glue, so discarding `slot` leaves the
        // allocation to the deferred dropper.
        unsafe { g.defer_drop(s) };
        drop(g);
    }
    drop(outer);
    csds_metrics::take_and_reset()
}

#[test]
fn watchdog_fires_under_repin_starvation() {
    let _serial = serial();
    let snap = in_fresh_thread(|| churn_starved(400));
    assert!(
        snap.ebr_stall_events >= 400 / 64,
        "starved thread crossed the 64-item threshold repeatedly but the \
         watchdog fired only {} times",
        snap.ebr_stall_events
    );
    // The starved phase must also be visible in the garbage gauges while it
    // is running; afterwards a healthy thread can drain the orphaned
    // backlog donated at the starved thread's exit.
    in_fresh_thread(|| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while health().garbage_items > 64 && std::time::Instant::now() < deadline {
            pin().flush();
            std::thread::yield_now();
        }
        let h = health();
        assert!(
            h.garbage_items <= 64,
            "orphaned starvation backlog never drained: {} items / {} bytes",
            h.garbage_items,
            h.garbage_bytes
        );
    });
}

#[test]
fn watchdog_stays_silent_on_healthy_churn() {
    let _serial = serial();
    let snap = in_fresh_thread(|| {
        let _ = csds_metrics::take_and_reset();
        // A healthy thread's pending count legitimately hovers around a few
        // bags' worth of items (open bag of 64 + sealed bags waiting out the
        // two-epoch grace period), so the threshold must sit above that
        // steady state — as the production default (4096) does. 512 keeps the
        // test sharp: starved churn of the same size would cross it.
        set_watchdog_threshold(512);
        for i in 0..2_000usize {
            let g = pin(); // top-level pin: amortized maintenance runs
            let slot = Atomic::new(i as u64);
            let s = slot.load(&g);
            // SAFETY: as in `churn_starved`.
            unsafe { g.defer_drop(s) };
            drop(g);
        }
        csds_metrics::take_and_reset()
    });
    assert_eq!(
        snap.ebr_stall_events, 0,
        "healthy single-guard churn must not trip the watchdog"
    );
    assert!(
        snap.ebr_collects > 0,
        "healthy churn should have run amortized collection passes"
    );
    assert!(snap.epoch_advances > 0, "epoch should advance under churn");
}

#[test]
fn health_reports_pinned_lag() {
    let _serial = serial();
    in_fresh_thread(|| {
        let _g = pin();
        let h = health();
        assert!(h.active_participants >= 1);
        assert!(h.pinned_participants >= 1);
        assert_eq!(h.pinned_lags.len(), h.pinned_participants);
        // This thread just pinned at the current epoch; its own lag is 0 or
        // 1 (an advance may race), so max lag only exceeds that if some
        // other test's thread is stalled — don't assert an upper bound.
    });
}
