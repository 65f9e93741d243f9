//! The priority-queue family, exercised through the harness's `PqKind`
//! trait objects: sequential conformance against `BTreeMap::pop_first`
//! through both call paths, and recorded concurrent histories fed to the
//! priority-ordering checker, plain and with every lock holder stalled.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use csds::harness::PqKind;
use csds::lincheck::{check_pq_history, PqEvent, PqOpKind};
use csds::metrics::DelayPolicy;
use csds::pq::{ConcurrentPq, PqHandle};

fn rng_stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Drive one queue against a `BTreeMap` model: random push / pop-min /
/// peek-min over a small priority space, comparing every response.
fn model_check_pq(kind: PqKind, ops: usize, keys: u64, seed: u64) {
    let pq = kind.make();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = rng_stream(seed);
    for i in 0..ops {
        let key = rng() % keys;
        match rng() % 4 {
            0 | 1 => {
                let v = rng();
                // Set semantics: a duplicate push is rejected and the old
                // value stays — mirror that in the model (entry, not insert).
                let vacant = !model.contains_key(&key);
                if vacant {
                    model.insert(key, v);
                }
                assert_eq!(
                    pq.push(key, v),
                    vacant,
                    "{}: push {key} at op {i}",
                    kind.name()
                );
            }
            2 => assert_eq!(
                pq.pop_min(),
                model.pop_first(),
                "{}: pop_min at op {i}",
                kind.name()
            ),
            _ => assert_eq!(
                pq.peek_min(),
                model.first_key_value().map(|(&k, &v)| (k, v)),
                "{}: peek_min at op {i}",
                kind.name()
            ),
        }
        assert_eq!(pq.len(), model.len(), "{}: len at op {i}", kind.name());
    }
}

/// The same model comparison through a `PqHandle` session (guard reuse +
/// repin), cloning values out for the comparison.
fn model_check_pq_handle(kind: PqKind, ops: usize, keys: u64, seed: u64) {
    let pq = kind.make();
    let mut h = PqHandle::new(pq.as_ref());
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = rng_stream(seed);
    for i in 0..ops {
        let key = rng() % keys;
        match rng() % 4 {
            0 | 1 => {
                let v = rng();
                let vacant = !model.contains_key(&key);
                if vacant {
                    model.insert(key, v);
                }
                assert_eq!(
                    h.push(key, v),
                    vacant,
                    "{}: handle push {key} at op {i}",
                    kind.name()
                );
            }
            2 => assert_eq!(
                h.pop_min_cloned(),
                model.pop_first(),
                "{}: handle pop_min at op {i}",
                kind.name()
            ),
            _ => assert_eq!(
                h.peek_min().map(|(k, &v)| (k, v)),
                model.first_key_value().map(|(&k, &v)| (k, v)),
                "{}: handle peek_min at op {i}",
                kind.name()
            ),
        }
    }
    assert_eq!(h.ops(), ops as u64, "{}: session op count", kind.name());
    assert_eq!(h.stalled_ops(), 0, "{}: no repin stalls", kind.name());
}

/// Record a short concurrent push/pop/peek history on `kind`. `stall`
/// arms a [`DelayPolicy`] on every recording thread that holds each
/// critical section for 1–100 µs. Also returns how many delays were
/// injected.
fn record_pq_history(
    kind: PqKind,
    threads: usize,
    ops_per_thread: usize,
    keys: u64,
    stall: bool,
    seed: u64,
) -> (Vec<PqEvent>, u64) {
    let pq = Arc::new(kind.make());
    let origin = Instant::now();
    let barrier = Arc::new(Barrier::new(threads));
    let events = Arc::new(Mutex::new((Vec::new(), 0u64)));
    let mut handles = Vec::new();
    for t in 0..threads {
        let pq = Arc::clone(&pq);
        let barrier = Arc::clone(&barrier);
        let events = Arc::clone(&events);
        handles.push(std::thread::spawn(move || {
            let mut rng = rng_stream(seed ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            let mut local = Vec::new();
            // The policy and the counters are thread-local, and this thread
            // ends with the history.
            if stall {
                csds::metrics::set_delay_policy(Some(DelayPolicy {
                    every: 1,
                    min_ns: 1_000,
                    max_ns: 100_000,
                    seed: rng(),
                }));
            }
            let _ = csds::metrics::take_and_reset();
            barrier.wait();
            for _ in 0..ops_per_thread {
                let key = rng() % keys;
                let arm = rng() % 3;
                let invoke = origin.elapsed().as_nanos() as u64;
                let kind = match arm {
                    0 => PqOpKind::Push {
                        ok: pq.push(key, key),
                    },
                    1 => PqOpKind::PopMin {
                        popped: pq.pop_min().map(|(k, _)| k),
                    },
                    _ => PqOpKind::PeekMin {
                        seen: pq.peek_min().map(|(k, _)| k),
                    },
                };
                let respond = origin.elapsed().as_nanos() as u64;
                local.push(PqEvent::new(key, kind, invoke, respond.max(invoke)));
            }
            let mut events = events.lock().unwrap();
            events.0.extend(local);
            events.1 += csds::metrics::take_and_reset().injected_delays;
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    Arc::try_unwrap(events).unwrap().into_inner().unwrap()
}

/// Record and check `rounds` histories; returns the injected delays.
fn check_pq_kind(kind: PqKind, stall: bool, rounds: u64) -> u64 {
    let mut delays = 0;
    for round in 0..rounds {
        // 3 threads x 8 ops over 4 priorities: small enough for the
        // interval analysis, contended enough to race pop-min at the head.
        let (history, injected) = record_pq_history(kind, 3, 8, 4, stall, 0x5EED + round);
        let result = check_pq_history(&history);
        assert!(
            result.is_ok(),
            "{}: round {round} violates priority ordering (stall={stall}): {result:?}\nhistory: {history:#?}",
            kind.name()
        );
        delays += injected;
    }
    delays
}

#[test]
fn both_queues_match_the_sequential_model() {
    for &kind in PqKind::all() {
        model_check_pq(kind, 3_000, 48, 0xBEAD);
    }
}

#[test]
fn both_queues_match_the_sequential_model_through_handles() {
    for &kind in PqKind::all() {
        model_check_pq_handle(kind, 3_000, 48, 0xD1A1);
    }
}

#[test]
fn both_queues_pass_the_priority_ordering_checker() {
    for &kind in PqKind::all() {
        check_pq_kind(kind, false, 6);
    }
}

#[test]
fn both_queues_pass_the_priority_ordering_checker_under_stalled_lock_holders() {
    // A stalled Pugh popper or pusher holds the head lock across all of
    // its tower's levels, so every other pop and every push of a new
    // minimum waits out the stall. The lock-free queue has no critical
    // section to stall and runs the same rounds as a control.
    for &kind in PqKind::all() {
        let delays = check_pq_kind(kind, true, 6);
        if kind.is_blocking() {
            assert!(delays > 0, "{}: no lock holder was stalled", kind.name());
        }
    }
}

#[test]
fn queues_and_maps_share_the_key_space_contract() {
    // The documented user key range applies to priorities too: extremes
    // round-trip, sentinels are rejected.
    use csds::core::MAX_USER_KEY;
    for &kind in PqKind::all() {
        let pq = kind.make();
        for k in [0, MAX_USER_KEY] {
            assert!(pq.push(k, 7), "{}: push {k:#x}", kind.name());
        }
        assert_eq!(pq.pop_min(), Some((0, 7)), "{}", kind.name());
        assert_eq!(pq.pop_min(), Some((MAX_USER_KEY, 7)), "{}", kind.name());
        for reserved in [u64::MAX, u64::MAX - 1] {
            let pq = kind.make();
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pq.push(reserved, 1);
            }))
            .is_err();
            assert!(
                panicked,
                "{}: reserved priority {reserved:#x} must be rejected",
                kind.name()
            );
        }
    }
}
