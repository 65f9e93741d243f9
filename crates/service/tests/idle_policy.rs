//! The worker's idle policy, observed through `CoreStats` counters only
//! (never wall-clock time): a worker with a hardware thread to spare polls
//! across the gaps of a live request stream instead of parking in each one,
//! a worker without one behaves as it always did, and a shutdown that lands
//! in the middle of a poll still drains everything that was accepted.

use std::sync::{mpsc, Arc};

use csds_core::{hashtable::LazyHashTable, ConcurrentMap, GuardedMap};
use csds_service::{OpKind, Service, ServiceConfig, ServiceError};

fn one_core(map: &Arc<LazyHashTable<u64>>) -> Service<u64> {
    Service::start(
        Arc::clone(map) as Arc<dyn GuardedMap<u64>>,
        ServiceConfig {
            cores: 1,
            ..ServiceConfig::default()
        },
    )
}

fn spare_hardware_thread() -> bool {
    std::thread::available_parallelism().map_or(1, |n| n.get()) > 1
}

/// A closed loop of single requests is the stream with the most gaps: the
/// ring runs dry after every one of them. Before the spin-then-park policy
/// that was one park per request.
#[test]
fn sequential_round_trips_do_not_park_per_request() {
    const ROUND_TRIPS: u64 = 10_000;
    let map = Arc::new(LazyHashTable::with_capacity(64));
    let svc = one_core(&map);
    let client = svc.client();
    for k in 0..ROUND_TRIPS {
        let got = client.get(k % 64).unwrap().wait().unwrap();
        assert_eq!(got.value(), None);
    }
    let stats = svc.shutdown().aggregate();
    assert_eq!(stats.ops, ROUND_TRIPS);
    if spare_hardware_thread() {
        assert!(
            stats.parks < ROUND_TRIPS / 4,
            "worker parked {} times in {ROUND_TRIPS} round trips ({} spin refills)",
            stats.parks,
            stats.spin_refills
        );
        assert!(stats.spin_refills > 0);
    } else {
        // No spare thread, no budget: every idle wait goes straight down
        // the pre-park path, as before.
        assert_eq!(stats.spin_refills, 0);
    }
}

/// A client in a closed loop of single requests keeps the worker inside
/// its idle poll most of the time (the ring runs dry after every request).
/// `shutdown()` from another thread therefore lands in the poll, which does
/// not watch the shutdown flag: the flag is first seen when the budget
/// ends. Whatever the client got accepted before it was refused must have
/// executed exactly once by the time `shutdown()` returns.
#[test]
fn shutdown_during_the_idle_poll_drains_every_accepted_request() {
    for round in 0..50u64 {
        let map = Arc::new(LazyHashTable::with_capacity(256));
        let svc = one_core(&map);
        let (warmed_tx, warmed_rx) = mpsc::channel();
        let looper = {
            let client = svc.client();
            std::thread::spawn(move || {
                let mut accepted = 0u64;
                for k in 0.. {
                    // Vary how much traffic precedes the shutdown.
                    if k == round {
                        warmed_tx.send(()).unwrap();
                    }
                    match client.try_submit(k, OpKind::Insert(k)) {
                        Ok(c) => {
                            assert!(c.wait().unwrap().inserted(), "accepted op dropped");
                            accepted += 1;
                        }
                        Err(r) => {
                            assert_eq!(r.reason, ServiceError::ShuttingDown);
                            return accepted;
                        }
                    }
                }
                unreachable!()
            })
        };
        warmed_rx.recv().unwrap();
        let stats = svc.shutdown().aggregate();
        let accepted = looper.join().unwrap();
        assert!(accepted >= round);
        assert_eq!(stats.ops, accepted, "executed != accepted");
        assert_eq!(map.len() as u64, accepted, "an op ran twice or not at all");
    }
}
