//! `shutdown()` against clients that are pipelining `try_submit`: a
//! submission either enqueues and executes exactly once, or comes back with
//! its op. There is no flag for a submitter to re-check and no in-flight
//! counter for a worker to wait on — shutdown closes each core's ring, and
//! the ring's tail word settles every race.
//!
//! One client drops every other `Completion` unawaited, so the worker's
//! send races the receiver's drop: whichever comes second frees the reply
//! cell, and the requests still queued when shutdown lands are among them.

use std::sync::{Arc, Barrier};

use csds_core::{hashtable::LazyHashTable, ConcurrentMap, GuardedMap};
use csds_service::{OpKind, Reply, Service, ServiceConfig, ServiceError};
use csds_sync::atomic::{AtomicUsize, Ordering};

const ROUNDS: usize = 50;
const CLIENTS: u64 = 3;
/// Accepted submissions (over all clients) before `shutdown()` is called, so
/// it lands in the middle of live pipelines, not before or after them.
const ACCEPTED_BEFORE_SHUTDOWN: usize = 200;

#[test]
fn pipelined_submissions_racing_shutdown_execute_once_or_come_back() {
    for round in 0..ROUNDS {
        let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(1024));
        let svc = Service::start(
            Arc::clone(&map),
            ServiceConfig {
                cores: 2,
                ring_capacity: 64,
                max_batch: 8,
                ..ServiceConfig::default()
            },
        );
        let accepted = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(Barrier::new(CLIENTS as usize + 1));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = svc.client();
                let (accepted, start) = (Arc::clone(&accepted), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    // Disjoint keys per client, each submitted once: every
                    // accepted insert must report `Inserted(true)`.
                    let mut pending = Vec::new();
                    let mut key = c << 32;
                    loop {
                        match client.try_submit(key, OpKind::Insert(key)) {
                            Ok(reply) => {
                                if c == 0 && key % 2 == 1 {
                                    drop(reply);
                                } else {
                                    pending.push(reply);
                                }
                                accepted.fetch_add(1, Ordering::SeqCst);
                                key += 1;
                            }
                            Err(r) => {
                                assert_eq!(r.op, OpKind::Insert(key), "op not handed back");
                                match r.reason {
                                    ServiceError::Busy => std::thread::yield_now(),
                                    ServiceError::ShuttingDown => break,
                                    other => panic!("refused with {other:?}"),
                                }
                            }
                        }
                    }
                    for reply in pending {
                        assert_eq!(
                            reply.wait(),
                            Ok(Reply::Inserted(true)),
                            "round {round}: an accepted submission did not execute"
                        );
                    }
                })
            })
            .collect();
        start.wait();
        while accepted.load(Ordering::SeqCst) < ACCEPTED_BEFORE_SHUTDOWN {
            std::thread::yield_now();
        }
        let stats = svc.shutdown();
        for t in clients {
            t.join().unwrap();
        }
        let accepted = accepted.load(Ordering::SeqCst);
        assert_eq!(
            stats.aggregate().ops as usize,
            accepted,
            "round {round}: executed != accepted"
        );
        assert_eq!(map.len(), accepted, "round {round}: map != accepted");
    }
}
