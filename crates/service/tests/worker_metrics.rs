//! Service workers reach the metrics registry: each executed request ends
//! in `csds_metrics::op_boundary()`, so the locks a worker took (and its
//! epoch advances, migrations, …) show in `registry::global().aggregate()`
//! instead of vanishing with the thread.
//!
//! One test, in a test binary of its own: the registry is process-wide, and
//! this worker must be the only thread that ever publishes to it.

use std::sync::Arc;

use csds_core::{hashtable::LazyHashTable, GuardedMap};
use csds_metrics::registry;
use csds_service::{OpKind, Service, ServiceConfig};

#[test]
fn worker_counters_reach_the_registry() {
    // Past one `registry::PUBLISH_PERIOD`, so the worker has claimed a
    // registry slot and its exit folds the final counters in.
    const KEYS: u64 = 2 * registry::PUBLISH_PERIOD;
    let map: Arc<dyn GuardedMap<u64>> = Arc::new(LazyHashTable::with_capacity(256));
    let svc = Service::start(
        map,
        ServiceConfig {
            cores: 1,
            ..ServiceConfig::default()
        },
    );
    let client = svc.client();
    let inserts = client
        .submit_batch((0..KEYS).map(|k| (k, OpKind::Insert(k))))
        .unwrap();
    for c in inserts {
        assert!(c.wait().unwrap().inserted());
    }
    let removes = client
        .submit_batch((0..KEYS).map(|k| (k, OpKind::Remove)))
        .unwrap();
    for (k, c) in removes.into_iter().enumerate() {
        assert_eq!(c.wait().unwrap().value(), Some(k as u64));
    }
    let stats = svc.shutdown().aggregate();
    assert_eq!(stats.ops, 2 * KEYS);

    let seen = registry::global().aggregate();
    assert_eq!(seen.ops, stats.ops, "one op_boundary per executed request");
    assert!(
        seen.lock_acquires > 0,
        "the worker's locks stayed invisible"
    );
}
