//! # csds — concurrent search data structures, practically wait-free
//!
//! Facade crate for the workspace reproducing *"Concurrent Search Data
//! Structures Can Be Blocking and Practically Wait-Free"* (David &
//! Guerraoui, SPAA 2016). Re-exports every sub-crate:
//!
//! * [`core`] — the data structures (blocking / lock-free /
//!   wait-free lists, skip lists, hash tables, BSTs, queues, stacks);
//! * [`elastic`] — the sharded, dynamically-resizing hash table
//!   (incremental cooperative migration, EBR-retired tables);
//! * [`sync`] — spin locks (TAS, TTAS, ticket, MCS, OPTIK);
//! * [`ebr`] — epoch-based memory reclamation;
//! * [`htm`] — emulated HTM lock elision (TSX substitute);
//! * [`service`] — the async request front-end (core worker pool, bounded
//!   submission rings, std-only futures, multi-tenant namespaces with lazy
//!   creation and shrink-to-zero) over any [`GuardedMap`](core::GuardedMap);
//! * [`pq`] — the second structure kind: concurrent priority queues
//!   (blocking Pugh and lock-free Lotan–Shavit) over the skiplist
//!   substrate;
//! * [`metrics`] — fine-grained instrumentation;
//! * [`workload`] — key distributions and operation mixes;
//! * [`analysis`] — the birthday-paradox conflict model;
//! * [`harness`] — the experiment runner behind `repro`;
//! * [`lincheck`] — linearizability checking for tests.
//!
//! ```
//! use csds::prelude::*;
//!
//! let map: LazyList<&str> = LazyList::new();
//! // Pin-per-op trait path (convenient; clones values out of reads):
//! assert!(map.insert(7, "seven"));
//! assert_eq!(map.get(7), Some("seven"));
//! // Per-thread handle path (guard reuse + clone-free reads — hot loops):
//! let mut h = map.handle();
//! assert_eq!(h.get(7), Some(&"seven"));
//! assert_eq!(h.remove(7), Some("seven"));
//! ```

pub use csds_analysis as analysis;
pub use csds_core as core;
pub use csds_ebr as ebr;
pub use csds_elastic as elastic;
pub use csds_harness as harness;
pub use csds_htm as htm;
pub use csds_lincheck as lincheck;
pub use csds_metrics as metrics;
pub use csds_pq as pq;
pub use csds_service as service;
pub use csds_sync as sync;
pub use csds_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use csds_core::bst::BstTk;
    pub use csds_core::hashtable::{
        CouplingHashTable, CowHashTable, LazyHashTable, LockFreeHashTable, WaitFreeHashTable,
    };
    pub use csds_core::list::{CouplingList, HarrisList, LazyList, WaitFreeList};
    pub use csds_core::queuestack::{LockedStack, MsQueue, TreiberStack, TwoLockQueue};
    pub use csds_core::skiplist::{HerlihySkipList, LockFreeSkipList, PughSkipList};
    pub use csds_core::{
        CasOutcome, ConcurrentMap, ConcurrentPool, GuardedMap, GuardedPool, MapHandle, PoolHandle,
        RmwFn, RmwOutcome, SyncMode, MAX_USER_KEY,
    };
    pub use csds_elastic::{ElasticConfig, ElasticHashTable};
    pub use csds_pq::{ConcurrentPq, GuardedPq, LotanShavitPq, PqHandle, PughPq};
    pub use csds_service::{
        block_on, FetchAddValue, NamespaceCounts, NamespaceId, OpKind, Reply, Service,
        ServiceClient, ServiceConfig, ServiceError, DEFAULT_NAMESPACE,
    };
}
