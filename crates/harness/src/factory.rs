//! Every algorithm in the library behind a single enum, so experiments can
//! be written against `Box<dyn GuardedMap<u64>>` — which serves both the
//! handle path and, through the blanket impls, the pin-per-op traits.

use csds_core::bst::BstTk;
use csds_core::hashtable::{
    CouplingHashTable, LazyHashTable, LockFreeHashTable, WaitFreeHashTable,
};
use csds_core::list::{CouplingList, HarrisList, LazyList, WaitFreeList};
use csds_core::skiplist::{HerlihySkipList, LockFreeSkipList, PughSkipList};
use csds_core::{GuardedMap, SyncMode};
use csds_elastic::ElasticHashTable;
use csds_pq::{GuardedPq, LotanShavitPq, PughPq};
use csds_service::{Service, ServiceConfig};
use std::sync::Arc;

/// Data-structure family (the paper's four CSDS columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Sorted linked lists.
    List,
    /// Skip lists.
    SkipList,
    /// Hash tables (load factor 1).
    HashTable,
    /// Binary search trees.
    Bst,
}

impl Family {
    /// The four families, in the paper's column order.
    pub fn all() -> [Family; 4] {
        [
            Family::List,
            Family::SkipList,
            Family::HashTable,
            Family::Bst,
        ]
    }

    /// Column label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Family::List => "Linked list",
            Family::SkipList => "Skip list",
            Family::HashTable => "Hash table",
            Family::Bst => "BST",
        }
    }

    /// The best-performing blocking algorithm per family — the ones shown
    /// in the paper's figures (§3: lazy list, Herlihy skiplist, lazy hash
    /// table, BST-TK).
    pub fn best_blocking(&self) -> AlgoKind {
        match self {
            Family::List => AlgoKind::LazyList,
            Family::SkipList => AlgoKind::HerlihySkipList,
            Family::HashTable => AlgoKind::LazyHashTable,
            Family::Bst => AlgoKind::BstTk,
        }
    }

    /// The elided (emulated-TSX) variant per family (Tables 2–3).
    pub fn best_blocking_elided(&self) -> AlgoKind {
        match self {
            Family::List => AlgoKind::LazyListElided,
            Family::SkipList => AlgoKind::HerlihySkipListElided,
            Family::HashTable => AlgoKind::LazyHashTableElided,
            Family::Bst => AlgoKind::BstTkElided,
        }
    }
}

/// Every map algorithm in the library.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AlgoKind {
    LazyList,
    LazyListElided,
    CouplingList,
    HarrisList,
    WaitFreeList,
    HerlihySkipList,
    HerlihySkipListElided,
    PughSkipList,
    LockFreeSkipList,
    LazyHashTable,
    LazyHashTableElided,
    CouplingHashTable,
    LockFreeHashTable,
    WaitFreeHashTable,
    ElasticHashTable,
    BstTk,
    BstTkElided,
}

impl AlgoKind {
    /// All algorithms (for exhaustive sweeps and tests).
    pub fn all() -> &'static [AlgoKind] {
        use AlgoKind::*;
        &[
            LazyList,
            LazyListElided,
            CouplingList,
            HarrisList,
            WaitFreeList,
            HerlihySkipList,
            HerlihySkipListElided,
            PughSkipList,
            LockFreeSkipList,
            LazyHashTable,
            LazyHashTableElided,
            CouplingHashTable,
            LockFreeHashTable,
            WaitFreeHashTable,
            ElasticHashTable,
            BstTk,
            BstTkElided,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        use AlgoKind::*;
        match self {
            LazyList => "lazy-list",
            LazyListElided => "lazy-list+tsx",
            CouplingList => "coupling-list",
            HarrisList => "harris-list",
            WaitFreeList => "waitfree-list",
            HerlihySkipList => "herlihy-skiplist",
            HerlihySkipListElided => "herlihy-skiplist+tsx",
            PughSkipList => "pugh-skiplist",
            LockFreeSkipList => "lockfree-skiplist",
            LazyHashTable => "lazy-ht",
            LazyHashTableElided => "lazy-ht+tsx",
            CouplingHashTable => "coupling-ht",
            LockFreeHashTable => "lockfree-ht",
            WaitFreeHashTable => "waitfree-ht",
            ElasticHashTable => "elastic-ht",
            BstTk => "bst-tk",
            BstTkElided => "bst-tk+tsx",
        }
    }

    /// Family this algorithm belongs to.
    pub fn family(&self) -> Family {
        use AlgoKind::*;
        match self {
            LazyList | LazyListElided | CouplingList | HarrisList | WaitFreeList => Family::List,
            HerlihySkipList | HerlihySkipListElided | PughSkipList | LockFreeSkipList => {
                Family::SkipList
            }
            LazyHashTable | LazyHashTableElided | CouplingHashTable | LockFreeHashTable
            | WaitFreeHashTable | ElasticHashTable => Family::HashTable,
            BstTk | BstTkElided => Family::Bst,
        }
    }

    /// Instantiate behind the guard-scoped trait (for handle-based hot
    /// loops); `capacity` sizes hash tables (load factor 1).
    ///
    /// A `dyn GuardedMap<u64>` also implements `ConcurrentMap` (blanket
    /// pin-per-op wrapper), so one boxed structure serves both call paths.
    pub fn make(&self, capacity: usize) -> Box<dyn GuardedMap<u64>> {
        match self {
            Self::LazyList => Box::new(LazyList::<u64>::new()),
            Self::LazyListElided => Box::new(LazyList::<u64>::with_mode(SyncMode::Elision)),
            Self::CouplingList => Box::new(CouplingList::<u64>::new()),
            Self::HarrisList => Box::new(HarrisList::<u64>::new()),
            Self::WaitFreeList => Box::new(WaitFreeList::<u64>::new()),
            Self::HerlihySkipList => Box::new(HerlihySkipList::<u64>::new()),
            Self::HerlihySkipListElided => {
                Box::new(HerlihySkipList::<u64>::with_mode(SyncMode::Elision))
            }
            Self::PughSkipList => Box::new(PughSkipList::<u64>::new()),
            Self::LockFreeSkipList => Box::new(LockFreeSkipList::<u64>::new()),
            Self::LazyHashTable => Box::new(LazyHashTable::<u64>::with_capacity(capacity)),
            Self::LazyHashTableElided => Box::new(LazyHashTable::<u64>::with_capacity_and_mode(
                capacity,
                SyncMode::Elision,
            )),
            Self::CouplingHashTable => Box::new(CouplingHashTable::<u64>::with_capacity(capacity)),
            Self::LockFreeHashTable => Box::new(LockFreeHashTable::<u64>::with_capacity(capacity)),
            Self::WaitFreeHashTable => Box::new(WaitFreeHashTable::<u64>::with_capacity(capacity)),
            Self::ElasticHashTable => Box::new(ElasticHashTable::<u64>::with_capacity(capacity)),
            Self::BstTk => Box::new(BstTk::<u64>::new()),
            Self::BstTkElided => Box::new(BstTk::<u64>::with_mode(SyncMode::Elision)),
        }
    }

    /// Start a `csds_service` async front-end over a freshly built instance
    /// of this algorithm (the ROADMAP's service scenario): `cfg.cores`
    /// workers, each owning a `MapHandle` session and a bounded submission
    /// ring. The returned [`Service`] owns the map; reach it through
    /// [`Service::map`] for out-of-band checks, and shut it down to get the
    /// per-core service statistics.
    pub fn make_service(&self, capacity: usize, cfg: ServiceConfig) -> Service<u64> {
        let map: Arc<dyn GuardedMap<u64>> = Arc::from(self.make(capacity));
        Service::start(map, cfg)
    }
}

/// The second structure kind beside the maps: every priority-queue
/// algorithm in the library (`csds_pq`), behind one enum — the
/// [`AlgoKind`] of priority queues. One blocking and one lock-free
/// design, both over the skiplist substrate, so the paper's
/// blocking-vs-lock-free comparison carries over structure kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PqKind {
    /// Blocking: Pugh towers, pop-min deletes the head under its locks.
    PughPq,
    /// Lock-free: Lotan–Shavit over the Harris-marked skiplist.
    LotanShavitPq,
}

impl PqKind {
    /// All priority-queue algorithms (for exhaustive sweeps and tests).
    pub fn all() -> &'static [PqKind] {
        &[PqKind::PughPq, PqKind::LotanShavitPq]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            PqKind::PughPq => "pugh-pq",
            PqKind::LotanShavitPq => "lotanshavit-pq",
        }
    }

    /// Whether the design is blocking (for table labels).
    pub fn is_blocking(&self) -> bool {
        matches!(self, PqKind::PughPq)
    }

    /// Instantiate behind the guard-scoped trait (for `PqHandle` hot
    /// loops). A `dyn GuardedPq<u64>` also implements `ConcurrentPq`
    /// (blanket pin-per-op wrapper), so one boxed queue serves both call
    /// paths.
    pub fn make(&self) -> Box<dyn GuardedPq<u64>> {
        match self {
            PqKind::PughPq => Box::new(PughPq::<u64>::new()),
            PqKind::LotanShavitPq => Box::new(LotanShavitPq::<u64>::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csds_core::ConcurrentMap;
    use csds_pq::ConcurrentPq;

    #[test]
    fn every_algo_supports_the_map_interface() {
        for algo in AlgoKind::all() {
            let m = algo.make(64);
            assert!(m.insert(1, 10), "{}", algo.name());
            assert!(!m.insert(1, 11), "{}", algo.name());
            assert_eq!(m.get(1), Some(10), "{}", algo.name());
            assert_eq!(m.remove(1), Some(10), "{}", algo.name());
            assert_eq!(m.remove(1), None, "{}", algo.name());
            assert!(m.is_empty(), "{}", algo.name());
        }
    }

    #[test]
    fn every_algo_supports_the_handle_interface() {
        use csds_core::MapHandle;
        for algo in AlgoKind::all() {
            let m = algo.make(64);
            let mut h = MapHandle::new(m.as_ref());
            assert!(h.insert(1, 10), "{}", algo.name());
            assert!(!h.insert(1, 11), "{}", algo.name());
            assert_eq!(h.get(1), Some(&10), "{}", algo.name());
            assert_eq!(h.remove(1), Some(10), "{}", algo.name());
            assert_eq!(h.remove(1), None, "{}", algo.name());
            assert!(h.is_empty(), "{}", algo.name());
            assert_eq!(h.ops(), 6, "{}", algo.name());
        }
    }

    #[test]
    fn every_algo_supports_the_service_interface() {
        use csds_service::block_on;
        for algo in AlgoKind::all() {
            let svc = algo.make_service(
                64,
                ServiceConfig {
                    cores: 1,
                    ..ServiceConfig::default()
                },
            );
            let client = svc.client();
            assert!(
                block_on(client.insert(1, 10).unwrap()).unwrap().inserted(),
                "{}",
                algo.name()
            );
            assert_eq!(
                block_on(client.get(1).unwrap()).unwrap().value(),
                Some(10),
                "{}",
                algo.name()
            );
            assert_eq!(
                block_on(client.remove(1).unwrap()).unwrap().value(),
                Some(10),
                "{}",
                algo.name()
            );
            let stats = svc.shutdown();
            assert_eq!(stats.aggregate().ops, 3, "{}", algo.name());
        }
    }

    #[test]
    fn every_pq_supports_both_interfaces() {
        use csds_pq::PqHandle;
        for kind in PqKind::all() {
            let q = kind.make();
            assert!(q.push(5, 50), "{}", kind.name());
            assert!(q.push(2, 20), "{}", kind.name());
            assert!(!q.push(5, 51), "{}", kind.name());
            assert_eq!(q.peek_min(), Some((2, 20)), "{}", kind.name());
            assert_eq!(q.pop_min(), Some((2, 20)), "{}", kind.name());
            assert_eq!(q.pop_min(), Some((5, 50)), "{}", kind.name());
            assert_eq!(q.pop_min(), None, "{}", kind.name());

            let mut h = PqHandle::new(q.as_ref());
            assert!(h.push(7, 70), "{}", kind.name());
            assert_eq!(h.pop_min_cloned(), Some((7, 70)), "{}", kind.name());
            assert!(h.is_empty(), "{}", kind.name());
            assert_eq!(h.ops(), 3, "{}", kind.name());
        }
    }

    #[test]
    fn families_and_defaults_are_consistent() {
        for f in Family::all() {
            assert_eq!(f.best_blocking().family(), f);
            assert_eq!(f.best_blocking_elided().family(), f);
        }
        for a in AlgoKind::all() {
            assert!(!a.name().is_empty());
        }
    }
}
