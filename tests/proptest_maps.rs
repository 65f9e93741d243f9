//! Property-based tests: arbitrary operation sequences against a model,
//! for each representative algorithm, plus distribution properties of the
//! workload generators.

use std::collections::BTreeMap;

use csds::core::ConcurrentMap;
use csds::harness::AlgoKind;
use csds::workload::{FastRng, KeyDist, KeySampler};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    /// Insert-or-replace.
    Upsert(u64, u64),
    /// Value CAS; the comparand is drawn from the same small space as the
    /// inserted values so matches actually occur.
    Cas(u64, u64, u64),
    /// Closure RMW on existing keys (multiply by an odd constant).
    Update(u64),
    /// Atomic get-or-insert.
    GetOrInsert(u64, u64),
    /// Membership probe (`contains_in`).
    Contains(u64),
    /// Unconditional counter RMW — always applies, so it exercises the
    /// insert-if-absent arm of the validate-then-lock protocol (the one
    /// `Update`'s `c.map(..)` closure never reaches).
    FetchAdd(u64),
}

/// Values are drawn from a small space so CAS comparands collide with live
/// values often enough to exercise the `Swapped` arm.
fn small_value() -> impl Strategy<Value = u64> {
    0u64..8
}

fn op_strategy(key_range: u64) -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0..key_range, small_value()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0..key_range).prop_map(MapOp::Remove),
        (0..key_range).prop_map(MapOp::Get),
        (0..key_range, small_value()).prop_map(|(k, v)| MapOp::Upsert(k, v)),
        (0..key_range, small_value(), small_value()).prop_map(|(k, e, v)| MapOp::Cas(k, e, v)),
        (0..key_range).prop_map(MapOp::Update),
        (0..key_range, small_value()).prop_map(|(k, v)| MapOp::GetOrInsert(k, v)),
        (0..key_range).prop_map(MapOp::Contains),
        (0..key_range).prop_map(MapOp::FetchAdd),
    ]
}

fn run_against_model(algo: AlgoKind, ops: &[MapOp]) {
    let map = algo.make(64);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            MapOp::Insert(k, v) => {
                let expected = !model.contains_key(&k);
                assert_eq!(
                    map.insert(k, v),
                    expected,
                    "{}: insert({k}) at {i}",
                    algo.name()
                );
                if expected {
                    model.insert(k, v);
                }
            }
            MapOp::Remove(k) => {
                assert_eq!(
                    map.remove(k),
                    model.remove(&k),
                    "{}: remove({k}) at {i}",
                    algo.name()
                );
            }
            MapOp::Get(k) => {
                assert_eq!(
                    map.get(k),
                    model.get(&k).copied(),
                    "{}: get({k}) at {i}",
                    algo.name()
                );
            }
            MapOp::Upsert(k, v) => {
                assert_eq!(
                    map.upsert(k, v),
                    model.insert(k, v),
                    "{}: upsert({k}) at {i}",
                    algo.name()
                );
            }
            MapOp::Cas(k, expected, v) => {
                use csds::core::CasOutcome;
                let got = map.compare_swap(k, &expected, v);
                let want = match model.get(&k) {
                    Some(&cur) if cur == expected => {
                        model.insert(k, v);
                        CasOutcome::Swapped(cur)
                    }
                    Some(&cur) => CasOutcome::Mismatch(cur),
                    None => CasOutcome::Absent,
                };
                assert_eq!(got, want, "{}: compare_swap({k}) at {i}", algo.name());
            }
            MapOp::Update(k) => {
                let (prev, cur, applied) = map.rmw(k, &mut |c| c.map(|v| v.wrapping_mul(3)));
                let want = model.get(&k).copied();
                if let Some(w) = want {
                    model.insert(k, w.wrapping_mul(3));
                }
                assert_eq!(prev, want, "{}: update({k}) at {i}", algo.name());
                assert_eq!(
                    cur,
                    model.get(&k).copied(),
                    "{}: update cur({k}) at {i}",
                    algo.name()
                );
                assert_eq!(
                    applied,
                    want.is_some(),
                    "{}: update applied({k})",
                    algo.name()
                );
            }
            MapOp::GetOrInsert(k, v) => {
                let (_, cur, _) = map.rmw(k, &mut |c| if c.is_none() { Some(v) } else { None });
                let want = *model.entry(k).or_insert(v);
                assert_eq!(
                    cur,
                    Some(want),
                    "{}: get_or_insert({k}) at {i}",
                    algo.name()
                );
            }
            MapOp::Contains(k) => {
                assert_eq!(
                    map.contains(k),
                    model.contains_key(&k),
                    "{}: contains({k}) at {i}",
                    algo.name()
                );
            }
            MapOp::FetchAdd(k) => {
                let (prev, cur, applied) =
                    map.rmw(k, &mut |c| Some(c.copied().unwrap_or(0).wrapping_add(1)));
                let want_prev = model.get(&k).copied();
                let new = want_prev.unwrap_or(0).wrapping_add(1);
                model.insert(k, new);
                assert_eq!(
                    prev,
                    want_prev,
                    "{}: fetch_add prev({k}) at {i}",
                    algo.name()
                );
                assert_eq!(cur, Some(new), "{}: fetch_add cur({k}) at {i}", algo.name());
                assert!(applied, "{}: fetch_add applied({k}) at {i}", algo.name());
            }
        }
    }
    assert_eq!(map.len(), model.len(), "{}", algo.name());
    for (&k, &v) in &model {
        assert_eq!(map.get(k), Some(v), "{}: final get({k})", algo.name());
    }
}

macro_rules! model_prop {
    ($name:ident, $algo:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
            #[test]
            fn $name(ops in proptest::collection::vec(op_strategy(24), 1..200)) {
                run_against_model($algo, &ops);
            }
        }
    };
}

model_prop!(lazy_list_obeys_model, AlgoKind::LazyList);
model_prop!(lazy_list_elided_obeys_model, AlgoKind::LazyListElided);
model_prop!(coupling_list_obeys_model, AlgoKind::CouplingList);
model_prop!(harris_list_obeys_model, AlgoKind::HarrisList);
model_prop!(waitfree_list_obeys_model, AlgoKind::WaitFreeList);
model_prop!(herlihy_skiplist_obeys_model, AlgoKind::HerlihySkipList);
model_prop!(pugh_skiplist_obeys_model, AlgoKind::PughSkipList);
model_prop!(lockfree_skiplist_obeys_model, AlgoKind::LockFreeSkipList);
model_prop!(lazy_hashtable_obeys_model, AlgoKind::LazyHashTable);
model_prop!(cow_hashtable_obeys_model, AlgoKind::CowHashTable);
model_prop!(elastic_hashtable_obeys_model, AlgoKind::ElasticHashTable);
model_prop!(bst_tk_obeys_model, AlgoKind::BstTk);
model_prop!(bst_tk_elided_obeys_model, AlgoKind::BstTkElided);

/// How often the elastic churn test interleaves a `len` assertion.
const LEN_CHECK_PERIOD: usize = 32;

/// The elastic table with deliberately tiny shards and a one-bucket
/// migration quantum, driven through grow/shrink threshold crossings: the
/// op sequence front-loads inserts over a wide key range (growth), then
/// biases toward removes (shrink), with arbitrary operations mixed in, so
/// most of the sequence runs with a migration in flight.
///
/// Every [`LEN_CHECK_PERIOD`] operations the test also asserts `len`
/// (`len_in` under the blanket wrapper) against the model — with a
/// one-bucket quantum most of those counts run mid-migration, locking in
/// the PR 4 fix for the old-table/new-table double count property-style.
fn run_elastic_churn_against_model(grow: &[MapOp], drain: &[MapOp]) {
    use csds::elastic::{ElasticConfig, ElasticHashTable};
    let map = ElasticHashTable::<u64>::with_config(ElasticConfig {
        shards: 2,
        initial_buckets: 2,
        min_buckets: 2,
        migration_quantum: 1,
        counter_cells: 2,
    });
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    fn check(
        map: &csds::elastic::ElasticHashTable<u64>,
        model: &mut BTreeMap<u64, u64>,
        op: &MapOp,
        i: usize,
    ) {
        match *op {
            MapOp::Insert(k, v) => {
                let expected = !model.contains_key(&k);
                assert_eq!(
                    csds::core::ConcurrentMap::insert(map, k, v),
                    expected,
                    "elastic churn: insert({k}) at {i}"
                );
                if expected {
                    model.insert(k, v);
                }
            }
            MapOp::Remove(k) => {
                assert_eq!(
                    csds::core::ConcurrentMap::remove(map, k),
                    model.remove(&k),
                    "elastic churn: remove({k}) at {i}"
                );
            }
            MapOp::Get(k) => {
                assert_eq!(
                    csds::core::ConcurrentMap::get(map, k),
                    model.get(&k).copied(),
                    "elastic churn: get({k}) at {i}"
                );
            }
            MapOp::Upsert(k, v) => {
                assert_eq!(
                    csds::core::ConcurrentMap::upsert(map, k, v),
                    model.insert(k, v),
                    "elastic churn: upsert({k}) at {i}"
                );
            }
            MapOp::Cas(k, expected, v) => {
                use csds::core::CasOutcome;
                let got = csds::core::ConcurrentMap::compare_swap(map, k, &expected, v);
                let want = match model.get(&k) {
                    Some(&cur) if cur == expected => {
                        model.insert(k, v);
                        CasOutcome::Swapped(cur)
                    }
                    Some(&cur) => CasOutcome::Mismatch(cur),
                    None => CasOutcome::Absent,
                };
                assert_eq!(got, want, "elastic churn: compare_swap({k}) at {i}");
            }
            MapOp::Update(k) => {
                let (prev, _, _) =
                    csds::core::ConcurrentMap::rmw(map, k, &mut |c| c.map(|v| v.wrapping_mul(3)));
                let want = model.get(&k).copied();
                if let Some(w) = want {
                    model.insert(k, w.wrapping_mul(3));
                }
                assert_eq!(prev, want, "elastic churn: update({k}) at {i}");
            }
            MapOp::GetOrInsert(k, v) => {
                let (_, cur, _) = csds::core::ConcurrentMap::rmw(map, k, &mut |c| {
                    if c.is_none() {
                        Some(v)
                    } else {
                        None
                    }
                });
                let want = *model.entry(k).or_insert(v);
                assert_eq!(cur, Some(want), "elastic churn: get_or_insert({k}) at {i}");
            }
            MapOp::Contains(k) => {
                assert_eq!(
                    csds::core::ConcurrentMap::contains(map, k),
                    model.contains_key(&k),
                    "elastic churn: contains({k}) at {i}"
                );
            }
            MapOp::FetchAdd(k) => {
                let (prev, cur, applied) = csds::core::ConcurrentMap::rmw(map, k, &mut |c| {
                    Some(c.copied().unwrap_or(0).wrapping_add(1))
                });
                let want_prev = model.get(&k).copied();
                let new = want_prev.unwrap_or(0).wrapping_add(1);
                model.insert(k, new);
                assert_eq!(prev, want_prev, "elastic churn: fetch_add prev({k}) at {i}");
                assert_eq!(cur, Some(new), "elastic churn: fetch_add cur({k}) at {i}");
                assert!(applied, "elastic churn: fetch_add applied({k}) at {i}");
            }
        }
    }
    for (i, op) in grow.iter().enumerate() {
        check(&map, &mut model, op, i);
        if i % LEN_CHECK_PERIOD == 0 {
            assert_eq!(
                csds::core::ConcurrentMap::len(&map),
                model.len(),
                "elastic churn: len at grow op {i} (migration likely in flight)"
            );
        }
    }
    for (i, op) in drain.iter().enumerate() {
        check(&map, &mut model, op, grow.len() + i);
        if i % LEN_CHECK_PERIOD == 0 {
            assert_eq!(
                csds::core::ConcurrentMap::len(&map),
                model.len(),
                "elastic churn: len at drain op {i} (migration likely in flight)"
            );
        }
    }
    assert_eq!(csds::core::ConcurrentMap::len(&map), model.len());
    for (&k, &v) in &model {
        assert_eq!(csds::core::ConcurrentMap::get(&map, k), Some(v));
    }
}

/// Growth-biased op mix over a wide key range, with reads
/// (`Get`/`Contains`) and the optimistic RMW (`Update`/`FetchAdd`) mixed in
/// so both RMW arms run: validated on a settled shard, locked while a
/// threshold crossing leaves a migration in flight.
fn grow_strategy() -> impl Strategy<Value = Vec<MapOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0..256u64, small_value()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            2 => (0..256u64, small_value()).prop_map(|(k, v)| MapOp::Upsert(k, v)),
            1 => (0..256u64, small_value(), small_value())
                .prop_map(|(k, e, v)| MapOp::Cas(k, e, v)),
            1 => (0..256u64).prop_map(MapOp::Update),
            1 => (0..256u64).prop_map(MapOp::FetchAdd),
            1 => (0..256u64).prop_map(MapOp::Remove),
            1 => (0..256u64).prop_map(MapOp::Get),
            1 => (0..256u64).prop_map(MapOp::Contains),
        ],
        100..400,
    )
}

/// Remove-biased counterpart crossing the shrink threshold.
fn drain_strategy() -> impl Strategy<Value = Vec<MapOp>> {
    proptest::collection::vec(
        prop_oneof![
            1 => (0..256u64, small_value()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            4 => (0..256u64).prop_map(MapOp::Remove),
            1 => (0..256u64).prop_map(MapOp::Update),
            1 => (0..256u64).prop_map(MapOp::FetchAdd),
            1 => (0..256u64, small_value(), small_value())
                .prop_map(|(k, e, v)| MapOp::Cas(k, e, v)),
            1 => (0..256u64).prop_map(MapOp::Get),
            1 => (0..256u64).prop_map(MapOp::Contains),
        ],
        100..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
    #[test]
    fn elastic_crossing_grow_and_shrink_thresholds_obeys_model(
        grow in grow_strategy(),
        drain in drain_strategy(),
    ) {
        run_elastic_churn_against_model(&grow, &drain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Zipf sampling stays in range and rank popularity is monotone
    /// (statistically) for any range and skew. Compares equal-size head and
    /// tail windows (`k < range/2` vs `k >= range - range/2`): the head
    /// window strictly dominates analytically because per-rank weights are
    /// strictly decreasing, and the empirical head frequency must track the
    /// sampler's own exact probabilities within sampling noise.
    #[test]
    fn zipf_sampler_properties(range in 2u64..512, s in 0.1f64..1.5, seed in any::<u64>()) {
        let sampler = KeySampler::new(KeyDist::Zipf { s }, range);
        let p = sampler.probabilities();
        let w = (range / 2) as usize;
        let head_exact: f64 = p[..w].iter().sum();
        let tail_exact: f64 = p[p.len() - w..].iter().sum();
        prop_assert!(head_exact > tail_exact, "head {head_exact} vs tail {tail_exact}");

        let mut rng = FastRng::new(seed);
        let mut head = 0u64;
        const N: u64 = 2_000;
        for _ in 0..N {
            let k = sampler.sample(&mut rng);
            prop_assert!(k < range);
            if k < range / 2 { head += 1 }
        }
        let head_frac = head as f64 / N as f64;
        prop_assert!(
            (head_frac - head_exact).abs() < 0.05,
            "head fraction {head_frac} vs exact {head_exact}"
        );
    }

    /// Uniform sampling stays in range and is roughly balanced.
    #[test]
    fn uniform_sampler_properties(range in 2u64..512, seed in any::<u64>()) {
        let sampler = KeySampler::new(KeyDist::Uniform, range);
        let mut rng = FastRng::new(seed);
        let mut low = 0u64;
        for _ in 0..2_000 {
            let k = sampler.sample(&mut rng);
            prop_assert!(k < range);
            if k < range / 2 { low += 1 }
        }
        let frac = low as f64 / 2_000.0;
        let expect = (range / 2) as f64 / range as f64;
        prop_assert!((frac - expect).abs() < 0.1, "low fraction {frac} vs {expect}");
    }

    /// The analysis crate's birthday probabilities are proper probabilities
    /// and monotone in the number of writers.
    #[test]
    fn birthday_probabilities_are_sane(n in 8u64..4096, k in 2u64..16) {
        prop_assume!(2 * k < n);
        let ht = csds::analysis::birthday_hash_table(k, n);
        let ll = csds::analysis::birthday_linked_list(k, n);
        prop_assert!((0.0..=1.0).contains(&ht));
        prop_assert!((0.0..=1.0).contains(&ll));
        prop_assert!(csds::analysis::birthday_hash_table(k + 1, n) >= ht);
        // Adjacent-window conflicts are at least as likely as exact-slot
        // conflicts at equal k and n.
        prop_assert!(ll >= ht - 1e-12);
    }
}
