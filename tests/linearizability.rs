//! Linearizability spot-checks: record real concurrent histories on small
//! structures and feed them to the value-aware `csds-lincheck` checker —
//! the basic vocabulary and the compound vocabulary (upsert / CAS /
//! fetch-add) alike, for every algorithm in the library.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use csds::core::ConcurrentMap;
use csds::harness::AlgoKind;
use csds::htm::TxRegion;
use csds::lincheck::{check_history, Event, OpKind};
use csds::metrics::{DelayPolicy, StatsSnapshot};
use csds::sync::atomic::{AtomicUsize, Ordering};

/// Small value space so compare-and-swaps actually match sometimes.
const VALUES: u64 = 4;

/// Holds every critical section for the paper's 1–100 µs (§5.4).
const PAPER_STALL: DelayPolicy = DelayPolicy {
    every: 1,
    min_ns: 1_000,
    max_ns: 100_000,
    seed: 0,
};

/// Stalls every speculative attempt past the emulated scheduling quantum,
/// so each one aborts as interrupted and every update falls back.
const OVER_QUANTUM_STALL: DelayPolicy = DelayPolicy {
    every: 1,
    min_ns: TxRegion::DEFAULT_QUANTUM.as_nanos() as u64 * 3 / 2,
    max_ns: TxRegion::DEFAULT_QUANTUM.as_nanos() as u64 * 3,
    seed: 0,
};

/// Operation pairs recorded on different threads, and how many of them
/// overlap in real time. A history whose operations never overlap is
/// sequential, and checking it proves nothing about concurrency.
#[derive(Clone, Copy, Debug, Default)]
struct Overlap {
    overlapping: u64,
    pairs: u64,
}

impl Overlap {
    /// Count the cross-thread pairs of `per_thread` (one history per
    /// recording thread) whose `[invoke, respond]` intervals intersect.
    fn of(per_thread: &[Vec<Event>]) -> Self {
        let mut o = Overlap::default();
        for (i, mine) in per_thread.iter().enumerate() {
            for theirs in &per_thread[i + 1..] {
                for a in mine {
                    for b in theirs {
                        o.pairs += 1;
                        o.overlapping += u64::from(a.invoke < b.respond && b.invoke < a.respond);
                    }
                }
            }
        }
        o
    }

    fn add(&mut self, other: Overlap) {
        self.overlapping += other.overlapping;
        self.pairs += other.pairs;
    }

    /// Report the overlapping share of `test`'s rounds and fail if it is 0.
    fn assert_some(&self, test: &str) {
        let share = self.overlapping as f64 / self.pairs.max(1) as f64;
        eprintln!(
            "{test}: {} of {} cross-thread operation pairs overlap ({:.1}%)",
            self.overlapping,
            self.pairs,
            100.0 * share
        );
        assert!(
            self.overlapping > 0,
            "{test}: no two operations on different threads overlapped in any round, \
             so the histories checked nothing concurrent"
        );
    }
}

/// Record a short concurrent history on `algo` over a handful of keys, one
/// recording thread per entry of `stalls`. `compound` adds
/// upsert/CAS/fetch-add arms to the recorded mix; a `Some` entry arms that
/// [`DelayPolicy`] (with a seed of the thread's own) on its thread. Also
/// returns the recording threads' summed counters and how much their
/// operations overlapped.
fn record_history(
    algo: AlgoKind,
    stalls: &[Option<DelayPolicy>],
    ops_per_thread: usize,
    keys: u64,
    compound: bool,
    seed: u64,
) -> (Vec<Event>, StatsSnapshot, Overlap) {
    let threads = stalls.len();
    let map = Arc::new(algo.make(16));
    let origin = Instant::now();
    // The recorders start together: each announces itself, then spins
    // until all have, so the last to arrive and whichever recorder holds
    // the other CPU begin at the same instant. (Released by a barrier, or
    // by a flag the spawning thread raises, the first recorder often
    // finishes its few operations before the next one is running.) The
    // yield lets a recorder that has not yet arrived onto a busy CPU.
    let ready = Arc::new(AtomicUsize::new(0));
    let events = Arc::new(Mutex::new((Vec::new(), StatsSnapshot::default())));
    let mut handles = Vec::new();
    for (t, &stall) in stalls.iter().enumerate() {
        let map = Arc::clone(&map);
        let ready = Arc::clone(&ready);
        let events = Arc::clone(&events);
        handles.push(std::thread::spawn(move || {
            let mut state = seed ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut local = Vec::new();
            // The policy and the counters are thread-local, and this thread
            // ends with the history.
            if let Some(policy) = stall {
                csds::metrics::set_delay_policy(Some(DelayPolicy {
                    seed: rng(),
                    ..policy
                }));
            }
            let _ = csds::metrics::take_and_reset();
            ready.fetch_add(1, Ordering::AcqRel);
            let mut spins = 0u32;
            while ready.load(Ordering::Acquire) < threads {
                spins = spins.wrapping_add(1);
                if spins % 64 == 0 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            for _ in 0..ops_per_thread {
                let key = rng() % keys;
                let arms = if compound { 6 } else { 3 };
                let arm = rng() % arms;
                let v = rng() % VALUES;
                let invoke = origin.elapsed().as_nanos() as u64;
                let kind = match arm {
                    0 => OpKind::Insert {
                        value: v,
                        ok: map.insert(key, v),
                    },
                    1 => OpKind::Remove {
                        removed: map.remove(key),
                    },
                    2 => OpKind::Get {
                        found: map.get(key),
                    },
                    3 => OpKind::Upsert {
                        value: v,
                        prev: map.upsert(key, v),
                    },
                    4 => {
                        let expected = rng() % VALUES;
                        let out = map.compare_swap(key, &expected, v);
                        let swapped = out.swapped();
                        OpKind::Cas {
                            expected,
                            new: v,
                            observed: out.observed(),
                            swapped,
                        }
                    }
                    _ => {
                        let (_, cur, _) =
                            map.rmw(key, &mut |c| Some(c.copied().unwrap_or(0).wrapping_add(1)));
                        OpKind::FetchAdd {
                            delta: 1,
                            new: cur.expect("fetch_add leaves the key present"),
                        }
                    }
                };
                let respond = origin.elapsed().as_nanos() as u64;
                local.push(Event::new(key, kind, invoke, respond.max(invoke)));
            }
            let mut events = events.lock().unwrap();
            events.0.push(local);
            events.1.merge(&csds::metrics::take_and_reset());
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let (per_thread, stats) = Arc::try_unwrap(events).unwrap().into_inner().unwrap();
    let overlap = Overlap::of(&per_thread);
    (per_thread.concat(), stats, overlap)
}

/// Check `rounds` rounds of every algorithm in `algos`, then further
/// rounds (at most 1024 in all) until two operations on different threads
/// have overlapped: on a loaded host every recorder of a short round can
/// run in turn. Returns how much the checked operations overlapped.
fn check_algos(algos: &[AlgoKind], compound: bool, rounds: u64) -> Overlap {
    // Several small rounds rather than one big history: the checker is
    // exponential per key, and short rounds catch races just as well.
    let mut overlap = Overlap::default();
    for round in 0..1024 {
        if round >= rounds && overlap.overlapping > 0 {
            break;
        }
        for &algo in algos {
            overlap.add(check_round(algo, compound, &[None; 3], round).1);
        }
    }
    overlap
}

/// Record and check one round; returns the recording threads' counters and
/// how much their operations overlapped.
fn check_round(
    algo: AlgoKind,
    compound: bool,
    stalls: &[Option<DelayPolicy>; 3],
    round: u64,
) -> (StatsSnapshot, Overlap) {
    // 3 threads x 6 ops over 4 keys ⇒ ≤ 18 events, ≤ ~10 per key.
    let (history, stats, overlap) = record_history(algo, stalls, 6, 4, compound, 0xC0DE + round);
    let result = check_history(&[], &history);
    assert!(
        result.is_ok(),
        "{}: round {round} not linearizable (compound={compound}, stalls={stalls:?}): {result:?}\nhistory: {history:#?}",
        algo.name()
    );
    (stats, overlap)
}

#[test]
fn every_algorithm_is_linearizable_on_the_basic_vocabulary() {
    check_algos(AlgoKind::all(), false, 4).assert_some("basic vocabulary");
}

#[test]
fn every_algorithm_is_linearizable_on_the_compound_vocabulary() {
    check_algos(AlgoKind::all(), true, 6).assert_some("compound vocabulary");
}

#[test]
fn figure_structures_get_extra_rounds() {
    // The four best-blocking structures the paper's figures feature, plus
    // the lock-free list and the structures carrying the optimistic
    // version-validated fast paths: deeper sampling on the designs users
    // reach for and on the paths whose parses run unsynchronized.
    let algos = [
        AlgoKind::LazyList,
        AlgoKind::LazyListElided,
        AlgoKind::HarrisList,
        AlgoKind::HerlihySkipList,
        AlgoKind::HerlihySkipListElided,
        AlgoKind::CouplingList,
        AlgoKind::CouplingHashTable,
        AlgoKind::LazyHashTable,
        AlgoKind::LazyHashTableElided,
        AlgoKind::ElasticHashTable,
        AlgoKind::BstTk,
        AlgoKind::BstTkElided,
    ];
    check_algos(&algos, true, 8).assert_some("figure structures");
}

#[test]
fn optimistic_fallbacks_stay_linearizable_under_stalled_lock_holders() {
    // The locked fallbacks are what every optimistic retry exhaustion lands
    // on, and a stalled lock holder — the paper's descheduled-thread regime
    // — is how a user gets there: the bucket version stays odd for
    // microseconds and the others' validations spend their retries. The
    // histories are tiny, so rounds repeat until fallbacks have been
    // recorded, which proves the checked histories contain them. BST-TK
    // has no fallback, only write phases; each structure must have had
    // delays injected into its critical sections, which proves the stalls
    // reach every one of them.
    const ALGOS: [AlgoKind; 5] = [
        AlgoKind::CouplingList,
        AlgoKind::CouplingHashTable,
        AlgoKind::LazyHashTable,
        AlgoKind::ElasticHashTable,
        AlgoKind::BstTk,
    ];
    let mut fallbacks = 0;
    let mut injected = [0; ALGOS.len()];
    let mut overlap = Overlap::default();
    for round in 0..1024 {
        for (algo, injected) in ALGOS.into_iter().zip(&mut injected) {
            let (stats, o) = check_round(algo, true, &[Some(PAPER_STALL); 3], round);
            overlap.add(o);
            fallbacks += stats.optimistic_fallbacks;
            *injected += stats.injected_delays;
        }
        let covered = fallbacks > 0 && injected.iter().all(|&n| n > 0);
        if round >= 3 && covered && overlap.overlapping > 0 {
            break;
        }
    }
    assert!(
        fallbacks > 0,
        "no recorded operation took a locked fallback in 1024 stalled rounds"
    );
    for (algo, injected) in ALGOS.into_iter().zip(injected) {
        assert!(
            injected > 0,
            "{}: no delay reached a critical section in 1024 stalled rounds",
            algo.name()
        );
    }
    overlap.assert_some("stalled lock holders");
}

#[test]
fn elided_fallbacks_stay_linearizable_beside_speculation() {
    // Two recording threads stall every speculative attempt past the
    // quantum, so their updates exhaust speculation and run the locked
    // write phase; the third speculates unstalled beside them. The summed
    // fallback count proves the checked histories contain fallbacks.
    let stalls = [None, Some(OVER_QUANTUM_STALL), Some(OVER_QUANTUM_STALL)];
    let mut fallbacks = 0;
    let mut overlap = Overlap::default();
    for round in 0..256 {
        for algo in [
            AlgoKind::LazyListElided,
            AlgoKind::HerlihySkipListElided,
            AlgoKind::LazyHashTableElided,
            AlgoKind::BstTkElided,
        ] {
            let (stats, o) = check_round(algo, true, &stalls, round);
            overlap.add(o);
            fallbacks += stats.elide_fallbacks;
        }
        if round >= 3 && fallbacks > 0 && overlap.overlapping > 0 {
            break;
        }
    }
    assert!(
        fallbacks > 0,
        "no recorded operation fell back from speculation in 256 stalled rounds"
    );
    overlap.assert_some("elided fallbacks");
}

#[test]
fn checker_rejects_a_corrupted_history() {
    // Sanity: take a legal history and corrupt one response; the checker
    // must notice. (A remove reporting absence right after a successful
    // insert breaks the witness.)
    let history = vec![
        Event::new(1, OpKind::Insert { value: 5, ok: true }, 0, 1),
        Event::new(1, OpKind::Get { found: Some(5) }, 2, 3),
        Event::new(1, OpKind::Remove { removed: None }, 4, 5), // corrupted
    ];
    assert!(!check_history(&[], &history).is_ok());
    // And a value corruption specifically: an upsert replacing a value
    // nobody wrote.
    let history = vec![
        Event::new(1, OpKind::Insert { value: 5, ok: true }, 0, 1),
        Event::new(
            1,
            OpKind::Upsert {
                value: 6,
                prev: Some(9),
            },
            2,
            3,
        ),
    ];
    assert!(!check_history(&[], &history).is_ok());
}
