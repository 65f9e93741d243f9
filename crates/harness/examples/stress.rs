//! Correctness stress: hammer one structure with heavily oversubscribed
//! threads and verify the concurrent net-effect invariant after every
//! round. This is the harness that caught a stale-parent race in BST-TK
//! during development (see bst_tk.rs: removed routers stay locked).
//!
//! ```text
//! cargo run --release -p csds-harness --example stress -- bst 30
//! ```

use csds_sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use csds_core::ConcurrentMap;
use csds_harness::AlgoKind;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "bst".into());
    let rounds: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let algo = match which.as_str() {
        "list" => AlgoKind::LazyList,
        "skip" => AlgoKind::HerlihySkipList,
        "ht" => AlgoKind::LazyHashTable,
        "bst" => AlgoKind::BstTk,
        "wf" => AlgoKind::WaitFreeList,
        "harris" => AlgoKind::HarrisList,
        other => {
            eprintln!("unknown structure '{other}' (list|skip|ht|bst|wf|harris)");
            std::process::exit(2);
        }
    };
    let range = 64u64;
    for round in 0..rounds {
        let map = Arc::new(algo.make(range as usize));
        let ins: Arc<Vec<AtomicU64>> = Arc::new((0..range).map(|_| AtomicU64::new(0)).collect());
        let rem: Arc<Vec<AtomicU64>> = Arc::new((0..range).map(|_| AtomicU64::new(0)).collect());
        let mut hs = Vec::new();
        for t in 0..8u64 {
            let (map, ins, rem) = (Arc::clone(&map), Arc::clone(&ins), Arc::clone(&rem));
            hs.push(std::thread::spawn(move || {
                let mut s = (round + 1) * 1000 + t + 1;
                let mut rng = move || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s
                };
                for _ in 0..4000 {
                    let k = rng() % range;
                    match rng() % 3 {
                        0 => {
                            if map.insert(k, k) {
                                ins[k as usize].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        1 => {
                            if map.remove(k).is_some() {
                                rem[k as usize].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => {
                            if let Some(v) = map.get(k) {
                                assert_eq!(v, k);
                            }
                        }
                    }
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let mut expect = 0usize;
        for k in 0..range as usize {
            let net = ins[k].load(Ordering::Relaxed) as i64 - rem[k].load(Ordering::Relaxed) as i64;
            assert!(net == 0 || net == 1, "round {round} key {k}: net {net}");
            assert_eq!(
                map.get(k as u64).is_some(),
                net == 1,
                "round {round} key {k}"
            );
            expect += net as usize;
        }
        assert_eq!(map.len(), expect, "round {round}");
        eprint!("{round} ");
    }
    eprintln!("ALL OK ({rounds} rounds, {})", algo.name());
}
