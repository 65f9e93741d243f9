//! The live metrics registry: lock-free publication of per-thread counters.
//!
//! Every instrumented thread periodically flattens its [`StatsSnapshot`]
//! into a cache-padded shared slot stamped with a sequence word — the same
//! seqlock protocol as `csds_sync::OptikLock`'s validated reads (even =
//! stable, odd = mid-write; readers validate with an acquire fence and a
//! re-load). An observer thread can therefore poll a *consistent* per-slot
//! snapshot at any time, without stopping workers and without a single lock
//! on the publication hot path.
//!
//! Consistency contract: each slot read is internally consistent (never
//! torn — this is the property `crates/modelcheck/tests/metrics_registry.rs`
//! proves exhaustively on [`SeqSlot`]), but the cross-thread aggregate is a
//! moving sum: slots are read one after another while workers keep
//! publishing. For a dashboard polled at human timescales that is exactly
//! the right trade.
//!
//! Publication cadence: [`crate::op_boundary`] republishes every
//! [`PUBLISH_PERIOD`] operations (and [`crate::take_and_reset`] republishes
//! the post-reset zeros), so a slot lags its thread by at most one period.
//! Threads that exit fold their final counters into a `retired` accumulator
//! behind a plain mutex — thread exit is the one cold path here — and
//! release their slot for recycling.

use crate::atomic::{fence, plain, AtomicBool, AtomicU64, Ordering};
use crate::table::{prometheus_scalars, prometheus_stanza};
use crate::{LogHistogram, StatsSnapshot, RESTART_BUCKETS};
use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

/// Number of `u64` words in the flat [`StatsSnapshot`] representation,
/// derived from the counter table: one word per scalar row, then the
/// wait-time [`LogHistogram`], then the exact restart histogram.
pub const SNAPSHOT_WORDS: usize = StatsSnapshot::WORDS;

const _: () = assert!(
    SNAPSHOT_WORDS == StatsSnapshot::SCALARS.len() + LogHistogram::WORDS + RESTART_BUCKETS,
    "snapshot word layout drifted from the counter table"
);

/// Maximum concurrently-registered publisher threads. Threads beyond this
/// are counted in [`Registry::overflowed`] and surface only through the
/// retired accumulator when they exit.
pub const MAX_SLOTS: usize = 256;

/// A thread republishes its counters every this many operations (checked in
/// [`crate::op_boundary`] with a single mask), so the steady-state cost is
/// ~`SNAPSHOT_WORDS / PUBLISH_PERIOD` relaxed stores per operation.
pub const PUBLISH_PERIOD: u64 = 1024;

/// A seqlock-stamped array of `N` words with single-writer publication and
/// lock-free validated reads.
///
/// Writer protocol (one designated writer at a time): bump the sequence to
/// odd (relaxed), release fence, store the words (relaxed), then store the
/// even successor with release ordering. Reader protocol (any thread):
/// acquire-load the sequence and reject odd, relaxed-load the words, acquire
/// fence, re-load the sequence and accept only if unchanged — the exact
/// shape of `OptikLock::read_begin`/`read_validate`.
pub struct SeqSlot<const N: usize> {
    seq: AtomicU64,
    words: [AtomicU64; N],
}

impl<const N: usize> Default for SeqSlot<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> SeqSlot<N> {
    /// An empty slot (sequence 0, all words 0).
    pub fn new() -> Self {
        SeqSlot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Publish `words`. Caller must be the slot's only writer; concurrent
    /// `publish` calls would interleave their sequence bumps and could
    /// certify torn data to readers.
    pub fn publish(&self, words: &[u64; N]) {
        let s = self.seq.load(Ordering::Relaxed);
        // Odd = publication in progress. The release fence orders this bump
        // before the word stores: a reader that observes any of the new
        // words (and fences on its side) must also observe the odd/bumped
        // sequence and invalidate itself.
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, &v) in self.words.iter().zip(words.iter()) {
            w.store(v, Ordering::Relaxed);
        }
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// One validated read attempt: `None` if a publication was in progress
    /// or raced the read (retry).
    pub fn read(&self) -> Option<[u64; N]> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return None;
        }
        let mut out = [0u64; N];
        for (o, w) in out.iter_mut().zip(self.words.iter()) {
            *o = w.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        if self.seq.load(Ordering::Relaxed) == s1 {
            Some(out)
        } else {
            None
        }
    }

    /// Validated read with bounded retries; `None` only if a writer kept the
    /// slot continuously unstable for all `retries` attempts.
    pub fn read_spin(&self, retries: usize) -> Option<[u64; N]> {
        for _ in 0..retries {
            if let Some(w) = self.read() {
                return Some(w);
            }
            std::hint::spin_loop();
        }
        None
    }

    /// The word array with **no** validation — a deliberately torn read.
    /// Exists so the negative model test can demonstrate the tear the
    /// sequence protocol prevents; never use it for real data.
    #[doc(hidden)]
    pub fn read_unvalidated(&self) -> [u64; N] {
        let mut out = [0u64; N];
        for (o, w) in out.iter_mut().zip(self.words.iter()) {
            *o = w.load(Ordering::Relaxed);
        }
        out
    }
}

/// One registry slot: a claim flag plus the seqlock-stamped word array.
/// Cache-line aligned (two lines) so one thread's publication never false-
/// shares with a neighbour's.
#[repr(align(128))]
struct Slot {
    claimed: AtomicBool,
    data: SeqSlot<SNAPSHOT_WORDS>,
}

/// The process-wide registry: a fixed slot array plus the retired-thread
/// accumulator.
pub struct Registry {
    slots: Box<[Slot]>,
    /// Final counters of exited threads (mutex: thread exit is cold).
    retired: Mutex<StatsSnapshot>,
    /// Threads that found every slot claimed (their live counters are
    /// invisible until exit).
    overflowed: plain::AtomicU64,
}

impl Registry {
    fn new() -> Self {
        Registry {
            slots: (0..MAX_SLOTS)
                .map(|_| Slot {
                    claimed: AtomicBool::new(false),
                    data: SeqSlot::new(),
                })
                .collect(),
            retired: Mutex::new(StatsSnapshot::default()),
            overflowed: plain::AtomicU64::new(0),
        }
    }

    fn claim(&self) -> Option<usize> {
        for (i, s) in self.slots.iter().enumerate() {
            if !s.claimed.load(Ordering::Relaxed)
                && s.claimed
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return Some(i);
            }
        }
        self.overflowed.fetch_add(1, plain::Ordering::Relaxed);
        None
    }

    fn release(&self, idx: usize, finalv: &StatsSnapshot) {
        self.retired.lock().unwrap().merge(finalv);
        // Zero before release so a recycled slot never double-counts the
        // previous owner (their history now lives in `retired`).
        self.slots[idx].data.publish(&[0u64; SNAPSHOT_WORDS]);
        self.slots[idx].claimed.store(false, Ordering::Release);
    }

    /// Number of currently claimed (live publisher) slots.
    pub fn active_threads(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.claimed.load(Ordering::Relaxed))
            .count()
    }

    /// Threads that could not claim a slot (see [`MAX_SLOTS`]).
    pub fn overflowed(&self) -> u64 {
        self.overflowed.load(plain::Ordering::Relaxed)
    }

    /// Sum of every live slot plus the retired accumulator. Each slot is
    /// read consistently (seqlock-validated); the sum is a moving aggregate.
    pub fn aggregate(&self) -> StatsSnapshot {
        let mut total = self.retired.lock().unwrap().clone();
        for s in self.slots.iter() {
            if !s.claimed.load(Ordering::Acquire) {
                continue;
            }
            if let Some(w) = s.data.read_spin(1024) {
                total.merge(&StatsSnapshot::from_words(&w));
            }
        }
        total
    }

    /// Per-slot consistent snapshots of every live publisher, with the slot
    /// index as a stable-ish thread key.
    pub fn per_thread(&self) -> Vec<(usize, StatsSnapshot)> {
        let mut out = Vec::new();
        for (i, s) in self.slots.iter().enumerate() {
            if !s.claimed.load(Ordering::Acquire) {
                continue;
            }
            if let Some(w) = s.data.read_spin(1024) {
                out.push((i, StatsSnapshot::from_words(&w)));
            }
        }
        out
    }

    /// Prometheus text exposition (`# TYPE` + sample lines) of the aggregate
    /// and the workspace gauges — scrape-ready output for `repro watch
    /// --prom` or an HTTP shim.
    pub fn prometheus_text(&self) -> String {
        let (g_items, g_bytes) = crate::ebr_garbage();
        let mut s = String::with_capacity(8192);
        prometheus_scalars(&mut s, StatsSnapshot::SCALARS, &self.aggregate().to_words());
        for (name, help, v) in [
            (
                "csds_ebr_garbage_items",
                "deferred EBR garbage items not yet reclaimed; each live thread's \
                 latest retirements, fewer than 64, may be missing until its next \
                 maintenance tick or its exit",
                g_items,
            ),
            (
                "csds_ebr_garbage_bytes",
                "approximate bytes of deferred EBR garbage, with the same \
                 per-thread lag as csds_ebr_garbage_items",
                g_bytes,
            ),
            (
                "csds_threads_active",
                "threads currently publishing to the registry",
                self.active_threads() as u64,
            ),
        ] {
            prometheus_stanza(&mut s, name, help, "gauge", v);
        }
        s
    }
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry (created on first use).
pub fn global() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// Per-thread publisher: claims a slot on first publication, folds the final
// counters into `retired` on thread exit.

const UNCLAIMED: usize = usize::MAX;
/// Claim was attempted and the registry was full; don't rescan every period.
const OVERFLOW: usize = usize::MAX - 1;

struct Publisher {
    idx: Cell<usize>,
}

impl Drop for Publisher {
    fn drop(&mut self) {
        let idx = self.idx.get();
        if idx == UNCLAIMED || idx == OVERFLOW {
            // Never published: fold whatever the recorder still holds (it
            // may already be torn down; thread-local drop order is
            // unspecified).
            if let Some(finalv) = crate::drain_recorder_at_exit() {
                global().retired.lock().unwrap().merge(&finalv);
            }
            return;
        }
        let finalv = crate::drain_recorder_at_exit().unwrap_or_else(|| {
            // Recorder TLS destroyed first: the last published words are a
            // (≤ one-period stale) prefix of the thread's true counters.
            global().slots[idx]
                .data
                .read_spin(1024)
                .map(|w| StatsSnapshot::from_words(&w))
                .unwrap_or_default()
        });
        global().release(idx, &finalv);
    }
}

thread_local! {
    static PUBLISHER: Publisher = const {
        Publisher { idx: Cell::new(UNCLAIMED) }
    };
}

/// Publish `snapshot` into the calling thread's slot, claiming one on first
/// use. Called from `op_boundary` every [`PUBLISH_PERIOD`] ops and from
/// `take_and_reset`; safe to call directly (e.g. before a long quiet phase).
pub(crate) fn publish_current(snapshot: &StatsSnapshot) {
    let _ = PUBLISHER.try_with(|p| {
        let mut idx = p.idx.get();
        if idx == UNCLAIMED {
            idx = match global().claim() {
                Some(i) => i,
                None => OVERFLOW,
            };
            p.idx.set(idx);
        }
        if idx == OVERFLOW {
            return;
        }
        global().slots[idx].data.publish(&snapshot.to_words());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercised_snapshot() -> StatsSnapshot {
        // Every word gets a distinct value so a layout swap cannot cancel
        // out in a comparison.
        let mut w = [0u64; SNAPSHOT_WORDS];
        for (i, v) in w.iter_mut().enumerate() {
            *v = i as u64 + 1;
        }
        StatsSnapshot::from_words(&w)
    }

    #[test]
    fn snapshot_layout_follows_the_table() {
        crate::table::assert_layout(
            StatsSnapshot::SCALARS,
            StatsSnapshot::from_words,
            StatsSnapshot::to_words,
            StatsSnapshot::merge,
        );
        // Named fields sit at their row's word index.
        let s = exercised_snapshot();
        let word_of = |name: &str| {
            let row = StatsSnapshot::SCALARS.iter().position(|r| r.name == name);
            row.expect("row in table") as u64 + 1
        };
        assert_eq!(s.lock_acquires, word_of("lock_acquires"));
        assert_eq!(s.max_wait_ns, word_of("max_wait_ns"));
        assert_eq!(s.ops, word_of("ops"));
        assert_eq!(s.restart_hist[15], SNAPSHOT_WORDS as u64);
    }

    #[test]
    fn seqslot_publish_read() {
        let slot = SeqSlot::<3>::new();
        assert_eq!(slot.read(), Some([0, 0, 0]));
        slot.publish(&[7, 8, 9]);
        assert_eq!(slot.read(), Some([7, 8, 9]));
        slot.publish(&[1, 2, 3]);
        assert_eq!(slot.read_spin(4), Some([1, 2, 3]));
    }

    #[test]
    fn seqslot_rejects_odd_sequence() {
        let slot = SeqSlot::<1>::new();
        // Simulate a writer parked mid-publication.
        slot.seq.store(1, Ordering::Relaxed);
        assert_eq!(slot.read(), None);
        assert_eq!(slot.read_spin(8), None);
    }

    #[test]
    fn registry_claim_release_and_aggregate() {
        let reg = Registry::new();
        let i = reg.claim().unwrap();
        let j = reg.claim().unwrap();
        assert_ne!(i, j);
        assert_eq!(reg.active_threads(), 2);
        let s = exercised_snapshot();
        reg.slots[i].data.publish(&s.to_words());
        let agg = reg.aggregate();
        assert_eq!(agg.ops, s.ops);
        assert_eq!(agg.wait_hist.count(), s.wait_hist.count());
        assert_eq!(reg.per_thread().len(), 2);
        // Releasing folds the final counters into `retired` and zeroes the
        // slot, so the aggregate is unchanged.
        reg.release(i, &s);
        assert_eq!(reg.active_threads(), 1);
        let agg2 = reg.aggregate();
        assert_eq!(agg2.ops, s.ops);
        assert_eq!(agg2.lock_acquires, s.lock_acquires);
    }

    #[test]
    fn registry_overflow_counts() {
        let reg = Registry::new();
        let claimed: Vec<_> = (0..MAX_SLOTS).map(|_| reg.claim().unwrap()).collect();
        assert_eq!(claimed.len(), MAX_SLOTS);
        assert_eq!(reg.claim(), None);
        assert_eq!(reg.overflowed(), 1);
    }

    #[test]
    fn prometheus_text_exports_every_table_row_once() {
        let reg = Registry::new();
        let i = reg.claim().unwrap();
        let snap = exercised_snapshot();
        reg.slots[i].data.publish(&snap.to_words());
        let text = reg.prometheus_text();
        for (row, v) in StatsSnapshot::SCALARS.iter().zip(snap.to_words()) {
            let type_line = format!("# TYPE {} {}", row.prom, row.rule.prometheus_type());
            let sample = format!("{} {v}", row.prom);
            for line in [type_line, sample] {
                assert_eq!(
                    text.lines().filter(|l| *l == line).count(),
                    1,
                    "{}: expected exactly one `{line}`",
                    row.name
                );
            }
        }
        assert!(text.contains("# TYPE csds_ebr_garbage_items gauge"));
        assert!(text.contains("csds_threads_active 1"));
    }

    #[test]
    #[cfg(not(feature = "off"))]
    fn global_publish_via_op_boundary() {
        // Exercise the real periodic hook: enough boundaries to cross one
        // publication period, then the global aggregate must see them.
        let _ = crate::take_and_reset();
        let before = global().aggregate().ops;
        for _ in 0..(PUBLISH_PERIOD + 2) {
            crate::op_boundary();
        }
        let after = global().aggregate().ops;
        assert!(
            after >= before + PUBLISH_PERIOD,
            "aggregate did not advance: {before} -> {after}"
        );
        let _ = crate::take_and_reset();
    }
}
