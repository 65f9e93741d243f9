//! A bounded multi-producer ring buffer with cache-padded endpoints — the
//! submission queue of the `csds_service` async front-end.
//!
//! The design is the classic sequence-stamped bounded queue (Vyukov): every
//! slot carries a sequence number that encodes, relative to the endpoint
//! counters, whether the slot is empty, full, or in transit. Producers claim
//! slots with one CAS on the tail; the consumer releases them with plain
//! loads and one CAS on the head. Capacity is fixed at construction, so a
//! full ring is **backpressure**: [`MpscRing::try_push`] hands the value
//! back instead of blocking or allocating.
//!
//! The two endpoint counters live on their own cache lines
//! ([`CachePadded`]): producers hammer the tail, the consumer hammers the
//! head, and neither invalidates the other's line except through the slots
//! themselves.
//!
//! The implementation is safe for multiple consumers too (the head is
//! CAS-claimed), but the intended shape — and the only one the service
//! uses — is many producers, one draining core worker.
//!
//! **Closing.** [`MpscRing::close`] sets the top bit of the tail word. A
//! producer's claim is a CAS that expects the bit clear, so the tail's
//! modification order decides every race: a push either claimed its slot
//! before the close — and is then counted in the tail, so a consumer that
//! drains until `is_closed() && len() == 0` cannot miss it, stamped yet or
//! not — or it is refused. Shutdown of a service needs nothing else from
//! its producers: no flag to re-check, no in-flight counter to raise.

use crate::atomic::{AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

use crate::CachePadded;

/// One ring slot: `seq` encodes the slot's state relative to the endpoint
/// counters (see [`MpscRing`]); `val` is live iff a producer has stamped the
/// slot full and no consumer has released it yet.
///
/// Line-aligned: a consumer that keeps up releases slot *i* while a producer
/// fills slot *i + 1*, and unaligned slots straddle lines, so those two
/// stores would invalidate each other's line. A payload of up to 56 bytes
/// makes the slot exactly one line (`csds_service` sizes its request to fit).
#[repr(align(64))]
struct Slot<T> {
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

const _: () = assert!(std::mem::size_of::<Slot<[u8; 56]>>() == 64);

/// A bounded, lock-free, sequence-stamped MPSC ring. See the [module
/// docs](self).
pub struct MpscRing<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// Next position producers will claim; [`CLOSED`] in the top bit once
    /// [`close`](MpscRing::close) has run.
    tail: CachePadded<AtomicUsize>,
    /// Next position the consumer will release.
    head: CachePadded<AtomicUsize>,
}

/// The tail's top bit: set by [`MpscRing::close`], never cleared. Positions
/// count pushes over the ring's lifetime and cannot reach it.
const CLOSED: usize = 1 << (usize::BITS - 1);

// SAFETY: values move in from producer threads and out on the consumer
// thread, so T must be Send; the ring itself synchronizes all slot access
// through the seq stamps (Release publish / Acquire observe).
unsafe impl<T: Send> Send for MpscRing<T> {}
unsafe impl<T: Send> Sync for MpscRing<T> {}

impl<T> MpscRing<T> {
    /// A ring holding at most `capacity` elements (rounded up to a power of
    /// two, minimum 2).
    ///
    /// The minimum is 2, not 1: with a single slot the stamp for "free for
    /// the producer's next lap" (`seq == pos`, at `pos = 1`) coincides with
    /// "published, awaiting the consumer" (`seq == pos + 1`, at `pos = 0`),
    /// so a second push would claim — and overwrite — a slot the consumer
    /// has not drained. Found by the `csds_modelcheck` ring model.
    pub fn with_capacity(capacity: usize) -> Self {
        let n = capacity.max(2).next_power_of_two();
        MpscRing {
            slots: (0..n)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    val: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: n - 1,
            tail: CachePadded::new(AtomicUsize::new(0)),
            head: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Maximum number of elements the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate occupancy (racy under concurrency; exact when quiescent).
    /// Counts slots a producer has claimed but not stamped yet, so on a
    /// closed ring `len() == 0` means everything ever accepted is out.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire) & !CLOSED;
        let head = self.head.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// Whether the ring is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumer-side probe: `true` means the next [`pop`](Self::pop) by the
    /// (single) consumer succeeds.
    ///
    /// Reads only `head` and that slot's stamp, never the producers' `tail`,
    /// so a consumer polling an empty ring keeps both lines in its own cache
    /// and costs a producer nothing until its publishing stamp store — unlike
    /// [`is_empty`](Self::is_empty), which makes every tail CAS a coherence
    /// miss. A slot a producer has claimed but not yet stamped reads `false`:
    /// its `pop` would return `None` too.
    pub fn pop_ready(&self) -> bool {
        let pos = self.head.load(Ordering::Relaxed);
        self.slots[pos & self.mask].seq.load(Ordering::Acquire) == pos + 1
    }

    /// Refuse every later push. Pushes that claimed a slot before this call
    /// stay queued (and counted by [`len`](Self::len)) until popped.
    /// Idempotent.
    pub fn close(&self) {
        // SeqCst: a consumer about to sleep raises its flag, fences, and
        // then asks `is_closed`; the closer closes and then reads that flag.
        // One of the two must see the other.
        self.tail.fetch_or(CLOSED, Ordering::SeqCst);
    }

    /// Whether [`close`](Self::close) has run. A push refused on a ring
    /// that is not closed was refused because the ring was full.
    pub fn is_closed(&self) -> bool {
        self.tail.load(Ordering::Acquire) & CLOSED != 0
    }

    /// Attempt to enqueue `value`. On a full ring the value is handed back
    /// immediately — this is the service's backpressure signal, so the
    /// caller decides whether to spin, shed, or report upstream. A
    /// [closed](Self::close) ring hands every value back.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            if pos & CLOSED != 0 {
                return Err(value);
            }
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // Slot empty at our position: claim it. `pos` has the
                // closed bit clear, so the CAS fails once the ring closes.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this producer exclusive
                        // ownership of the slot until the seq store below.
                        unsafe { (*slot.val.get()).write(value) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                // The slot still holds an element from one lap ago: full.
                return Err(value);
            } else {
                // Another producer claimed this position; chase the tail.
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeue one element, or `None` if the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - (pos + 1) as isize;
            if dif == 0 {
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the producer's Release store of `seq`
                        // published the write; the CAS made us the unique
                        // consumer of this slot for this lap.
                        let value = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                // Slot not yet published at this lap: empty (or a producer
                // is mid-publish; treating it as empty is the non-blocking
                // choice).
                return None;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Drain up to `max` elements into `out`; returns how many were moved.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
        // Exclusive access: pop out whatever is still queued so the
        // elements' destructors run.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_one_producer() {
        let r: MpscRing<u64> = MpscRing::with_capacity(8);
        assert_eq!(r.capacity(), 8);
        for i in 0..8 {
            assert!(r.try_push(i).is_ok());
        }
        assert_eq!(r.len(), 8);
        // Full ring hands the value back.
        assert_eq!(r.try_push(99), Err(99));
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
        assert!(r.is_empty());
        // Wrap around a few laps.
        for lap in 0..5u64 {
            for i in 0..8 {
                assert!(r.try_push(lap * 100 + i).is_ok());
            }
            for i in 0..8 {
                assert_eq!(r.pop(), Some(lap * 100 + i));
            }
        }
    }

    #[test]
    fn pop_ready_agrees_with_pop() {
        let r: MpscRing<u64> = MpscRing::with_capacity(4);
        // Empty.
        assert!(!r.pop_ready());
        assert_eq!(r.pop(), None);
        // One element.
        r.try_push(1).unwrap();
        assert!(r.pop_ready());
        assert_eq!(r.pop(), Some(1));
        assert!(!r.pop_ready());
        // Full, and ready until the last element is out.
        for i in 0..4 {
            r.try_push(i).unwrap();
        }
        assert_eq!(r.try_push(9), Err(9));
        for i in 0..4 {
            assert!(r.pop_ready());
            assert_eq!(r.pop(), Some(i));
        }
        assert!(!r.pop_ready());
        // Across a wrap: head sits at 5 of 4 slots, so slot 1 carries a
        // stamp from this lap, not the first.
        for lap in 0..3u64 {
            for i in 0..3 {
                r.try_push(lap * 10 + i).unwrap();
            }
            for i in 0..3 {
                assert!(r.pop_ready());
                assert_eq!(r.pop(), Some(lap * 10 + i));
            }
            assert!(
                !r.pop_ready(),
                "a drained slot's next-lap stamp is not ready"
            );
        }
    }

    #[test]
    fn close_refuses_later_pushes_and_keeps_what_was_accepted() {
        let r: MpscRing<u64> = MpscRing::with_capacity(4);
        // Start mid-lap so the accepted elements straddle a wrap.
        for i in 0..3 {
            r.try_push(i).unwrap();
            assert_eq!(r.pop(), Some(i));
        }
        r.try_push(10).unwrap();
        r.try_push(11).unwrap();
        assert!(!r.is_closed());
        r.close();
        r.close(); // idempotent
        assert!(r.is_closed());
        // Refused although two slots are free; the value comes back.
        assert_eq!(r.try_push(12), Err(12));
        // The closed bit is not part of the count.
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        // Everything accepted before the close drains, in order, and the
        // consumer-side probe keeps agreeing with `pop` across the wrap.
        for want in [10, 11] {
            assert!(r.pop_ready());
            assert_eq!(r.pop(), Some(want));
        }
        assert!(!r.pop_ready());
        assert_eq!(r.pop(), None);
        assert_eq!(r.len(), 0);
        assert!(r.is_closed());
        assert_eq!(r.try_push(13), Err(13));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        // Minimum 2: one slot cannot distinguish "free next lap" from
        // "published, undrained" (see with_capacity).
        assert_eq!(MpscRing::<u8>::with_capacity(0).capacity(), 2);
        assert_eq!(MpscRing::<u8>::with_capacity(1).capacity(), 2);
        assert_eq!(MpscRing::<u8>::with_capacity(3).capacity(), 4);
        assert_eq!(MpscRing::<u8>::with_capacity(1000).capacity(), 1024);
    }

    #[test]
    fn batch_drain() {
        let r: MpscRing<u64> = MpscRing::with_capacity(16);
        for i in 0..10 {
            r.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(r.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(r.pop_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        assert_eq!(r.pop_batch(&mut out, 100), 0);
    }

    #[test]
    fn concurrent_producers_deliver_everything_exactly_once() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = if cfg!(miri) { 200 } else { 20_000 };
        let r: Arc<MpscRing<u64>> = Arc::new(MpscRing::with_capacity(64));
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let r = Arc::clone(&r);
            producers.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let mut v = p * PER_PRODUCER + i;
                    loop {
                        match r.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        // Single consumer: collect everything, check the multiset and the
        // per-producer FIFO order.
        let mut seen = vec![false; (PRODUCERS * PER_PRODUCER) as usize];
        let mut last: Vec<Option<u64>> = vec![None; PRODUCERS as usize];
        let mut got = 0u64;
        while got < PRODUCERS * PER_PRODUCER {
            if let Some(v) = r.pop() {
                assert!(!seen[v as usize], "duplicate delivery of {v}");
                seen[v as usize] = true;
                let p = (v / PER_PRODUCER) as usize;
                assert!(
                    last[p].map_or(true, |prev| prev < v),
                    "producer {p} reordered"
                );
                last[p] = Some(v);
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for t in producers {
            t.join().unwrap();
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn drop_runs_destructors_of_queued_elements() {
        let payload = Arc::new(());
        {
            let r: MpscRing<Arc<()>> = MpscRing::with_capacity(8);
            for _ in 0..5 {
                r.try_push(Arc::clone(&payload)).unwrap();
            }
            assert_eq!(Arc::strong_count(&payload), 6);
            drop(r);
        }
        assert_eq!(Arc::strong_count(&payload), 1);
    }
}
