//! A bounded multi-producer, single-consumer ring buffer with cache-padded
//! endpoints — the submission queue of the `csds_service` async front-end.
//!
//! The design is the classic sequence-stamped bounded queue (Vyukov): every
//! slot carries a sequence number that encodes, relative to the endpoint
//! counters, whether the slot is empty, full, or in transit. Producers claim
//! slots with one CAS on the tail; the consumer releases them with plain
//! loads and stores. Capacity is fixed at construction, so a full ring is
//! **backpressure**: [`MpscRing::try_push`] hands the value back instead of
//! blocking or allocating.
//!
//! The two endpoint counters live on their own cache lines
//! ([`CachePadded`]): producers hammer the tail, the consumer hammers the
//! head, and neither invalidates the other's line except through the slots
//! themselves.
//!
//! **One consumer, by type.** Popping needs a [`Consumer`], which
//! [`MpscRing::consumer`] hands out to one owner at a time and which is not
//! `Sync`, so no two threads pop at once and the head advances with a plain
//! store. [`MpscRing::pop`] borrows a handle for a single pop, for callers
//! that pop now and then.
//!
//! **Closing.** [`MpscRing::close`] sets the top bit of the tail word. A
//! producer's claim is a CAS that expects the bit clear, so the tail's
//! modification order decides every race: a push either claimed its slot
//! before the close — and is then counted in the tail, so a consumer that
//! drains until `is_closed() && len() == 0` cannot miss it, stamped yet or
//! not — or it is refused. Shutdown of a service needs nothing else from
//! its producers: no flag to re-check, no in-flight counter to raise.
//!
//! **Parking.** The consumer's wish to sleep is the tail's next bit.
//! [`Consumer::announce_park`] sets it with one CAS that expects the tail
//! to equal the head: the ring open, nothing claimed past the head, stamped
//! or not. Every claim CAS expects the whole tail word, so the first push
//! after the announcement takes the bit down with its claim and learns so
//! from [`try_push`](MpscRing::try_push) (`Ok(true)`): that producer, and
//! only that one, wakes the consumer, after stamping its slot. A push that
//! claimed first makes the announcement fail, and a consumer that woke
//! without a push clears its own bit ([`Consumer::withdraw_park`]). As with
//! closing, the tail's modification order decides every race, so a submit
//! pays for the wake-up protocol nothing beyond the claim it already makes:
//! no flag to read, no fence.

use crate::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;

use crate::CachePadded;

/// One ring slot: `seq` encodes the slot's state relative to the endpoint
/// counters (see [`MpscRing`]); `val` is live iff a producer has stamped the
/// slot full and the consumer has not released it yet.
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
    /// Next position producers will claim, with [`CLOSED`] and [`PARKED`]
    /// in the top bits.
    tail: CachePadded<AtomicUsize>,
    /// The consumer's end, written only by the live [`Consumer`].
    head: CachePadded<Head>,
}

struct Head {
    /// Next position the consumer will release.
    pos: AtomicUsize,
    /// Whether a [`Consumer`] is live.
    taken: AtomicBool,
}

/// The tail's top bit: set by [`MpscRing::close`], never cleared.
const CLOSED: usize = 1 << (usize::BITS - 1);
/// The tail's next bit: set by [`Consumer::announce_park`], cleared by the
/// claim of the push that must wake the consumer, or by
/// [`Consumer::withdraw_park`].
const PARKED: usize = 1 << (usize::BITS - 2);
/// The tail's position bits. Positions count pushes over the ring's
/// lifetime and cannot reach the two flags.
const POS: usize = !(CLOSED | PARKED);

// SAFETY: values move in from producer threads and out on the consumer
// thread, so T must be Send; the ring itself synchronizes all slot access
// through the seq stamps (Release publish / Acquire observe), and popping
// needs the one `Consumer`.
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
            head: CachePadded::new(Head {
                pos: AtomicUsize::new(0),
                taken: AtomicBool::new(false),
            }),
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
        let tail = self.tail.load(Ordering::Acquire) & POS;
        let head = self.head.pos.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// Whether the ring is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's one consumer, or `None` while another [`Consumer`] is
    /// live. Dropping the handle lets the next caller take it.
    pub fn consumer(&self) -> Option<Consumer<'_, T>> {
        // Acquire pairs with the previous handle's Release drop: its last
        // head store is this one's first head load.
        if self.head.taken.swap(true, Ordering::Acquire) {
            return None;
        }
        Some(Consumer {
            ring: self,
            _not_sync: PhantomData,
        })
    }

    /// Dequeue one element, or `None` if the ring is empty, through a
    /// [`Consumer`] taken for this one call.
    ///
    /// # Panics
    /// While another [`Consumer`] is live.
    pub fn pop(&self) -> Option<T> {
        self.consumer()
            .expect("MpscRing::pop while a Consumer is live")
            .pop()
    }

    /// Refuse every later push. Pushes that claimed a slot before this call
    /// stay queued (and counted by [`len`](Self::len)) until popped. Once it
    /// has run, [`Consumer::announce_park`] fails: a closer that wants the
    /// consumer to notice unparks it unconditionally. Idempotent.
    pub fn close(&self) {
        // Relaxed, like every tail RMW: the bit publishes no data (slot
        // contents travel on the stamps' Release/Acquire), and the races it
        // decides — against a claim, against a park announcement — are
        // RMWs on this same word, which its modification order settles.
        self.tail.fetch_or(CLOSED, Ordering::Relaxed);
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
    ///
    /// `Ok(true)` means this push took down the consumer's
    /// [park announcement](Consumer::announce_park): the caller must wake
    /// the consumer, and no other push will.
    pub fn try_push(&self, value: T) -> Result<bool, T> {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            if tail & CLOSED != 0 {
                return Err(value);
            }
            let pos = tail & POS;
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // Slot empty at our position: claim it. The CAS expects the
                // whole tail word, so it fails once the ring closes, and a
                // claim after a park announcement clears it.
                match self.tail.compare_exchange_weak(
                    tail,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this producer exclusive
                        // ownership of the slot until the seq store below.
                        unsafe { (*slot.val.get()).write(value) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(tail & PARKED != 0);
                    }
                    Err(actual) => tail = actual,
                }
            } else if dif < 0 {
                // The slot still holds an element from one lap ago: full.
                return Err(value);
            } else {
                // Another producer claimed this position; chase the tail.
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
        // Exclusive access, so no handle is live (a leaked one is gone for
        // good): pop out whatever is still queued so the elements'
        // destructors run.
        let rx = Consumer {
            ring: &*self,
            _not_sync: PhantomData,
        };
        while rx.pop().is_some() {}
    }
}

/// The consuming end of an [`MpscRing`], from [`MpscRing::consumer`]: the
/// only way to pop. At most one is live per ring, and it is `Send` but not
/// `Sync`, so one thread at a time owns the head.
///
/// ```compile_fail
/// fn shared_between_threads<T: Sync>() {}
/// shared_between_threads::<csds_sync::mpsc_ring::Consumer<'static, u64>>();
/// ```
pub struct Consumer<'a, T> {
    ring: &'a MpscRing<T>,
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl<T> Consumer<'_, T> {
    /// Dequeue one element, or `None` if the ring is empty (or its head
    /// slot is claimed but not stamped yet).
    pub fn pop(&self) -> Option<T> {
        let ring = self.ring;
        let pos = ring.head.pos.load(Ordering::Relaxed);
        let slot = &ring.slots[pos & ring.mask];
        if slot.seq.load(Ordering::Acquire) != pos + 1 {
            return None;
        }
        // SAFETY: the producer's Release store of `seq` published the write,
        // and this handle is the ring's only consumer, so the slot is read
        // once per lap.
        let value = unsafe { (*slot.val.get()).assume_init_read() };
        slot.seq.store(pos + ring.mask + 1, Ordering::Release);
        // Relaxed: producers never read the head (the stamp above frees the
        // slot), `len` is a gauge, and the next handle reads it after the
        // `taken` hand-off.
        ring.head.pos.store(pos + 1, Ordering::Relaxed);
        Some(value)
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

    /// `true` means the next [`pop`](Self::pop) succeeds.
    ///
    /// Reads only `head` and that slot's stamp, never the producers' `tail`,
    /// so a consumer polling an empty ring keeps both lines in its own cache
    /// and costs a producer nothing until its publishing stamp store — unlike
    /// [`MpscRing::is_empty`], which makes every tail CAS a coherence miss. A
    /// slot a producer has claimed but not yet stamped reads `false`: its
    /// `pop` would return `None` too.
    pub fn pop_ready(&self) -> bool {
        let ring = self.ring;
        let pos = ring.head.pos.load(Ordering::Relaxed);
        ring.slots[pos & ring.mask].seq.load(Ordering::Acquire) == pos + 1
    }

    /// Announce that this consumer is about to park. `true`: the ring is
    /// open and nothing is claimed past the head, and the first push from
    /// now on reports `Ok(true)` — park, and call
    /// [`withdraw_park`](Self::withdraw_park) once awake. `false`: nothing
    /// was announced; a push has claimed a slot (stamped or not) or the
    /// ring is closed.
    pub fn announce_park(&self) -> bool {
        let head = self.ring.head.pos.load(Ordering::Relaxed);
        // The `mpsc_ring.announce_on_stamp` model knob seeds the bug this
        // CAS exists to avoid: deciding on the head slot's stamp, which
        // reads "empty" while a producer that claimed before the bit went
        // up has yet to stamp, so that producer sees no announcement and
        // the consumer sleeps on its request (see
        // crates/modelcheck/tests/service_wake.rs).
        #[cfg(feature = "modelcheck")]
        if csds_modelcheck::model_config_u64("mpsc_ring.announce_on_stamp") == Some(1) {
            let tail = self.ring.tail.fetch_or(PARKED, Ordering::Relaxed);
            return tail & CLOSED == 0 && !self.pop_ready();
        }
        self.ring
            .tail
            .compare_exchange(head, head | PARKED, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// End a park that [`announce_park`](Self::announce_park) allowed:
    /// clear the bit if no push took it (a timed-out or spurious wake-up).
    pub fn withdraw_park(&self) {
        // Only the consumer sets the bit, so a load that finds it clear
        // stays true, and the common case — a push took it — is not an RMW.
        if self.ring.tail.load(Ordering::Relaxed) & PARKED != 0 {
            self.ring.tail.fetch_and(!PARKED, Ordering::Relaxed);
        }
    }
}

impl<T> Drop for Consumer<'_, T> {
    fn drop(&mut self) {
        self.ring.head.taken.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_one_producer() {
        let r: MpscRing<u64> = MpscRing::with_capacity(8);
        let rx = r.consumer().unwrap();
        assert_eq!(r.capacity(), 8);
        for i in 0..8 {
            assert!(r.try_push(i).is_ok());
        }
        assert_eq!(r.len(), 8);
        // Full ring hands the value back.
        assert_eq!(r.try_push(99), Err(99));
        for i in 0..8 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
        assert!(r.is_empty());
        // Wrap around a few laps.
        for lap in 0..5u64 {
            for i in 0..8 {
                assert!(r.try_push(lap * 100 + i).is_ok());
            }
            for i in 0..8 {
                assert_eq!(rx.pop(), Some(lap * 100 + i));
            }
        }
    }

    #[test]
    fn pop_ready_agrees_with_pop() {
        let r: MpscRing<u64> = MpscRing::with_capacity(4);
        let rx = r.consumer().unwrap();
        // Empty.
        assert!(!rx.pop_ready());
        assert_eq!(rx.pop(), None);
        // One element.
        r.try_push(1).unwrap();
        assert!(rx.pop_ready());
        assert_eq!(rx.pop(), Some(1));
        assert!(!rx.pop_ready());
        // Full, and ready until the last element is out.
        for i in 0..4 {
            r.try_push(i).unwrap();
        }
        assert_eq!(r.try_push(9), Err(9));
        for i in 0..4 {
            assert!(rx.pop_ready());
            assert_eq!(rx.pop(), Some(i));
        }
        assert!(!rx.pop_ready());
        // Across a wrap: head sits at 5 of 4 slots, so slot 1 carries a
        // stamp from this lap, not the first.
        for lap in 0..3u64 {
            for i in 0..3 {
                r.try_push(lap * 10 + i).unwrap();
            }
            for i in 0..3 {
                assert!(rx.pop_ready());
                assert_eq!(rx.pop(), Some(lap * 10 + i));
            }
            assert!(
                !rx.pop_ready(),
                "a drained slot's next-lap stamp is not ready"
            );
        }
    }

    #[test]
    fn close_refuses_later_pushes_and_keeps_what_was_accepted() {
        let r: MpscRing<u64> = MpscRing::with_capacity(4);
        let rx = r.consumer().unwrap();
        // Start mid-lap so the accepted elements straddle a wrap.
        for i in 0..3 {
            r.try_push(i).unwrap();
            assert_eq!(rx.pop(), Some(i));
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
            assert!(rx.pop_ready());
            assert_eq!(rx.pop(), Some(want));
        }
        assert!(!rx.pop_ready());
        assert_eq!(rx.pop(), None);
        assert_eq!(r.len(), 0);
        assert!(r.is_closed());
        assert_eq!(r.try_push(13), Err(13));
    }

    #[test]
    fn one_consumer_at_a_time() {
        let r: MpscRing<u64> = MpscRing::with_capacity(4);
        let rx = r.consumer().expect("the first consumer");
        assert!(
            r.consumer().is_none(),
            "a second consumer while one is live"
        );
        r.try_push(1).unwrap();
        r.try_push(2).unwrap();
        assert_eq!(rx.pop(), Some(1));
        drop(rx);
        // The head carries over to the next handle, one-off pops included.
        assert_eq!(r.pop(), Some(2));
        r.try_push(3).unwrap();
        let rx = r.consumer().expect("taken again once dropped");
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    #[should_panic(expected = "while a Consumer is live")]
    fn a_one_off_pop_refuses_to_race_a_live_consumer() {
        let r: MpscRing<u64> = MpscRing::with_capacity(4);
        let _rx = r.consumer().unwrap();
        let _ = r.pop();
    }

    #[test]
    fn the_first_push_onto_a_parked_ring_reports_the_wake_up() {
        let r: MpscRing<u64> = MpscRing::with_capacity(4);
        let rx = r.consumer().unwrap();
        // Mid-lap, so the announcement compares against a moved head.
        r.try_push(0).unwrap();
        assert_eq!(rx.pop(), Some(0));
        assert!(rx.announce_park());
        assert_eq!(r.len(), 0, "the park bit is not part of the count");
        assert_eq!(r.try_push(1), Ok(true), "the first push wakes");
        assert_eq!(r.try_push(2), Ok(false), "the second does not");
        rx.withdraw_park();
        assert_eq!(r.len(), 2);
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        // Woken without a push: the consumer clears its own bit.
        assert!(rx.announce_park());
        rx.withdraw_park();
        assert_eq!(r.try_push(3), Ok(false), "a withdrawn park wakes nobody");
        assert_eq!(rx.pop(), Some(3));
    }

    #[test]
    fn a_park_announcement_is_refused_behind_a_claim_or_on_a_closed_ring() {
        let r: MpscRing<u64> = MpscRing::with_capacity(4);
        let rx = r.consumer().unwrap();
        // A stamped element.
        r.try_push(1).unwrap();
        assert!(!rx.announce_park());
        assert_eq!(rx.pop(), Some(1));
        // A producer that has claimed the next slot and not stamped it yet:
        // the consumer-side probe reads "empty", the tail does not.
        r.tail.fetch_add(1, Ordering::Relaxed);
        assert!(!rx.pop_ready());
        assert!(!rx.announce_park(), "parked behind an unstamped claim");
        assert_eq!(r.tail.load(Ordering::Relaxed) & PARKED, 0);
        // The producer stamps; the consumer drains it.
        let slot = &r.slots[1];
        // SAFETY: the claim above owns slot 1 until its stamp.
        unsafe { (*slot.val.get()).write(2) };
        slot.seq.store(2, Ordering::Release);
        assert_eq!(rx.pop(), Some(2));
        // Empty and closed: refused too.
        r.close();
        assert!(!rx.announce_park(), "parked on a closed ring");
        assert_eq!(r.tail.load(Ordering::Relaxed) & PARKED, 0);
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
        let rx = r.consumer().unwrap();
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.pop_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        assert_eq!(rx.pop_batch(&mut out, 100), 0);
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
                            Ok(_) => break,
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
        let rx = r.consumer().unwrap();
        let mut seen = vec![false; (PRODUCERS * PER_PRODUCER) as usize];
        let mut last: Vec<Option<u64>> = vec![None; PRODUCERS as usize];
        let mut got = 0u64;
        while got < PRODUCERS * PER_PRODUCER {
            if let Some(v) = rx.pop() {
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
        assert_eq!(rx.pop(), None);
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
