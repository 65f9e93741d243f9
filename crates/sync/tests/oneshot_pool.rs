//! The per-thread pool of freed `csds_sync::oneshot` cells, observed
//! through a counting global allocator.
//!
//! Each test sends a payload type of its own alignment, so the channel
//! cells it creates are the only live allocations of that alignment in
//! this process, and the allocator's per-alignment count of live
//! allocations is exactly "cells allocated and not yet given back to the
//! allocator" — whether they are in use or sitting in a thread's pool —
//! even while the other tests run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use csds_metrics::atomic::plain::{AtomicU64, Ordering};
use csds_sync::atomic::AtomicUsize;
use csds_sync::oneshot::{channel, Receiver, Sender};

/// Live allocations per alignment (indexed by log2 of the alignment).
static LIVE: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];

struct Counting;

fn live_slot(layout: Layout) -> Option<&'static AtomicU64> {
    LIVE.get(layout.align().trailing_zeros() as usize)
}

// SAFETY: forwards to the system allocator; the counters are plain
// atomics, which neither allocate nor touch thread-locals.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if let (false, Some(c)) = (p.is_null(), live_slot(layout)) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if let Some(c) = live_slot(layout) {
            c.fetch_sub(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Cells of `T`'s channels that are allocated right now, in use or pooled.
fn live_cells<T>() -> u64 {
    let align = std::mem::align_of::<T>();
    assert!(
        align >= 256,
        "payloads here carry an alignment of their own"
    );
    LIVE[align.trailing_zeros() as usize].load(Ordering::Relaxed)
}

/// The pool's cap, mirrored from the private constant in the oneshot
/// module.
const CAP: u64 = 1024;

#[repr(align(256))]
struct A256(#[allow(dead_code)] u64);

#[repr(align(512))]
struct A512(#[allow(dead_code)] u64);

#[repr(align(1024))]
struct A1024(Arc<AtomicUsize>);

impl Drop for A1024 {
    fn drop(&mut self) {
        self.0.fetch_add(1, csds_sync::atomic::Ordering::SeqCst);
    }
}

// The halves keep the auto traits they had as an `Arc`-shared channel:
// `Send + Sync` whenever the payload is `Send`.
const _: () = {
    fn send_sync<X: Send + Sync>() {}
    #[allow(dead_code)]
    fn payload_is_send<T: Send>() {
        send_sync::<Sender<T>>();
        send_sync::<Receiver<T>>();
        send_sync::<csds_service::Completion<T>>();
    }
};

#[test]
fn a_threads_pool_is_reused_and_deallocated_at_thread_exit() {
    std::thread::spawn(|| {
        let pairs: Vec<_> = (0..64).map(|_| channel::<A256>()).collect();
        assert_eq!(live_cells::<A256>(), 64);
        for (tx, mut rx) in pairs {
            tx.send(A256(1));
            assert!(matches!(rx.try_recv(), Some(Ok(A256(_)))));
        }
        assert_eq!(live_cells::<A256>(), 64, "taken replies free into the pool");
        let again: Vec<_> = (0..64).map(|_| channel::<A256>()).collect();
        assert_eq!(live_cells::<A256>(), 64, "new channels reuse pooled cells");
        drop(again);
        assert_eq!(live_cells::<A256>(), 64);
    })
    .join()
    .unwrap();
    assert_eq!(live_cells::<A256>(), 0, "the pool dies with its thread");
}

#[test]
fn a_thread_that_only_frees_holds_at_most_the_cap() {
    const N: usize = 3 * CAP as usize;
    // Receivers created here, finished over there: the receiving thread
    // frees every cell.
    let receivers: Vec<_> = (0..N)
        .map(|_| {
            let (tx, rx) = channel::<A512>();
            tx.send(A512(2));
            rx
        })
        .collect();
    let held = std::thread::spawn(move || {
        for mut rx in receivers {
            assert!(matches!(rx.try_recv(), Some(Ok(A512(_)))));
        }
        live_cells::<A512>()
    })
    .join()
    .unwrap();
    assert!(
        held > 0 && held <= CAP,
        "receiving thread held {held} cells"
    );
    assert_eq!(live_cells::<A512>(), 0);
    // Receivers gone before the send: the sending thread frees every cell.
    let senders: Vec<_> = (0..N)
        .map(|_| {
            let (tx, rx) = channel::<A512>();
            drop(rx);
            tx
        })
        .collect();
    let held = std::thread::spawn(move || {
        for tx in senders {
            tx.send(A512(3));
        }
        live_cells::<A512>()
    })
    .join()
    .unwrap();
    assert!(held > 0 && held <= CAP, "sending thread held {held} cells");
    assert_eq!(live_cells::<A512>(), 0);
}

/// Unparks a thread; counts wakes so a wake-up is told from a spurious
/// return of `park`.
struct Unpark {
    thread: std::thread::Thread,
    wakes: AtomicUsize,
}

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.wakes.fetch_add(1, csds_sync::atomic::Ordering::SeqCst);
        self.thread.unpark();
    }
}

/// Poll `rx` to completion on this thread, parking between polls.
fn await_on_this_thread<T>(mut rx: Receiver<T>) -> Result<T, csds_sync::oneshot::Closed> {
    let w = Arc::new(Unpark {
        thread: std::thread::current(),
        wakes: AtomicUsize::new(0),
    });
    let waker = Waker::from(Arc::clone(&w));
    loop {
        let seen = w.wakes.load(csds_sync::atomic::Ordering::SeqCst);
        match Pin::new(&mut rx).poll(&mut Context::from_waker(&waker)) {
            Poll::Ready(out) => return out,
            Poll::Pending => {
                while w.wakes.load(csds_sync::atomic::Ordering::SeqCst) == seen {
                    std::thread::park();
                }
            }
        }
    }
}

#[test]
fn completions_created_on_one_thread_resolve_on_others() {
    const ROUNDS: usize = 500;
    let drops = Arc::new(AtomicUsize::new(0));
    for round in 0..ROUNDS {
        // Created here; sent from one thread, awaited or dropped on another.
        let (tx, rx) = channel::<A1024>();
        let payload = A1024(Arc::clone(&drops));
        let sender = std::thread::spawn(move || tx.send(payload));
        let awaited = round % 2 == 0;
        let receiver = std::thread::spawn(move || {
            if awaited {
                assert!(await_on_this_thread(rx).is_ok(), "round {round}");
            } else {
                drop(rx);
            }
        });
        sender.join().unwrap();
        receiver.join().unwrap();
        // A sender dropped unsent resolves a receiver on another thread.
        let (tx, rx) = channel::<A1024>();
        let receiver = std::thread::spawn(move || await_on_this_thread(rx).is_err());
        drop(tx);
        assert!(receiver.join().unwrap(), "round {round}: not Closed");
    }
    assert_eq!(
        drops.load(csds_sync::atomic::Ordering::SeqCst),
        ROUNDS,
        "every payload dropped exactly once"
    );
    assert_eq!(live_cells::<A1024>(), 0, "every cell given back");
}
