//! `Guard::defer_free`: retiring an allocation that is not a `Box<T>`.
//!
//! In a binary of its own, one test at a time: the assertions read the
//! process-wide epoch and garbage gauges, which a sibling test's pins and
//! retirements would move.

use std::alloc::{alloc, dealloc, Layout};
use std::sync::{Mutex, MutexGuard, PoisonError};

use csds_ebr::{global_epoch, health, local_garbage_items, pin, unprotected};
use csds_sync::atomic::{AtomicUsize, Ordering};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A block size no `size_of::<T>()` of the test would produce by accident.
const BYTES: usize = 200;

static FREES: AtomicUsize = AtomicUsize::new(0);

fn block_layout() -> Layout {
    Layout::from_size_align(BYTES, 8).unwrap()
}

fn new_block() -> *mut u8 {
    // SAFETY: non-zero size.
    let p = unsafe { alloc(block_layout()) };
    assert!(!p.is_null());
    p
}

unsafe fn free_block(p: *mut u8) {
    FREES.fetch_add(1, Ordering::SeqCst);
    dealloc(p, block_layout());
}

#[test]
fn pinned_retirement_is_freed_once_after_two_advances() {
    let _serial = serial();
    let frees0 = FREES.load(Ordering::SeqCst);
    let items0 = local_garbage_items();
    let before = health();

    let g = pin();
    let e0 = global_epoch();
    // SAFETY: the block is reachable from nowhere and retired once.
    unsafe { g.defer_free(new_block(), free_block, BYTES) };
    assert_eq!(local_garbage_items(), items0 + 1);
    let during = health();
    assert_eq!(during.garbage_items, before.garbage_items + 1);
    assert_eq!(
        during.garbage_bytes,
        before.garbage_bytes + BYTES as u64,
        "the garbage gauge counts the real allocation size"
    );

    // The retiring guard is still pinned at `e0`: the epoch can move one
    // step past it, never two, so the block must stay allocated.
    for _ in 0..8 {
        g.flush();
    }
    assert!(global_epoch() <= e0 + 1);
    assert_eq!(FREES.load(Ordering::SeqCst), frees0, "freed under a pin");
    drop(g);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while FREES.load(Ordering::SeqCst) == frees0 && std::time::Instant::now() < deadline {
        pin().flush();
    }
    assert_eq!(FREES.load(Ordering::SeqCst), frees0 + 1, "never freed");
    assert!(global_epoch() >= e0 + 2, "freed before two advances");
    for _ in 0..8 {
        pin().flush();
    }
    assert_eq!(FREES.load(Ordering::SeqCst), frees0 + 1, "freed twice");
    assert_eq!(local_garbage_items(), items0);
    let after = health();
    assert_eq!(after.garbage_items, before.garbage_items);
    assert_eq!(after.garbage_bytes, before.garbage_bytes);
}

#[test]
fn unprotected_retirement_is_freed_at_once() {
    let _serial = serial();
    let frees0 = FREES.load(Ordering::SeqCst);
    let items0 = local_garbage_items();
    let before = health();
    // SAFETY: nothing else can reach the block.
    let g = unsafe { unprotected() };
    // SAFETY: the block is reachable from nowhere and retired once.
    unsafe { g.defer_free(new_block(), free_block, BYTES) };
    assert_eq!(FREES.load(Ordering::SeqCst), frees0 + 1);
    assert_eq!(local_garbage_items(), items0);
    let after = health();
    assert_eq!(after.garbage_items, before.garbage_items);
    assert_eq!(after.garbage_bytes, before.garbage_bytes);
}
