//! Cache-line padding for hot shared state.
//!
//! [`CachePadded<T>`] aligns (and therefore sizes) `T` to 128 bytes: the
//! adjacent-line-prefetch pair on modern x86 and the native line size of
//! several ARM/POWER parts. Two `CachePadded` values never share a line, so
//! a writer of one cannot invalidate a reader of the other (no false
//! sharing).
//!
//! Padding policy in this workspace:
//!
//! * **standalone / global lock state is padded** — queue ends, per-bucket
//!   arrays, EBR participant slots, MCS queue nodes — because neighbouring
//!   hot words otherwise ping-pong whole lines between cores;
//! * **per-node embedded locks stay compact** ([`TasLock`](crate::TasLock)
//!   is one byte by design, §3.2 of the paper): a search structure has
//!   millions of nodes, and inflating every node to a cache line would cost
//!   far more in capacity misses than false sharing ever could. Structures
//!   choose padding at the use site via `CachePadded<Lock>`, which also
//!   implements [`RawMutex`].

use crate::RawMutex;

/// Pads and aligns a value to 128 bytes.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in padding.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwrap, discarding the padding.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

/// A padded lock is a lock: structures can swap `L` for `CachePadded<L>`
/// wherever the lock state is standalone enough to deserve its own line.
impl<L: RawMutex> RawMutex for CachePadded<L> {
    fn new() -> Self {
        CachePadded::new(L::new())
    }

    #[inline]
    fn lock(&self) {
        self.value.lock();
    }

    #[inline]
    fn try_acquire(&self) -> bool {
        self.value.try_acquire()
    }

    #[inline]
    fn unlock(&self) {
        self.value.unlock();
    }

    fn is_locked(&self) -> bool {
        self.value.is_locked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TicketLock;

    #[test]
    fn layout_is_one_line_or_more() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), 128);
        // Arrays of padded values put each element on its own line.
        let arr = [CachePadded::new(0u64), CachePadded::new(1u64)];
        let a = &arr[0] as *const _ as usize;
        let b = &arr[1] as *const _ as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn deref_and_into_inner() {
        let mut p = CachePadded::new(41u64);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }

    #[test]
    fn padded_lock_is_a_raw_mutex() {
        let l: CachePadded<TicketLock> = RawMutex::new();
        l.lock();
        assert!(l.is_locked());
        assert!(!l.try_lock());
        l.unlock();
        assert!(!l.is_locked());
        assert!(l.try_lock());
        l.unlock();
    }
}
