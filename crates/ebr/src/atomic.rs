//! Tagged atomic pointers for epoch-protected data structures.
//!
//! [`Atomic<T>`] is an atomic pointer to a heap-allocated `T`, loadable only
//! under a pin [`Guard`]. [`Shared<'g, T>`] is the loaded value: a possibly
//! tagged, possibly null pointer whose pointee is guaranteed live for the
//! guard's lifetime `'g`.
//!
//! The low `log2(align_of::<T>())` bits of the pointer are available as a
//! **tag**. Harris's lock-free list stores its logical-deletion mark there;
//! other structures use tags for flags on links.

use std::marker::PhantomData;

use csds_sync::atomic::{AtomicUsize, Ordering};

use crate::Guard;

#[inline]
fn tag_mask<T>() -> usize {
    std::mem::align_of::<T>() - 1
}

/// An atomic, taggable pointer to a heap-allocated `T`.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: Atomic<T> hands out &T across threads (via Shared), so T must be
// Sync; ownership of T can move to whichever thread reclaims it, so Send.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> Atomic<T> {
    /// A null pointer (tag 0).
    pub const fn null() -> Self {
        Atomic {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Allocate `value` on the heap and point at it (tag 0).
    pub fn new(value: T) -> Self {
        let raw = Box::into_raw(Box::new(value)) as usize;
        Atomic {
            data: AtomicUsize::new(raw),
            _marker: PhantomData,
        }
    }

    /// Load with `Acquire`; the guard certifies the pointee stays live.
    #[inline]
    pub fn load<'g>(&self, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            data: self.data.load(Ordering::Acquire),
            _marker: PhantomData,
        }
    }

    /// Store with `Release`.
    #[inline]
    pub fn store(&self, new: Shared<'_, T>) {
        self.data.store(new.data, Ordering::Release);
    }

    /// Compare-and-swap (`AcqRel` on success). On failure returns the value
    /// actually found.
    #[inline]
    pub fn compare_exchange<'g>(
        &self,
        current: Shared<'_, T>,
        new: Shared<'_, T>,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, Shared<'g, T>> {
        match self.data.compare_exchange(
            current.data,
            new.data,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(v) => Ok(Shared {
                data: v,
                _marker: PhantomData,
            }),
            Err(v) => Err(Shared {
                data: v,
                _marker: PhantomData,
            }),
        }
    }

    /// Unconditional swap (`AcqRel`).
    #[inline]
    pub fn swap<'g>(&self, new: Shared<'_, T>, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            data: self.data.swap(new.data, Ordering::AcqRel),
            _marker: PhantomData,
        }
    }

    /// Raw untyped load (`Relaxed`). For destructors and diagnostics only.
    pub fn load_raw(&self) -> usize {
        self.data.load(Ordering::Relaxed)
    }

    /// Expose the underlying atomic word. Used by the HTM emulation, whose
    /// transactional read/write sets operate on `&AtomicUsize`.
    pub fn as_raw_atomic(&self) -> &AtomicUsize {
        &self.data
    }
}

impl<T> From<Shared<'_, T>> for Atomic<T> {
    /// An atomic pointing where `ptr` points (tag included).
    fn from(ptr: Shared<'_, T>) -> Self {
        Atomic {
            data: AtomicUsize::new(ptr.data),
            _marker: PhantomData,
        }
    }
}

impl<T> std::fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Atomic({:#x})", self.load_raw())
    }
}

/// A tagged shared pointer valid for the guard lifetime `'g`.
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl<T> Eq for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer (tag 0).
    pub const fn null() -> Self {
        Shared {
            data: 0,
            _marker: PhantomData,
        }
    }

    /// Heap-allocate `value` and return an (unpublished) shared pointer to
    /// it. Until published via a successful store/CAS, the caller owns the
    /// allocation and must free it on failure with [`Shared::into_box`].
    pub fn boxed(value: T) -> Self {
        Shared {
            data: Box::into_raw(Box::new(value)) as usize,
            _marker: PhantomData,
        }
    }

    /// Reconstruct from a raw word (as produced by [`Shared::as_raw`]).
    ///
    /// # Safety
    /// `data` must be null or a pointer obtained from this module whose
    /// pointee is valid for `'g`.
    pub unsafe fn from_raw(data: usize) -> Self {
        Shared {
            data,
            _marker: PhantomData,
        }
    }

    /// The raw word: pointer bits plus tag.
    pub fn as_raw(&self) -> usize {
        self.data
    }

    /// Pointer bits only (tag cleared).
    pub fn as_untagged_raw(&self) -> usize {
        self.data & !tag_mask::<T>()
    }

    /// Whether the pointer bits are null (ignores the tag).
    pub fn is_null(&self) -> bool {
        self.as_untagged_raw() == 0
    }

    /// The tag stored in the low bits.
    pub fn tag(&self) -> usize {
        self.data & tag_mask::<T>()
    }

    /// Same pointer with the tag replaced by `tag`.
    pub fn with_tag(&self, tag: usize) -> Self {
        debug_assert!(tag <= tag_mask::<T>(), "tag does not fit alignment bits");
        Shared {
            data: self.as_untagged_raw() | (tag & tag_mask::<T>()),
            _marker: PhantomData,
        }
    }

    /// Dereference.
    ///
    /// # Safety
    /// The pointer must be non-null, and the pointee must not have been
    /// retired before the guard that produced this `Shared` was pinned.
    pub unsafe fn deref(&self) -> &'g T {
        debug_assert!(!self.is_null());
        &*(self.as_untagged_raw() as *const T)
    }

    /// Dereference if non-null.
    ///
    /// # Safety
    /// Same contract as [`Shared::deref`].
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        if self.is_null() {
            None
        } else {
            Some(self.deref())
        }
    }

    /// Reclaim ownership of an **unpublished or fully unlinked** allocation.
    ///
    /// # Safety
    /// The caller must be the unique owner (e.g. a CAS publishing this
    /// pointer failed, or the structure is being dropped with `&mut self`).
    pub unsafe fn into_box(self) -> Box<T> {
        debug_assert!(!self.is_null());
        Box::from_raw(self.as_untagged_raw() as *mut T)
    }
}

impl<T> std::fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Shared({:#x}, tag={})",
            self.as_untagged_raw(),
            self.tag()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin;

    #[test]
    fn null_and_tag_roundtrip() {
        let s = Shared::<u64>::null();
        assert!(s.is_null());
        assert_eq!(s.tag(), 0);
        let t = s.with_tag(1);
        assert!(t.is_null(), "tagging must not make null look non-null");
        assert_eq!(t.tag(), 1);
    }

    #[test]
    fn boxed_deref_and_reclaim() {
        let s = Shared::boxed(42u64);
        // SAFETY: unpublished unique allocation.
        unsafe {
            assert_eq!(*s.deref(), 42);
            assert_eq!(*s.into_box(), 42);
        }
    }

    #[test]
    fn atomic_store_load() {
        let g = pin();
        let a = Atomic::<u64>::null();
        assert!(a.load(&g).is_null());
        let s = Shared::boxed(7u64);
        a.store(s);
        let l = a.load(&g);
        // SAFETY: just stored, alive under pin.
        unsafe { assert_eq!(*l.deref(), 7) };
        // Clean up (sole owner).
        a.store(Shared::null());
        // SAFETY: unlinked above, unique owner.
        unsafe { drop(l.into_box()) };
    }

    #[test]
    fn cas_success_and_failure() {
        let g = pin();
        let a = Atomic::<u64>::new(1);
        let cur = a.load(&g);
        let newer = Shared::boxed(2u64);
        assert!(a.compare_exchange(cur, newer, &g).is_ok());
        let stale = cur;
        let another = Shared::boxed(3u64);
        let err = a.compare_exchange(stale, another, &g).unwrap_err();
        // SAFETY: `newer` is what lives in the cell now.
        unsafe { assert_eq!(*err.deref(), 2) };
        // Failed publish: we still own `another`.
        unsafe { drop(another.into_box()) };
        // Teardown.
        let last = a.load(&g);
        a.store(Shared::null());
        // SAFETY: unlinked, unique owner; `cur` (value 1) too.
        unsafe {
            drop(last.into_box());
            drop(cur.into_box());
        }
    }

    #[test]
    fn tags_survive_cas() {
        let g = pin();
        let a = Atomic::<u64>::new(5);
        let cur = a.load(&g);
        assert_eq!(cur.tag(), 0);
        // Mark the pointer (Harris-style logical deletion).
        assert!(a.compare_exchange(cur, cur.with_tag(1), &g).is_ok());
        let marked = a.load(&g);
        assert_eq!(marked.tag(), 1);
        assert_eq!(marked.as_untagged_raw(), cur.as_untagged_raw());
        // SAFETY: same allocation.
        unsafe { assert_eq!(*marked.deref(), 5) };
        a.store(Shared::null());
        // SAFETY: unlinked, unique owner.
        unsafe { drop(marked.into_box()) };
    }

    #[test]
    fn alignment_gives_tag_bits() {
        assert_eq!(tag_mask::<u64>(), 7);
        assert!(tag_mask::<u8>() == 0);
    }
}
