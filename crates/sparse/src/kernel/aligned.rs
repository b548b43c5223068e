//! 64-byte-aligned contiguous storage for kernel-facing buffers.
//!
//! `Vec<f64>` only guarantees 8-byte alignment; [`AlignedVec`] allocates
//! at [`ALIGNMENT`]-byte (cache-line) boundaries. Its one user is
//! [`crate::DenseBlock`]. Only the start of a block's buffer is aligned
//! (column `c` starts `c · nrows` doubles in), and the blocked LDLᵀ
//! sweeps never read block storage. The allocation stays because a `Vec<f64>`-backed block
//! measured slower end to end, for reasons not yet established; see
//! [`crate::DenseBlock`] for the code that reads block storage and the
//! numbers.
//!
//! The element type is constrained to `Copy` (plain numbers and small
//! index types), which keeps drop handling trivial: freeing the buffer
//! never needs to run element destructors.

use std::alloc::{self, Layout};
use std::ops::{Deref, DerefMut};

/// Alignment, in bytes, of every [`AlignedVec`] allocation (one cache
/// line).
pub const ALIGNMENT: usize = 64;

/// A growable contiguous buffer whose allocation starts on an
/// [`ALIGNMENT`]-byte boundary.
///
/// Supports the small slice-building vocabulary the sparse constructors
/// need (`push`, `resize`, `extend_from_slice`) and dereferences to
/// `&[T]` / `&mut [T]` for everything else.
///
/// # Example
///
/// ```
/// use sass_sparse::kernel::{AlignedVec, ALIGNMENT};
///
/// let mut v: AlignedVec<f64> = AlignedVec::new();
/// v.resize(5, 1.5);
/// assert_eq!(&v[..], &[1.5; 5]);
/// assert_eq!(v.as_ptr() as usize % ALIGNMENT, 0);
/// ```
pub struct AlignedVec<T: Copy> {
    ptr: std::ptr::NonNull<T>,
    len: usize,
    cap: usize,
}

// SAFETY: an AlignedVec owns its buffer exclusively, exactly like Vec<T>;
// T: Copy types carry no interior mutability or thread affinity.
unsafe impl<T: Copy + Send> Send for AlignedVec<T> {}
unsafe impl<T: Copy + Sync> Sync for AlignedVec<T> {}

impl<T: Copy> AlignedVec<T> {
    /// An empty vector; allocates nothing until the first element arrives.
    pub fn new() -> Self {
        assert!(std::mem::size_of::<T>() > 0, "zero-sized elements");
        assert!(
            std::mem::align_of::<T>() <= ALIGNMENT,
            "element alignment exceeds the buffer alignment"
        );
        AlignedVec {
            ptr: std::ptr::NonNull::dangling(),
            len: 0,
            cap: 0,
        }
    }

    /// An empty vector with room for `cap` elements before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        let mut v = Self::new();
        v.reserve_total(cap);
        v
    }

    /// A vector of `len` copies of `value`.
    pub fn from_elem(value: T, len: usize) -> Self {
        let mut v = Self::with_capacity(len);
        v.resize(len, value);
        v
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn layout(cap: usize) -> Layout {
        // Checked multiply: the wrapped product would otherwise yield a
        // tiny allocation followed by out-of-bounds writes (`Vec` guards
        // the same case). Both failures are documented panics, not
        // recoverable errors — allocation-size overflow has no caller
        // that could do anything but abort the construction.
        let Some(bytes) = cap.checked_mul(std::mem::size_of::<T>()) else {
            panic!("AlignedVec capacity overflow: {cap} elements");
        };
        match Layout::from_size_align(bytes, ALIGNMENT) {
            Ok(layout) => layout,
            Err(_) => panic!("AlignedVec layout overflow: {bytes} bytes"),
        }
    }

    /// Grows the allocation to hold at least `cap` elements (never
    /// shrinks; amortizes by doubling).
    fn reserve_total(&mut self, cap: usize) {
        if cap <= self.cap {
            return;
        }
        let new_cap = cap.max(self.cap * 2).max(8);
        let new_layout = Self::layout(new_cap);
        // SAFETY: the layout is non-zero-sized (cap >= 8, T non-ZST); on
        // the realloc path the old pointer was allocated here with the
        // same alignment and element type.
        let raw = unsafe {
            if self.cap == 0 {
                alloc::alloc(new_layout)
            } else {
                alloc::realloc(
                    self.ptr.as_ptr().cast::<u8>(),
                    Self::layout(self.cap),
                    new_layout.size(),
                )
            }
        };
        let Some(ptr) = std::ptr::NonNull::new(raw.cast::<T>()) else {
            alloc::handle_alloc_error(new_layout);
        };
        self.ptr = ptr;
        self.cap = new_cap;
    }

    /// Appends one element.
    pub fn push(&mut self, value: T) {
        self.reserve_total(self.len + 1);
        // SAFETY: reserve_total guarantees room for index `len`.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
    }

    /// Resizes to `new_len`, filling any new slots with `value`.
    pub fn resize(&mut self, new_len: usize, value: T) {
        if new_len > self.len {
            self.reserve_total(new_len);
            for i in self.len..new_len {
                // SAFETY: capacity covers `new_len`.
                unsafe { self.ptr.as_ptr().add(i).write(value) };
            }
        }
        self.len = new_len;
    }

    /// Appends every element of `other`.
    pub fn extend_from_slice(&mut self, other: &[T]) {
        self.reserve_total(self.len + other.len());
        // SAFETY: capacity covers the combined length; a slice cannot
        // overlap this freshly reserved tail.
        unsafe {
            std::ptr::copy_nonoverlapping(
                other.as_ptr(),
                self.ptr.as_ptr().add(self.len),
                other.len(),
            );
        }
        self.len += other.len();
    }

    /// The elements as a slice.
    fn as_slice(&self) -> &[T] {
        // SAFETY: `len` elements starting at `ptr` are initialized.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The elements as a mutable slice.
    fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as `as_slice`, with exclusive access through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: allocated by `reserve_total` with this layout;
            // T: Copy, so elements need no drop.
            unsafe { alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), Self::layout(self.cap)) };
        }
    }
}

impl<T: Copy> Default for AlignedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        let mut v = Self::with_capacity(self.len);
        v.extend_from_slice(self.as_slice());
        v
    }
}

impl<T: Copy + PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy> Deref for AlignedVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> DerefMut for AlignedVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy> From<&[T]> for AlignedVec<T> {
    fn from(slice: &[T]) -> Self {
        let mut v = Self::with_capacity(slice.len());
        v.extend_from_slice(slice);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_cache_line_aligned() {
        for n in [1usize, 7, 8, 9, 1000] {
            let v = AlignedVec::from_elem(1.25f64, n);
            assert_eq!(v.as_ptr() as usize % ALIGNMENT, 0, "n = {n}");
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x == 1.25));
        }
        let f: AlignedVec<f32> = AlignedVec::from_elem(2.0, 13);
        assert_eq!(f.as_ptr() as usize % ALIGNMENT, 0);
    }

    #[test]
    fn push_resize_extend_round_trip() {
        let mut v: AlignedVec<f64> = AlignedVec::new();
        assert!(v.is_empty());
        for i in 0..100 {
            v.push(i as f64);
        }
        v.extend_from_slice(&[100.0, 101.0]);
        assert_eq!(v.len(), 102);
        assert_eq!(v[57], 57.0);
        v.resize(4, 0.0);
        assert_eq!(&v[..], &[0.0, 1.0, 2.0, 3.0]);
        v.resize(6, 9.0);
        assert_eq!(&v[..], &[0.0, 1.0, 2.0, 3.0, 9.0, 9.0]);
        // Growth must preserve alignment across reallocations.
        assert_eq!(v.as_ptr() as usize % ALIGNMENT, 0);
    }

    #[test]
    fn clone_eq_debug_default() {
        let v = AlignedVec::from_elem(3.5f64, 5);
        let w = v.clone();
        assert_eq!(v, w);
        assert_eq!(w.as_ptr() as usize % ALIGNMENT, 0);
        assert_ne!(v, AlignedVec::from_elem(3.5f64, 4));
        assert_eq!(format!("{:?}", AlignedVec::from_elem(1i32, 2)), "[1, 1]");
        let d: AlignedVec<f64> = AlignedVec::default();
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "AlignedVec capacity overflow")]
    fn capacity_overflow_panics_instead_of_wrapping() {
        // cap · size_of::<f64>() wraps in a raw multiply; the checked
        // layout must panic rather than hand back a tiny allocation.
        let _ = AlignedVec::<f64>::with_capacity(usize::MAX / 8 + 1);
    }

    #[test]
    fn from_slice_copies() {
        let v: AlignedVec<u32> = AlignedVec::from(&[3u32, 1, 4][..]);
        assert_eq!(&v[..], &[3, 1, 4]);
    }
}
