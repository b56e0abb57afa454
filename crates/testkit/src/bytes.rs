//! A cheaply-cloneable immutable byte buffer, replacing the external
//! `bytes` crate.
//!
//! [`Bytes`] is a reference-counted view into a shared `Arc<[u8]>`
//! backing store. Cloning and [`Bytes::slice`] are O(1) and never copy
//! payload — which is exactly the shared-immutability contract the IX
//! zero-copy `sendv` path models (§3 of the paper: the application must
//! keep transmitted buffers immutable until the peer acknowledges them).
//!
//! Only the API surface the workspace actually uses is provided; this is
//! deliberately not a general-purpose buffer library.

use std::borrow::Borrow;
use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted slice of bytes.
///
/// `Clone` is a refcount bump; `slice` produces a new view into the same
/// backing allocation.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    off: usize,
    len: usize,
}

/// Alias under the name the ROADMAP uses for this type.
pub type ByteBuf = Bytes;

impl Bytes {
    /// An empty buffer (no allocation is shared, but the view is valid).
    pub fn new() -> Bytes {
        Bytes::from_vec(Vec::new())
    }

    /// Wraps a static byte string.
    pub fn from_static(data: &'static [u8]) -> Bytes {
        // One copy into the shared store; acceptable for the short
        // literals this is used with, and keeps the representation to a
        // single variant.
        Bytes::copy_from_slice(data)
    }

    /// Copies `data` into a fresh shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes {
            data: Arc::from(data),
            off: 0,
            len: data.len(),
        }
    }

    fn from_vec(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            data: Arc::from(v),
            off: 0,
            len,
        }
    }

    /// Wraps an existing shared allocation as a view of
    /// `[off, off + len)` — no copy, refcount bump only. This is how an
    /// mbuf exposes its payload to the application on the zero-copy RX
    /// path while the stack retains the buffer until `recv_done`.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the allocation.
    pub fn from_shared(data: Arc<[u8]>, off: usize, len: usize) -> Bytes {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= data.len()),
            "view [{off}, {off}+{len}) out of bounds for {} B storage",
            data.len()
        );
        Bytes { data, off, len }
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// Returns a sub-view of this buffer sharing the same storage.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end, "slice start {start} > end {end}");
        assert!(end <= self.len, "slice end {end} > len {}", self.len);
        Bytes {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len: end - start,
        }
    }

    /// True when both views share the same backing allocation, regardless
    /// of offset/length. This is how the zero-copy tests prove that a
    /// retransmit-queue entry aliases the sender's storage block instead
    /// of holding a deep copy.
    pub fn ptr_eq(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Number of live views (including this one) of the backing
    /// allocation. Drops to 1 once every other alias has been released —
    /// e.g. after the retransmit queue reaps an acked segment.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from_vec(v.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} B)", self.len)
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![1u8; 1 << 16]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn slice_views_same_storage() {
        let a = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = a.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.as_ptr(), a[2..].as_ptr());
        assert_eq!(a.slice(..3), [0, 1, 2]);
        assert_eq!(a.slice(3..), [3, 4, 5]);
        assert_eq!(a.slice(..).len(), 6);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        let a = Bytes::from(vec![0u8; 4]);
        let _ = a.slice(2..9);
    }

    #[test]
    fn ptr_eq_tracks_shared_storage() {
        let a = Bytes::from(vec![0u8; 64]);
        let view = a.slice(8..24);
        assert!(a.ptr_eq(&view));
        assert_eq!(a.ref_count(), 2);
        let copy = Bytes::copy_from_slice(&a);
        assert!(!a.ptr_eq(&copy));
        drop(view);
        assert_eq!(a.ref_count(), 1);
    }

    #[test]
    fn equality_is_by_content() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
        assert_ne!(a, Bytes::from_static(b"xyz"));
    }
}
