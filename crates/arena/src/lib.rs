//! Aligned immutable byte arenas with typed zero-copy views.
//!
//! The IUSX persistence format stores its large flat arrays in their
//! in-memory little-endian layout at 8-byte-aligned file offsets, so an
//! index can be *opened* — one slurp of the file into an [`Arena`], a CRC
//! pass, O(sections) of validation — instead of *decoded* element by
//! element. The open path hands out [`ArenaVec`]s: either a borrowed view
//! into the shared arena (zero copy, `Arc`-shared across every structure
//! and worker thread) or a plain owned vector, behind one `Deref<[T]>`
//! surface, so query code cannot tell the difference.
//!
//! This is the **only** crate in the workspace that contains `unsafe`
//! code; every other crate keeps `#![forbid(unsafe_code)]`. The unsafe
//! surface is exactly two reinterpret casts (`&[u64] → &[u8]` and
//! `&[u8] → &[T]` for the sealed [`Pod`] types), both guarded by the
//! alignment and bounds checks in [`Arena::view`]:
//!
//! * the arena's storage is a `Vec<u64>`, so its base address is 8-byte
//!   aligned — stricter than any [`Pod`] type's alignment;
//! * a view is only created when `offset % align_of::<T>() == 0` and
//!   `offset + len · size_of::<T>()` lies inside the arena;
//! * [`Pod`] is sealed to `u8/u16/u32/u64/f64` — plain-old-data types
//!   with no invalid bit patterns and no padding, so any byte content is
//!   a valid value;
//! * the arena is immutable and `Arc`-shared: a view's backing memory
//!   lives exactly as long as the view, and nobody can write through it.
//!
//! On big-endian targets the stored little-endian bytes are *not* the
//! in-memory layout; [`Arena::view`] transparently falls back to an
//! element-wise decode into an owned vector, so callers stay portable
//! without a single `cfg` of their own.
//!
//! The [`le`] module is the workspace's one little-endian codec: every
//! file and wire frame writes and reads its scalar fields through it.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::fmt;
use std::io::{self, Read};
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub mod le;
pub mod narrow;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f64 {}
}

/// Plain-old-data element types an [`Arena`] can hand out views of.
///
/// Sealed: exactly `u8`, `u16`, `u32`, `u64` and `f64` — fixed-size types
/// with no padding and no invalid bit patterns, whose little-endian byte
/// layout is what the IUSX format stores. All have alignment ≤ 8, the
/// arena's base alignment.
pub trait Pod: Copy + PartialEq + fmt::Debug + Send + Sync + 'static + sealed::Sealed {
    /// `size_of::<Self>()`, as a trait constant for array math.
    const SIZE: usize;
    /// Decodes one element from exactly [`Pod::SIZE`] little-endian bytes
    /// (the [`le::Reader`], and the big-endian fallback path of
    /// [`Arena::view`]).
    fn read_le(bytes: &[u8]) -> Self;
    /// Appends the little-endian encoding of `self` to `out` ([`le::put`],
    /// and the big-endian fallback path of [`as_le_bytes`]).
    fn write_le(self, out: &mut Vec<u8>);
}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("exact-size chunk"))
            }
            #[inline]
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

impl_pod!(u8, u16, u32, u64, f64);

struct Inner {
    /// Backing storage. `u64` words, so the base address is 8-byte
    /// aligned regardless of how the arena was filled.
    words: Vec<u64>,
    /// Logical length in bytes (the words vector may round up to 8).
    len: usize,
    /// Bytes attributed to typed views so far (diagnostics for the size
    /// accounting: `len − attributed` is headers, pads and scalars).
    attributed: AtomicUsize,
}

/// An immutable, 8-byte-aligned, `Arc`-shared byte buffer.
///
/// Cloning an arena is a reference-count bump; every [`ArenaVec`] view
/// holds one clone, so the buffer lives until the last view is dropped.
/// The whole buffer is **one heap allocation** — size accounting counts
/// it once at the structure that retains the handle, and views count as
/// zero owned bytes (see [`ArenaVec::heap_bytes`]).
#[derive(Clone)]
pub struct Arena {
    inner: Arc<Inner>,
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("len", &self.inner.len)
            .field("attributed", &self.attributed_bytes())
            .finish()
    }
}

impl Arena {
    /// Copies `bytes` into a fresh aligned arena.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let words = vec![0u64; bytes.len().div_ceil(8)];
        let mut arena = Inner {
            words,
            len: bytes.len(),
            attributed: AtomicUsize::new(0),
        };
        // SAFETY: the words vector spans at least `len` bytes; u64 has no
        // padding and any byte content is valid.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(arena.words.as_mut_ptr().cast::<u8>(), bytes.len())
        };
        dst.copy_from_slice(bytes);
        Self {
            inner: Arc::new(arena),
        }
    }

    /// Slurps a whole stream into an arena: reads to end in one pass,
    /// then one aligned copy. For a file of known size prefer
    /// [`Arena::from_file`], which reads straight into aligned storage.
    ///
    /// # Errors
    ///
    /// I/O errors of the underlying reader.
    pub fn from_reader(r: &mut dyn Read) -> io::Result<Self> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Ok(Self::from_bytes(&bytes))
    }

    /// Opens `path` and reads it into an arena in a single `read` pass
    /// directly into the aligned storage (no intermediate copy).
    ///
    /// # Errors
    ///
    /// I/O errors of the open/read.
    pub fn from_file(path: &std::path::Path) -> io::Result<Self> {
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large for memory"))?;
        let mut arena = Inner {
            words: vec![0u64; len.div_ceil(8)],
            len,
            attributed: AtomicUsize::new(0),
        };
        // SAFETY: as in `from_bytes` — the words vector spans `len` bytes.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(arena.words.as_mut_ptr().cast::<u8>(), len) };
        file.read_exact(dst)?;
        // A concurrent append would make the file longer than the
        // metadata said; the envelope CRC catches torn content, but a
        // clean length check gives a better error.
        let mut probe = [0u8; 1];
        if file.read(&mut probe)? != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file grew while being read",
            ));
        }
        Ok(Self {
            inner: Arc::new(arena),
        })
    }

    /// The arena's content.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: the words vector spans at least `len` bytes, the base
        // pointer is 8-aligned (u8 needs 1), and u8 has no invalid bit
        // patterns. The arena is immutable, so no aliasing writes exist.
        unsafe {
            std::slice::from_raw_parts(self.inner.words.as_ptr().cast::<u8>(), self.inner.len)
        }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// `true` iff the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Heap bytes of the single backing allocation (the rounded-up word
    /// storage) — what the counting allocator sees for this arena.
    pub fn alloc_bytes(&self) -> usize {
        self.inner.words.capacity() * 8
    }

    /// Bytes of this arena covered by typed views so far. The remainder
    /// (`len − attributed`) is format overhead: headers, padding, scalar
    /// fields and any sections that were decoded into owned storage.
    pub fn attributed_bytes(&self) -> usize {
        self.inner.attributed.load(Ordering::Relaxed)
    }

    /// A typed view of `len` elements starting at byte `offset`.
    ///
    /// Returns `None` when the range escapes the arena or `offset` is not
    /// aligned for `T` — the caller maps that to its own typed corruption
    /// error. On little-endian targets the view borrows the arena (zero
    /// copy); on big-endian targets it decodes into an owned vector.
    pub fn view<T: Pod>(&self, offset: usize, len: usize) -> Option<ArenaVec<T>> {
        let bytes = len.checked_mul(T::SIZE)?;
        let end = offset.checked_add(bytes)?;
        if end > self.inner.len || !offset.is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        self.inner.attributed.fetch_add(bytes, Ordering::Relaxed);
        if cfg!(target_endian = "little") {
            Some(ArenaVec {
                repr: Repr::View {
                    arena: self.clone(),
                    offset,
                    len,
                },
            })
        } else {
            let raw = &self.as_bytes()[offset..end];
            Some(ArenaVec::from(
                raw.chunks_exact(T::SIZE)
                    .map(T::read_le)
                    .collect::<Vec<T>>(),
            ))
        }
    }
}

enum Repr<T: Pod> {
    Owned(Vec<T>),
    View {
        arena: Arena,
        /// Byte offset into the arena; `offset % align_of::<T>() == 0`
        /// and `offset + len · SIZE ≤ arena.len()` (checked at creation).
        offset: usize,
        len: usize,
    },
}

/// A flat array that is either owned or a zero-copy view into an
/// [`Arena`], behind one `Deref<Target = [T]>` surface.
///
/// Built indexes hold `Owned` vectors ([`From<Vec<T>>`]); arena-opened
/// indexes hold `View`s. Equality, ordering of use, and every accessor go
/// through the slice, so the two are observably identical except for
/// [`ArenaVec::heap_bytes`] (a view owns no heap — the arena is counted
/// once, by whoever retains the [`Arena`] handle).
pub struct ArenaVec<T: Pod> {
    repr: Repr<T>,
}

impl<T: Pod> ArenaVec<T> {
    /// An empty owned vector.
    pub fn new() -> Self {
        Self {
            repr: Repr::Owned(Vec::new()),
        }
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v,
            Repr::View { arena, offset, len } => {
                // SAFETY: creation checked alignment and bounds; the
                // arena base is 8-aligned and immutable, T is sealed
                // plain-old-data, and `arena` keeps the storage alive
                // for the lifetime of `self` (and of the returned
                // borrow, which cannot outlive `self`).
                unsafe {
                    std::slice::from_raw_parts(
                        arena.as_bytes().as_ptr().add(*offset).cast::<T>(),
                        *len,
                    )
                }
            }
        }
    }

    /// Heap bytes owned by this vector itself: the full capacity for an
    /// owned vector, 0 for a view (the arena's single allocation is
    /// accounted once, where the [`Arena`] handle is retained).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Owned(v) => v.capacity() * T::SIZE,
            Repr::View { .. } => 0,
        }
    }

    /// `true` iff this is a borrowed arena view.
    pub fn is_view(&self) -> bool {
        matches!(self.repr, Repr::View { .. })
    }

    /// The elements as a mutable slice. A view is first copied into an
    /// owned vector, since the arena is immutable.
    #[inline]
    pub fn to_mut(&mut self) -> &mut [T] {
        if let Repr::View { .. } = self.repr {
            self.repr = Repr::Owned(self.as_slice().to_vec());
        }
        match &mut self.repr {
            Repr::Owned(v) => v,
            Repr::View { .. } => unreachable!("a view was just copied"),
        }
    }
}

impl<T: Pod> Default for ArenaVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Pod> From<Vec<T>> for ArenaVec<T> {
    fn from(v: Vec<T>) -> Self {
        Self {
            repr: Repr::Owned(v),
        }
    }
}

impl<T: Pod> Deref for ArenaVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Clone for ArenaVec<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => Self {
                repr: Repr::Owned(v.clone()),
            },
            // Cloning a view shares the arena (no re-attribution: the
            // bytes are only counted at first view creation).
            Repr::View { arena, offset, len } => Self {
                repr: Repr::View {
                    arena: arena.clone(),
                    offset: *offset,
                    len: *len,
                },
            },
        }
    }
}

impl<T: Pod> fmt::Debug for ArenaVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: Pod> PartialEq for ArenaVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for ArenaVec<T> {}

impl<T: Pod> PartialEq<Vec<T>> for ArenaVec<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a, T: Pod> IntoIterator for &'a ArenaVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The little-endian byte image of a typed slice: borrowed on
/// little-endian targets (zero copy — this is what the IUSX writer streams
/// out in one `write_all`), encoded element-wise on big-endian ones.
pub fn as_le_bytes<T: Pod>(slice: &[T]) -> std::borrow::Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: any initialized T is valid to read as bytes (sealed
        // plain-old-data, no padding); u8 has alignment 1.
        std::borrow::Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), std::mem::size_of_val(slice))
        })
    } else {
        let mut out = Vec::with_capacity(std::mem::size_of_val(slice));
        for &v in slice {
            v.write_le(&mut out);
        }
        std::borrow::Cow::Owned(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_round_trips_bytes_and_is_aligned() {
        let data: Vec<u8> = (0..=255).collect();
        let arena = Arena::from_bytes(&data);
        assert_eq!(arena.as_bytes(), &data[..]);
        assert_eq!(arena.len(), 256);
        assert!(!arena.is_empty());
        assert_eq!(arena.as_bytes().as_ptr() as usize % 8, 0);
        assert!(arena.alloc_bytes() >= 256);
        // Odd lengths round the storage up but keep the logical length.
        let arena = Arena::from_bytes(&data[..13]);
        assert_eq!(arena.len(), 13);
        assert_eq!(arena.as_bytes(), &data[..13]);
    }

    #[test]
    fn typed_views_read_little_endian_content() {
        let mut bytes = Vec::new();
        for v in [1u32, 2, 3, 0xDEAD_BEEF] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&1.5f64.to_le_bytes());
        let arena = Arena::from_bytes(&bytes);
        let ints: ArenaVec<u32> = arena.view(0, 4).unwrap();
        assert_eq!(&*ints, &[1, 2, 3, 0xDEAD_BEEF]);
        let floats: ArenaVec<f64> = arena.view(16, 1).unwrap();
        assert_eq!(&*floats, &[1.5]);
        assert_eq!(arena.attributed_bytes(), 24);
        assert_eq!(ints.heap_bytes(), 0);
        #[cfg(target_endian = "little")]
        assert!(ints.is_view());
    }

    #[test]
    fn view_rejects_misalignment_and_overrun() {
        let arena = Arena::from_bytes(&[0u8; 32]);
        assert!(arena.view::<u32>(2, 1).is_none(), "misaligned offset");
        assert!(arena.view::<u64>(4, 1).is_none(), "misaligned for u64");
        assert!(arena.view::<u32>(0, 9).is_none(), "past the end");
        assert!(arena.view::<u8>(32, 1).is_none(), "starts at the end");
        assert!(arena.view::<u8>(0, 32).is_some(), "exact fit is fine");
        assert!(arena.view::<u64>(usize::MAX & !7, 2).is_none(), "overflow");
    }

    #[test]
    fn owned_and_view_are_observably_identical() {
        let values = vec![10u64, 20, 30];
        let owned = ArenaVec::from(values.clone());
        let arena = Arena::from_bytes(&as_le_bytes(&values[..]));
        let view: ArenaVec<u64> = arena.view(0, 3).unwrap();
        assert_eq!(owned, view);
        assert_eq!(view, values);
        assert_eq!(owned.heap_bytes(), 3 * 8);
        assert_eq!(view.len(), 3);
        assert_eq!(view[1], 20);
        assert_eq!(format!("{view:?}"), format!("{:?}", values));
        let cloned = view.clone();
        assert_eq!(cloned, owned);
        // Cloning does not re-attribute.
        assert_eq!(arena.attributed_bytes(), 24);
    }

    #[test]
    fn le_bytes_round_trip_through_pod() {
        let values = [3.25f64, -0.5, f64::MAX];
        let bytes = as_le_bytes(&values[..]);
        assert_eq!(bytes.len(), 24);
        let back: Vec<f64> = bytes.chunks_exact(8).map(f64::read_le).collect();
        assert_eq!(back, values);
    }

    #[test]
    fn from_reader_and_from_file_agree() {
        let data: Vec<u8> = (0..100u8).cycle().take(1000).collect();
        let from_reader = Arena::from_reader(&mut &data[..]).unwrap();
        assert_eq!(from_reader.as_bytes(), &data[..]);
        let dir = std::env::temp_dir().join(format!("ius_arena_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("arena.bin");
        std::fs::write(&path, &data).unwrap();
        let from_file = Arena::from_file(&path).unwrap();
        assert_eq!(from_file.as_bytes(), &data[..]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
