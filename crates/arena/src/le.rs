//! The one little-endian codec behind every file and frame: the `IUSX`
//! index envelope, the `IUSL`/`IUSG` live directory, the `IUSJ`
//! write-ahead log and the `IUSW` wire protocol.
//!
//! Writing appends to a `Vec<u8>`: [`put`] one [`Pod`] scalar, [`put_slice`]
//! a [`Pod`] slice (through [`as_le_bytes`], one copy on little-endian
//! targets). Reading goes through a [`Reader`], a bounds-checked cursor
//! over a byte slice. A read past the end is a [`Truncated`] error naming
//! the field, and [`Reader::vec`] checks a stored count against the bytes
//! that remain before it allocates, so a lying count cannot reserve
//! memory. Each format keeps its own header, version policy and error
//! kinds; this module only moves the bytes.
//!
//! Every function is generic or `#[inline]`: the wire decode runs on every
//! query, and release builds have no link-time optimisation to inline
//! across crates.

use crate::{as_le_bytes, Pod};
use std::fmt;

/// Appends the little-endian bytes of `value` to `out`.
#[inline]
pub fn put<T: Pod>(out: &mut Vec<u8>, value: T) {
    value.write_le(out);
}

/// Appends the little-endian bytes of every element of `values` to `out`.
#[inline]
pub fn put_slice<T: Pod>(out: &mut Vec<u8>, values: &[T]) {
    out.extend_from_slice(&as_le_bytes(values));
}

/// A read ran past the end of its input while decoding `what`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// The field being decoded.
    pub what: &'static str,
}

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "truncated while decoding {}", self.what)
    }
}

impl std::error::Error for Truncated {}

/// A truncation reads back as `UnexpectedEof`, the kind a short stream
/// read gives.
impl From<Truncated> for std::io::Error {
    fn from(e: Truncated) -> Self {
        std::io::Error::new(std::io::ErrorKind::UnexpectedEof, e.to_string())
    }
}

/// A bounds-checked little-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the first byte of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes, borrowed.
    ///
    /// # Errors
    ///
    /// [`Truncated`] naming `what` when fewer than `n` bytes remain.
    #[inline]
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], Truncated> {
        if n > self.remaining() {
            return Err(Truncated { what });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One scalar.
    ///
    /// # Errors
    ///
    /// [`Truncated`] naming `what` when fewer than [`Pod::SIZE`] bytes
    /// remain.
    #[inline]
    pub fn get<T: Pod>(&mut self, what: &'static str) -> Result<T, Truncated> {
        Ok(T::read_le(self.bytes(T::SIZE, what)?))
    }

    /// A stored `u64` length or count, as a `usize`. A value past the
    /// address space cannot count bytes that remain, so it reads as a
    /// truncation of `what`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] naming `what`.
    #[inline]
    pub fn usize(&mut self, what: &'static str) -> Result<usize, Truncated> {
        usize::try_from(self.get::<u64>(what)?).map_err(|_| Truncated { what })
    }

    /// `count` elements, owned. The count is checked against the bytes
    /// that remain before anything is allocated.
    ///
    /// # Errors
    ///
    /// [`Truncated`] naming `what` when fewer than `count` elements
    /// remain.
    #[inline]
    pub fn vec<T: Pod>(&mut self, count: usize, what: &'static str) -> Result<Vec<T>, Truncated> {
        let n = count.checked_mul(T::SIZE).ok_or(Truncated { what })?;
        Ok(self
            .bytes(n, what)?
            .chunks_exact(T::SIZE)
            .map(T::read_le)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_slices_round_trip() {
        let mut out = Vec::new();
        put(&mut out, 7u8);
        put(&mut out, 0xBEEFu16);
        put(&mut out, 0xDEAD_BEEFu32);
        put(&mut out, u64::MAX - 1);
        put(&mut out, -0.5f64);
        put_slice(&mut out, &[1.5f64, f64::MIN_POSITIVE]);
        put_slice(&mut out, &[3u32, 4]);
        assert_eq!(&out[..3], &[7, 0xEF, 0xBE]);
        let mut r = Reader::new(&out);
        assert_eq!(r.get::<u8>("a"), Ok(7));
        assert_eq!(r.get::<u16>("b"), Ok(0xBEEF));
        assert_eq!(r.get::<u32>("c"), Ok(0xDEAD_BEEF));
        assert_eq!(r.usize("d"), Ok(usize::MAX - 1));
        assert_eq!(r.get::<f64>("e"), Ok(-0.5));
        assert_eq!(r.vec::<f64>(2, "f"), Ok(vec![1.5, f64::MIN_POSITIVE]));
        assert_eq!(r.pos(), out.len() - 8);
        assert_eq!(r.bytes(8, "g"), Ok(&out[out.len() - 8..]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn short_reads_are_truncations_naming_the_field() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get::<u32>("width"), Err(Truncated { what: "width" }));
        // A failed read consumes nothing.
        assert_eq!(r.get::<u16>("short"), Ok(0x0201));
        assert_eq!(r.bytes(2, "tail"), Err(Truncated { what: "tail" }));
        let err: std::io::Error = Truncated { what: "tail" }.into();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("tail"), "{err}");
    }

    #[test]
    fn a_lying_count_fails_before_allocating() {
        let bytes = [0u8; 16];
        let mut r = Reader::new(&bytes);
        assert!(r.vec::<u64>(3, "three").is_err());
        assert!(r.vec::<u64>(usize::MAX, "overflowing").is_err());
        assert!(r.vec::<f64>(usize::MAX / 4, "huge").is_err());
        assert_eq!(r.vec::<u64>(2, "two"), Ok(vec![0, 0]));
    }
}
