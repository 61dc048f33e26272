//! Tables of small unsigned integers stored at the narrowest of `u8`,
//! `u16` and `u32` that holds their maximum.
//!
//! A factor set's lengths and mismatch depths are bounded by its longest
//! factor, its mismatch offsets by its mismatch total, and a z-estimation
//! strand's property lengths by its longest solid factor — on every corpus
//! far below `u32::MAX`. A [`NarrowTable`] stores such a table at the width
//! its maximum needs, as an owned vector or a zero-copy arena view. Code
//! that reads many entries runs generic over the [`Entry`] type, with the
//! width matched once per call by [`with_entries!`](crate::with_entries);
//! single entries read back as `u32` through [`NarrowTable::get`].
//!
//! A table that is filled in place before its maximum is known starts
//! [`NarrowTable::zeroed`] one byte wide and is widened once, by
//! [`NarrowTable::widen_to_hold`], when a value past its width is about
//! to be written.

use crate::{ArenaVec, Pod};
use std::ops::Range;

/// The entry types of a narrow table: `u8`, `u16` and `u32`.
pub trait Entry: Pod + Into<u32> {
    /// The entry as a length, depth or offset.
    #[inline]
    fn index(self) -> usize {
        let value: u32 = self.into();
        value as usize
    }

    /// `value` cut to this width. The caller has checked that it fits.
    fn truncate(value: u32) -> Self;
}

impl Entry for u8 {
    #[inline]
    fn truncate(value: u32) -> Self {
        value as u8
    }
}

impl Entry for u16 {
    #[inline]
    fn truncate(value: u32) -> Self {
        value as u16
    }
}

impl Entry for u32 {
    #[inline]
    fn truncate(value: u32) -> Self {
        value
    }
}

/// The narrowest entry width in bytes — 1, 2 or 4 — that holds `max`.
#[inline]
pub fn width_for(max: u32) -> usize {
    if max <= u32::from(u8::MAX) {
        1
    } else if max <= u32::from(u16::MAX) {
        2
    } else {
        4
    }
}

/// A table of `u32` values stored at 1, 2 or 4 bytes per entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NarrowTable {
    /// One byte per entry.
    U8(ArenaVec<u8>),
    /// Two bytes per entry.
    U16(ArenaVec<u16>),
    /// Four bytes per entry.
    U32(ArenaVec<u32>),
}

/// Evaluates `$body` with `$entries` bound to the table's entries as a
/// slice of its own width (`&[u8]`, `&[u16]` or `&[u32]`), so code generic
/// over [`Entry`](crate::narrow::Entry) is compiled once per width and
/// matches on the width once, not per entry.
#[macro_export]
macro_rules! with_entries {
    ($table:expr, $entries:ident => $body:expr) => {
        match $table {
            $crate::narrow::NarrowTable::U8(v) => {
                let $entries = v.as_slice();
                $body
            }
            $crate::narrow::NarrowTable::U16(v) => {
                let $entries = v.as_slice();
                $body
            }
            $crate::narrow::NarrowTable::U32(v) => {
                let $entries = v.as_slice();
                $body
            }
        }
    };
}

impl NarrowTable {
    /// The `len` values of `values` at `width` bytes per entry (1, 2 or 4),
    /// in a vector of exactly that capacity.
    ///
    /// # Panics
    ///
    /// If `width` is not 1, 2 or 4, or a value does not fit it.
    pub fn collect(width: usize, len: usize, values: impl Iterator<Item = u32>) -> Self {
        fn narrowed<T: TryFrom<u32>>(len: usize, values: impl Iterator<Item = u32>) -> Vec<T> {
            let mut out = Vec::with_capacity(len);
            out.extend(values.map(|v| T::try_from(v).ok().expect("value fits the table width")));
            out
        }
        match width {
            1 => Self::U8(narrowed(len, values).into()),
            2 => Self::U16(narrowed(len, values).into()),
            4 => Self::U32(narrowed(len, values).into()),
            other => panic!("table width {other} is not 1, 2 or 4"),
        }
    }

    /// An owned table of `len` zeros, one byte per entry.
    pub fn zeroed(len: usize) -> Self {
        Self::U8(vec![0u8; len].into())
    }

    /// Widens the table, once, to the narrowest width that holds `max`;
    /// a table already that wide is left as it is. The caller then writes
    /// values up to `max` through [`Entry::truncate`] without a check per
    /// entry.
    #[inline]
    pub fn widen_to_hold(&mut self, max: u32) {
        let width = width_for(max);
        if width > self.width() {
            self.widen(width);
        }
    }

    #[cold]
    fn widen(&mut self, width: usize) {
        let len = self.len();
        *self = Self::collect(width, len, self.iter(0..len));
    }

    /// Bytes per entry: 1, 2 or 4.
    #[inline]
    pub fn width(&self) -> usize {
        match self {
            Self::U8(_) => 1,
            Self::U16(_) => 2,
            Self::U32(_) => 4,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        with_entries!(self, entries => entries.len())
    }

    /// `true` iff the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            Self::U8(v) => u32::from(v[i]),
            Self::U16(v) => u32::from(v[i]),
            Self::U32(v) => v[i],
        }
    }

    /// The entries in `range`, widened to `u32`.
    pub fn iter(&self, range: Range<usize>) -> NarrowIter<'_> {
        match self {
            Self::U8(v) => NarrowIter::U8(v[range].iter()),
            Self::U16(v) => NarrowIter::U16(v[range].iter()),
            Self::U32(v) => NarrowIter::U32(v[range].iter()),
        }
    }

    /// Heap bytes owned by the table (0 for an arena view).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Self::U8(v) => v.heap_bytes(),
            Self::U16(v) => v.heap_bytes(),
            Self::U32(v) => v.heap_bytes(),
        }
    }
}

/// Entries of a [`NarrowTable`], widened to `u32`.
#[derive(Debug, Clone)]
pub enum NarrowIter<'a> {
    /// Over a one-byte table.
    U8(std::slice::Iter<'a, u8>),
    /// Over a two-byte table.
    U16(std::slice::Iter<'a, u16>),
    /// Over a four-byte table.
    U32(std::slice::Iter<'a, u32>),
}

impl Iterator for NarrowIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Self::U8(it) => it.next().map(|&v| v.into()),
            Self::U16(it) => it.next().map(|&v| v.into()),
            Self::U32(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Self::U8(it) => it.size_hint(),
            Self::U16(it) => it.size_hint(),
            Self::U32(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for NarrowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_is_the_narrowest_holding_the_maximum() {
        for (max, width) in [
            (0, 1),
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 4),
            (u32::MAX, 4),
        ] {
            assert_eq!(width_for(max), width, "max {max}");
            let table = NarrowTable::collect(width, 2, [0, max].into_iter());
            assert_eq!(table.width(), width);
            assert_eq!(table.heap_bytes(), 2 * width);
            assert_eq!(table.len(), 2);
            assert_eq!(table.iter(0..2).collect::<Vec<_>>(), [0, max]);
            assert_eq!(table.get(1), max);
        }
    }

    #[test]
    #[should_panic(expected = "fits the table width")]
    fn a_value_past_the_width_is_a_bug() {
        NarrowTable::collect(1, 1, [256].into_iter());
    }

    #[test]
    fn a_zeroed_table_widens_once_to_what_it_must_hold() {
        let mut table = NarrowTable::zeroed(3);
        assert_eq!((table.width(), table.heap_bytes()), (1, 3));
        table.widen_to_hold(255);
        assert_eq!(table.width(), 1);
        if let NarrowTable::U8(v) = &mut table {
            v.to_mut()[0] = 200;
        }
        // Past u16 straight to u32, keeping the entries written so far.
        table.widen_to_hold(65_536);
        assert_eq!((table.width(), table.heap_bytes()), (4, 12));
        assert_eq!(table.iter(0..3).collect::<Vec<_>>(), [200, 0, 0]);
        // Never narrows.
        table.widen_to_hold(0);
        assert_eq!(table.width(), 4);
        assert_eq!(u16::truncate(65_535), u16::MAX);
    }
}
