//! Tables of small unsigned integers stored at the narrowest of `u8`,
//! `u16` and `u32` that holds their maximum.
//!
//! A factor set's lengths and mismatch depths are bounded by its longest
//! factor, and its mismatch offsets by its mismatch total — on every
//! corpus far below `u32::MAX`. A [`NarrowTable`] stores such a table at
//! the width its maximum needs, as an owned vector or a zero-copy arena
//! view. Code that reads many entries runs generic over the [`Entry`]
//! type, with the width matched once per call by [`with_entries`]; single
//! entries read back as `u32` through [`NarrowTable::get`].

use ius_arena::ArenaVec;
use std::ops::Range;

/// The entry types of a narrow table: `u8`, `u16` and `u32`.
pub(crate) trait Entry: Copy + Into<u32> {
    /// The entry as a length, depth or offset.
    #[inline]
    fn index(self) -> usize {
        let value: u32 = self.into();
        value as usize
    }
}

impl Entry for u8 {}
impl Entry for u16 {}
impl Entry for u32 {}

/// The narrowest entry width in bytes — 1, 2 or 4 — that holds `max`.
pub(crate) fn width_for(max: u32) -> usize {
    if max <= u32::from(u8::MAX) {
        1
    } else if max <= u32::from(u16::MAX) {
        2
    } else {
        4
    }
}

/// A table of `u32` values stored at 1, 2 or 4 bytes per entry.
#[derive(Debug, Clone)]
pub(crate) enum NarrowTable {
    U8(ArenaVec<u8>),
    U16(ArenaVec<u16>),
    U32(ArenaVec<u32>),
}

/// A table stored 4 bytes wide, whatever its values.
#[cfg(test)]
impl From<Vec<u32>> for NarrowTable {
    fn from(values: Vec<u32>) -> Self {
        Self::U32(values.into())
    }
}

/// Evaluates `$body` with `$entries` bound to the table's entries as a
/// slice of its own width (`&[u8]`, `&[u16]` or `&[u32]`), so code generic
/// over [`Entry`] is compiled once per width and matches on the width once,
/// not per entry.
macro_rules! with_entries {
    ($table:expr, $entries:ident => $body:expr) => {
        match $table {
            NarrowTable::U8(v) => {
                let $entries = v.as_slice();
                $body
            }
            NarrowTable::U16(v) => {
                let $entries = v.as_slice();
                $body
            }
            NarrowTable::U32(v) => {
                let $entries = v.as_slice();
                $body
            }
        }
    };
}
pub(crate) use with_entries;

impl NarrowTable {
    /// The `len` values of `values` at `width` bytes per entry (1, 2 or 4),
    /// in a vector of exactly that capacity.
    ///
    /// # Panics
    ///
    /// If `width` is not 1, 2 or 4, or a value does not fit it.
    pub(crate) fn collect(width: usize, len: usize, values: impl Iterator<Item = u32>) -> Self {
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

    /// Bytes per entry: 1, 2 or 4.
    pub(crate) fn width(&self) -> usize {
        match self {
            Self::U8(_) => 1,
            Self::U16(_) => 2,
            Self::U32(_) => 4,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        with_entries!(self, entries => entries.len())
    }

    /// The entry at `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u32 {
        match self {
            Self::U8(v) => u32::from(v[i]),
            Self::U16(v) => u32::from(v[i]),
            Self::U32(v) => v[i],
        }
    }

    /// The entries in `range`, widened to `u32`.
    pub(crate) fn iter(&self, range: Range<usize>) -> NarrowIter<'_> {
        match self {
            Self::U8(v) => NarrowIter::U8(v[range].iter()),
            Self::U16(v) => NarrowIter::U16(v[range].iter()),
            Self::U32(v) => NarrowIter::U32(v[range].iter()),
        }
    }

    /// Heap bytes owned by the table (0 for an arena view).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Self::U8(v) => v.heap_bytes(),
            Self::U16(v) => v.heap_bytes(),
            Self::U32(v) => v.heap_bytes(),
        }
    }
}

/// Entries of a [`NarrowTable`], widened to `u32`.
#[derive(Debug, Clone)]
pub(crate) enum NarrowIter<'a> {
    U8(std::slice::Iter<'a, u8>),
    U16(std::slice::Iter<'a, u16>),
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
}
