//! A static bitvector with rank and select, in the word-plus-rank-count
//! layout of the wavelet matrix's levels.

use ius_arena::ArenaVec;

/// The flat representation of a [`RankSelect`] (its length is stored by
/// its owner), owned or, from [`RankSelect::parts`], borrowed
/// (`U64 = &[u64]`, `U32 = &[u32]`). With `W = ⌊len / 64⌋ + 1` words:
#[derive(Debug, Clone, PartialEq)]
pub struct BitParts<U64 = ArenaVec<u64>, U32 = ArenaVec<u32>> {
    /// The bits, bit `i` at bit `i % 64` of word `i / 64` (`W` words).
    pub bits: U64,
    /// Per word: the one-bits before it (`W` entries).
    pub ranks: U32,
}

/// A static bitvector of `len` bits answering `rank` in `O(1)` and
/// `select` in `O(log len)`, `O(1)` when the ones are spread evenly (a
/// galloping search over the per-word rank counts from an interpolated
/// guess, then one word). Space: 1.5 bits per bit, a 64-bit word and its
/// 32-bit rank count per 64 bits.
#[derive(Debug, Clone)]
pub struct RankSelect {
    len: usize,
    ones: usize,
    bits: ArenaVec<u64>,
    ranks: ArenaVec<u32>,
}

impl RankSelect {
    /// The bitvector of `len` bits whose one-bits are at `ones`, which must
    /// increase strictly and stay below `len`.
    ///
    /// # Panics
    ///
    /// If a position is out of order or out of range, or `len` exceeds
    /// `u32::MAX`.
    pub fn from_ones(len: usize, ones: impl IntoIterator<Item = usize>) -> Self {
        assert!(u32::try_from(len).is_ok(), "bitvector exceeds u32 ranks");
        let words = len / 64 + 1;
        let mut bits = vec![0u64; words];
        let mut last = None;
        for i in ones {
            assert!(
                i < len && last.is_none_or(|l| l < i),
                "one-bit positions must increase strictly below {len}"
            );
            bits[i / 64] |= 1 << (i % 64);
            last = Some(i);
        }
        let mut ranks = Vec::with_capacity(words);
        let mut ones = 0u32;
        for word in &bits {
            ranks.push(ones);
            ones += word.count_ones();
        }
        Self {
            len,
            ones: ones as usize,
            bits: bits.into(),
            ranks: ranks.into(),
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the bitvector has no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of one-bits.
    #[inline]
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// One-bits before position `i` (`i ≤ len`).
    #[inline]
    pub fn rank(&self, i: usize) -> usize {
        let w = i / 64;
        let below = self.bits[w] & ((1u64 << (i % 64)) - 1);
        self.ranks[w] as usize + below.count_ones() as usize
    }

    /// Position of the one-bit of rank `j` (the `j + 1`-th one), or `len`
    /// when `j ≥ ones()`: `select(j)` is where the `j`-th run marked by the
    /// one-bits starts, and `select(ones())` where the last one ends.
    #[inline]
    pub fn select(&self, j: usize) -> usize {
        if j >= self.ones {
            return self.len;
        }
        // The last word with at most `j` ones before it holds the bit
        // (`ranks[0] = 0 ≤ j`). Start at the word an even spread of the
        // ones would put it in, gallop to a bracket `lo..hi` with
        // `ranks[lo] ≤ j < ranks[hi]` (or `hi` past the end), then bisect:
        // `O(log d)` for a guess `d` words off, one step when it is exact.
        let (bits, ranks) = (&self.bits[..], &self.ranks[..]);
        let words = ranks.len();
        let guess = (j as u64 * self.len as u64 / (64 * self.ones as u64)) as usize;
        let guess = guess.min(words - 1);
        let (mut lo, mut hi) = (guess, guess + 1);
        let mut step = 1;
        while ranks[lo] as usize > j {
            hi = lo;
            lo = lo.saturating_sub(step);
            step *= 2;
        }
        while hi < words && ranks[hi] as usize <= j {
            lo = hi;
            hi = (hi + step).min(words);
            step *= 2;
        }
        let w = lo + ranks[lo..hi].partition_point(|&r| r as usize <= j) - 1;
        let mut word = bits[w];
        let mut k = j - ranks[w] as usize;
        let mut base = w * 64;
        loop {
            let ones = (word & 0xFF).count_ones() as usize;
            if k < ones {
                break;
            }
            k -= ones;
            word >>= 8;
            base += 8;
        }
        for _ in 0..k {
            word &= word - 1;
        }
        base + word.trailing_zeros() as usize
    }

    /// Heap bytes owned (zero for arena views).
    pub fn memory_bytes(&self) -> usize {
        self.bits.heap_bytes() + self.ranks.heap_bytes()
    }

    /// Exports the flat representation.
    pub fn to_parts(&self) -> BitParts {
        BitParts {
            bits: self.bits.clone(),
            ranks: self.ranks.clone(),
        }
    }

    /// The flat representation, borrowed: what a writer reads, no copy.
    pub fn parts(&self) -> BitParts<&[u64], &[u32]> {
        BitParts {
            bits: &self.bits,
            ranks: &self.ranks,
        }
    }

    /// Reassembles a bitvector of `len` bits from its flat representation,
    /// moving the arrays in as-is.
    ///
    /// # Errors
    ///
    /// If the arrays do not have `⌊len / 64⌋ + 1` entries, the rank counts
    /// are not the prefix popcounts of the words, or a bit is set at or
    /// past `len`.
    pub fn from_parts(len: usize, parts: BitParts) -> Result<Self, String> {
        if u32::try_from(len).is_err() {
            return Err(format!("{len} bits exceed u32 ranks"));
        }
        let words = len / 64 + 1;
        if parts.bits.len() != words || parts.ranks.len() != words {
            return Err(format!(
                "bitvector has {} words and {} rank counts, expected {words} for {len} bits",
                parts.bits.len(),
                parts.ranks.len()
            ));
        }
        // A whole-array fold: this runs on every arena open.
        let (mismatched, ones) = parts.ranks.iter().zip(parts.bits.iter()).fold(
            (0usize, 0u64),
            |(bad, ones), (&rank, &word)| {
                (
                    bad + usize::from(u64::from(rank) != ones),
                    ones + u64::from(word.count_ones()),
                )
            },
        );
        if mismatched != 0 {
            return Err("bitvector rank counts are not its prefix popcounts".into());
        }
        if parts.bits[words - 1] >> (len % 64) != 0 {
            return Err("bitvector has bits set past its length".into());
        }
        Ok(Self {
            len,
            ones: ones as usize,
            bits: parts.bits,
            ranks: parts.ranks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "increase strictly")]
    fn from_ones_refuses_a_position_past_the_end() {
        RankSelect::from_ones(64, [3, 64]);
    }

    #[test]
    fn from_parts_rejects_corrupted_input() {
        let good = RankSelect::from_ones(100, [0, 5, 70, 99]).to_parts();
        assert!(RankSelect::from_parts(100, good.clone()).is_ok());
        let mut short = good.clone();
        short.ranks = ArenaVec::from(vec![0]);
        let mut rank = good.clone();
        rank.ranks = ArenaVec::from(vec![0, 3]);
        let mut past = good.clone();
        past.bits = ArenaVec::from(vec![good.bits[0], good.bits[1] | 1 << 40]);
        for (what, bad, expected) in [
            ("short ranks", short, "expected 2"),
            ("rank count", rank, "prefix popcounts"),
            ("bit past the end", past, "past its length"),
        ] {
            let err = RankSelect::from_parts(100, bad).expect_err(what);
            assert!(err.contains(expected), "{what}: {err}");
        }
    }
}
