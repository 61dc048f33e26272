//! Alphabets: compact mappings between user-facing symbols and dense ranks.
//!
//! All algorithms in the workspace operate on dense letter *ranks*
//! `0..σ` (`u8`); the [`Alphabet`] remembers which user byte each rank stands
//! for so that inputs and outputs can be translated back and forth.

use crate::error::{Error, Result};

/// Maximum supported alphabet size.
///
/// Ranks are stored in a `u8`, and the paper's datasets use `σ ≤ 91`
/// (RSSI), so 255 distinct symbols is more than enough.
pub const MAX_ALPHABET_SIZE: usize = 255;

/// A fixed, ordered alphabet of byte symbols.
///
/// The order in which symbols are supplied defines the rank order used by all
/// lexicographic comparisons (suffix arrays, minimizer orders, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    symbols: Vec<u8>,
    /// `rank_of[b]` is `Some(rank)` if byte `b` is in the alphabet.
    rank_of: Vec<Option<u8>>,
}

impl Alphabet {
    /// Creates an alphabet from an ordered list of distinct byte symbols.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAlphabet`] if the list is empty, longer than
    /// [`MAX_ALPHABET_SIZE`], or contains duplicates.
    pub fn new(symbols: &[u8]) -> Result<Self> {
        if symbols.is_empty() {
            return Err(Error::InvalidAlphabet("alphabet is empty".into()));
        }
        if symbols.len() > MAX_ALPHABET_SIZE {
            return Err(Error::InvalidAlphabet(format!(
                "alphabet has {} symbols, maximum is {MAX_ALPHABET_SIZE}",
                symbols.len()
            )));
        }
        let mut rank_of = vec![None; 256];
        for (rank, &sym) in symbols.iter().enumerate() {
            if rank_of[sym as usize].is_some() {
                return Err(Error::InvalidAlphabet(format!(
                    "duplicate symbol {:?} in alphabet",
                    sym as char
                )));
            }
            rank_of[sym as usize] = Some(rank as u8);
        }
        Ok(Self {
            symbols: symbols.to_vec(),
            rank_of,
        })
    }

    /// The standard DNA alphabet `{A, C, G, T}` (σ = 4).
    pub fn dna() -> Self {
        Self::new(b"ACGT").expect("DNA alphabet is valid")
    }

    /// An integer alphabet `{0, 1, …, sigma-1}` stored as raw byte values.
    ///
    /// This is the natural choice for discretised sensor measurements such as
    /// the RSSI dataset of the paper (σ = 91).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAlphabet`] if `sigma` is zero or exceeds
    /// [`MAX_ALPHABET_SIZE`].
    pub fn integer(sigma: usize) -> Result<Self> {
        if sigma == 0 || sigma > MAX_ALPHABET_SIZE {
            return Err(Error::InvalidAlphabet(format!(
                "integer alphabet size {sigma} out of range 1..={MAX_ALPHABET_SIZE}"
            )));
        }
        let symbols: Vec<u8> = (0..sigma as u8).collect();
        Self::new(&symbols)
    }

    /// Number of symbols σ.
    #[inline]
    pub fn size(&self) -> usize {
        self.symbols.len()
    }

    /// The rank (dense id in `0..σ`) of byte `symbol`, if present.
    #[inline]
    pub fn rank(&self, symbol: u8) -> Option<u8> {
        self.rank_of[symbol as usize]
    }

    /// The rank of `symbol`, or an [`Error::UnknownSymbol`] otherwise.
    #[inline]
    pub fn rank_checked(&self, symbol: u8) -> Result<u8> {
        self.rank(symbol).ok_or(Error::UnknownSymbol(symbol))
    }

    /// The user byte corresponding to rank `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= σ`.
    #[inline]
    pub fn symbol(&self, rank: u8) -> u8 {
        self.symbols[rank as usize]
    }

    /// All symbols in rank order.
    #[inline]
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// Encodes a byte string into ranks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownSymbol`] on the first byte not in the alphabet.
    pub fn encode(&self, text: &[u8]) -> Result<Vec<u8>> {
        text.iter().map(|&b| self.rank_checked(b)).collect()
    }

    /// Decodes a rank string back into user bytes.
    ///
    /// # Panics
    ///
    /// Panics if any rank is `>= σ`.
    pub fn decode(&self, ranks: &[u8]) -> Vec<u8> {
        ranks.iter().map(|&r| self.symbol(r)).collect()
    }

    /// Returns `true` if every byte of `text` belongs to the alphabet.
    pub fn accepts(&self, text: &[u8]) -> bool {
        text.iter().all(|&b| self.rank(b).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dna_alphabet_roundtrip() {
        let a = Alphabet::dna();
        assert_eq!(a.size(), 4);
        assert_eq!(a.rank(b'A'), Some(0));
        assert_eq!(a.rank(b'C'), Some(1));
        assert_eq!(a.rank(b'G'), Some(2));
        assert_eq!(a.rank(b'T'), Some(3));
        assert_eq!(a.rank(b'N'), None);
        let encoded = a.encode(b"GATTACA").unwrap();
        assert_eq!(encoded, vec![2, 0, 3, 3, 0, 1, 0]);
        assert_eq!(a.decode(&encoded), b"GATTACA");
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        assert!(matches!(Alphabet::new(b""), Err(Error::InvalidAlphabet(_))));
        assert!(matches!(
            Alphabet::new(b"AA"),
            Err(Error::InvalidAlphabet(_))
        ));
        assert!(Alphabet::new(b"AB").is_ok());
    }

    #[test]
    fn integer_alphabet() {
        let a = Alphabet::integer(91).unwrap();
        assert_eq!(a.size(), 91);
        assert_eq!(a.rank(90), Some(90));
        assert_eq!(a.rank(91), None);
        assert!(Alphabet::integer(0).is_err());
        assert!(Alphabet::integer(256).is_err());
        assert!(Alphabet::integer(255).is_ok());
    }

    #[test]
    fn encode_unknown_symbol_errors() {
        let a = Alphabet::dna();
        assert_eq!(a.encode(b"ACGN"), Err(Error::UnknownSymbol(b'N')));
        assert!(!a.accepts(b"ACGN"));
        assert!(a.accepts(b"ACGT"));
    }

    #[test]
    fn rank_order_follows_declaration_order() {
        let a = Alphabet::new(b"TGCA").unwrap();
        assert_eq!(a.rank(b'T'), Some(0));
        assert_eq!(a.rank(b'A'), Some(3));
        assert_eq!(a.symbol(0), b'T');
    }
}
