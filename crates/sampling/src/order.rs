//! Orders on k-mers.
//!
//! A minimizer scheme needs an order on length-`k` substrings. The order is
//! realised by mapping every k-mer to a `u64` *key*; k-mers are compared by
//! key, and ties between equal keys are broken towards the leftmost occurrence
//! (as the paper's definition requires). Any fixed order with that
//! tie-breaking gives a correct scheme; the order only moves its density.

use crate::fingerprint::KarpRabin;

/// The supported k-mer orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KmerOrder {
    /// Lexicographic order on the letter ranks of each k-mer's first `p`
    /// letters, `p` the largest value `≤ k` with `p·log₂σ ≤ 63` (all `k`
    /// letters whenever they fit in a `u64` key). K-mers that agree on those
    /// letters tie, and the leftmost wins.
    Lexicographic,
    /// Order induced by Karp–Rabin style fingerprints with the given seed —
    /// a pseudo-random order, as used in the paper's implementation.
    KarpRabin {
        /// Seed of the fingerprint multiplier / mixer.
        seed: u64,
    },
}

impl Default for KmerOrder {
    fn default() -> Self {
        KmerOrder::KarpRabin { seed: 0x5EED_1005 }
    }
}

/// A keyer turning k-mers (and rolling windows of a text) into order keys.
///
/// Every key is total: k-mers compare by key alone, equal keys tie and the
/// leftmost occurrence wins. A lexicographic key packs the k-mer's first
/// `p` letters in base `σ` (see [`KmerOrder::Lexicographic`]), so it is
/// computed from the k-mer in isolation, as the space-efficient DFS needs.
#[derive(Debug, Clone)]
pub struct KmerKeyer {
    k: usize,
    kind: KeyerKind,
}

#[derive(Debug, Clone)]
enum KeyerKind {
    /// Lexicographic keys: the first `letters` letters of the k-mer packed
    /// into a `u64` in base `radix`; `lead = radix^(letters − 1)`.
    Lex {
        radix: u64,
        letters: usize,
        lead: u64,
    },
    /// Fingerprint keys.
    Hash(KarpRabin),
}

impl KmerKeyer {
    /// Creates a keyer for k-mers of length `k` over an alphabet of size
    /// `sigma`, under the given order.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `sigma == 0`.
    pub fn new(order: KmerOrder, k: usize, sigma: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(sigma > 0, "alphabet must be non-empty");
        let kind = match order {
            KmerOrder::Lexicographic => {
                let radix = sigma as u64;
                // The most letters whose packed value radix^p fits in 63
                // bits; at least one, since radix ≤ 256.
                let fits = |p: usize| (p as f64) * (radix as f64).log2() <= 63.0;
                let letters = (1..=k).rev().find(|&p| fits(p)).unwrap_or(1);
                let lead = radix.pow(letters as u32 - 1);
                KeyerKind::Lex {
                    radix,
                    letters,
                    lead,
                }
            }
            KmerOrder::KarpRabin { seed } => KeyerKind::Hash(KarpRabin::new(k, seed)),
        };
        Self { k, kind }
    }

    /// The k-mer length.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The key of one k-mer (`kmer.len()` must equal `k`).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from `k`.
    pub fn key(&self, kmer: &[u8]) -> u64 {
        assert_eq!(kmer.len(), self.k, "k-mer length mismatch");
        match &self.kind {
            KeyerKind::Lex { radix, letters, .. } => kmer[..*letters]
                .iter()
                .fold(0, |v, &c| v * radix + c as u64),
            KeyerKind::Hash(kr) => kr.fingerprint(kmer),
        }
    }

    /// Keys for all k-mers of `text` (length `|text| - k + 1`), computed with
    /// rolling updates in `O(|text|)` time.
    ///
    /// Returns an empty vector when `|text| < k`.
    pub fn keys(&self, text: &[u8]) -> Vec<u64> {
        let mut keys = Vec::new();
        self.keys_into(text, &mut keys);
        keys
    }

    /// Like [`KmerKeyer::keys`] but writing into a reused buffer (cleared
    /// first), so steady-state callers allocate nothing once the buffer has
    /// warmed up.
    pub fn keys_into(&self, text: &[u8], keys: &mut Vec<u64>) {
        keys.clear();
        if text.len() < self.k {
            return;
        }
        let count = text.len() - self.k + 1;
        keys.reserve(count);
        match self.kind {
            KeyerKind::Lex {
                radix,
                letters,
                lead,
            } => {
                let mut v = self.key(&text[..self.k]);
                keys.push(v);
                for i in 1..count {
                    v = (v - text[i - 1] as u64 * lead) * radix + text[i + letters - 1] as u64;
                    keys.push(v);
                }
            }
            KeyerKind::Hash(ref kr) => {
                let mut raw = kr.raw(&text[..self.k]);
                keys.push(kr.finalize(raw));
                for i in 1..count {
                    raw = kr.roll(raw, text[i - 1], text[i + self.k - 1]);
                    keys.push(kr.finalize(raw));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_keys_order_like_slices() {
        let keyer = KmerKeyer::new(KmerOrder::Lexicographic, 3, 4);
        let kmers: Vec<Vec<u8>> = vec![
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![0, 1, 0],
            vec![3, 3, 3],
            vec![1, 2, 3],
            vec![1, 2, 0],
        ];
        for a in &kmers {
            for b in &kmers {
                assert_eq!(keyer.key(a).cmp(&keyer.key(b)), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn rolling_keys_match_pointwise_keys() {
        let text: Vec<u8> = vec![2, 0, 1, 0, 2, 3, 1, 1, 0, 2, 3, 0, 1];
        for order in [KmerOrder::Lexicographic, KmerOrder::KarpRabin { seed: 99 }] {
            for k in 1..=5 {
                let keyer = KmerKeyer::new(order, k, 4);
                let rolled = keyer.keys(&text);
                assert_eq!(rolled.len(), text.len() - k + 1);
                for (i, &key) in rolled.iter().enumerate() {
                    assert_eq!(
                        key,
                        keyer.key(&text[i..i + k]),
                        "order {order:?} k {k} i {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn keys_of_short_text_is_empty() {
        let keyer = KmerKeyer::new(KmerOrder::default(), 4, 4);
        assert!(keyer.keys(&[0, 1, 2]).is_empty());
    }

    #[test]
    fn lex_keys_past_the_fit_limit_pack_the_first_letters() {
        // 91^12 > 2^63: a key packs the first 9 letters (9·log₂91 ≈ 58.6,
        // 10·log₂91 ≈ 65.1), and rolling keys agree with isolated ones.
        let keyer = KmerKeyer::new(KmerOrder::Lexicographic, 12, 91);
        let short = KmerKeyer::new(KmerOrder::Lexicographic, 9, 91);
        let text: Vec<u8> = (0..40u32).map(|i| ((i * 37) % 91) as u8).collect();
        let keys = keyer.keys(&text);
        assert_eq!(keys.len(), text.len() - 11);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(key, short.key(&text[i..i + 9]), "i {i}");
            assert_eq!(key, keyer.key(&text[i..i + 12]), "i {i}");
        }
        // K-mers that agree on the packed letters tie.
        let mut a: Vec<u8> = (0..12).collect();
        let b = a.clone();
        a[11] = 90;
        assert_eq!(keyer.key(&a), keyer.key(&b));
        // σ = 1 packs every letter: all keys are 0.
        let unary = KmerKeyer::new(KmerOrder::Lexicographic, 100, 1);
        assert_eq!(unary.keys(&[0; 120]), vec![0; 21]);
    }

    #[test]
    fn default_order_is_karp_rabin() {
        assert!(matches!(KmerOrder::default(), KmerOrder::KarpRabin { .. }));
    }
}
