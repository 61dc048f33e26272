//! `(ℓ, k)`-minimizer schemes.

use crate::order::{KmerKeyer, KmerOrder};
use crate::window::SlidingWindowMinimizer;

/// An `(ℓ, k)`-minimizer scheme: a local scheme `f : Σ^ℓ → [0, ℓ-k]` that
/// selects, inside every length-`ℓ` window, the starting position of the
/// leftmost occurrence of the smallest length-`k` substring under the chosen
/// [`KmerOrder`].
#[derive(Debug, Clone)]
pub struct MinimizerScheme {
    ell: usize,
    k: usize,
    order: KmerOrder,
    keyer: KmerKeyer,
}

impl MinimizerScheme {
    /// Creates a scheme with window length `ell`, k-mer length `k` and the
    /// given order, for strings over an alphabet of size `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `ell < k`, or `sigma == 0`.
    pub fn new(ell: usize, k: usize, sigma: usize, order: KmerOrder) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(ell >= k, "window length ℓ = {ell} must be at least k = {k}");
        let keyer = KmerKeyer::new(order, k, sigma);
        Self {
            ell,
            k,
            order,
            keyer,
        }
    }

    /// Creates a scheme with the recommended `k ≈ ⌈log_σ ℓ⌉ + 1` (Lemma 1)
    /// and the default (Karp–Rabin) order.
    pub fn with_recommended_k(ell: usize, sigma: usize) -> Self {
        let k = crate::density::recommended_k(ell, sigma);
        Self::new(ell, k, sigma, KmerOrder::default())
    }

    /// Window length ℓ.
    #[inline]
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// k-mer length.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The k-mer order in use.
    #[inline]
    pub fn order(&self) -> KmerOrder {
        self.order
    }

    /// Number of k-mer starting positions inside one window.
    #[inline]
    pub fn window_width(&self) -> usize {
        self.ell - self.k + 1
    }

    /// The underlying keyer, for callers that need raw k-mer keys (the
    /// space-efficient construction drives a
    /// [`crate::window::StackWindowMinimizer`] with it).
    #[inline]
    pub fn keyer(&self) -> &KmerKeyer {
        &self.keyer
    }

    /// `f(window)`: the offset (0-based, in `[0, ℓ-k]`) of the leftmost
    /// smallest k-mer inside one length-ℓ window.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() != ℓ`.
    pub fn window_minimizer(&self, window: &[u8]) -> usize {
        let mut keys = Vec::new();
        self.window_minimizer_with(window, &mut keys)
    }

    /// Like [`MinimizerScheme::window_minimizer`] but reusing a key buffer,
    /// so steady-state callers (one call per query in the minimizer indexes)
    /// allocate nothing once the buffer has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() != ℓ`.
    pub fn window_minimizer_with(&self, window: &[u8], key_buf: &mut Vec<u64>) -> usize {
        assert_eq!(
            window.len(),
            self.ell,
            "window must have length ℓ = {}",
            self.ell
        );
        self.keyer.keys_into(window, key_buf);
        let keys = key_buf.as_slice();
        let mut best = 0usize;
        for (i, &key) in keys.iter().enumerate().skip(1) {
            if key < keys[best] {
                best = i;
            }
        }
        best
    }

    /// The minimizer positions `M_f(text)` of a whole string: the union over
    /// all windows of the selected position, sorted and deduplicated.
    ///
    /// Returns an empty vector when `|text| < ℓ`.
    pub fn minimizers(&self, text: &[u8]) -> Vec<usize> {
        self.scan_ranges(text, &[(0, text.len())])
    }

    /// Property-respecting minimizers of a strand: windows `[i, i+ℓ)` are
    /// considered only when `ℓ ≤ lengths[i]`, the length of the longest
    /// property interval starting at `i` (i.e. `i + ℓ - 1 ≤ π[i]`, the
    /// condition of the paper), and the minimizer of each admissible window
    /// is selected. Generic over the lengths' integer width, so a strand
    /// stored at one byte per length is read as it is; only the run
    /// collection is generic, and the scan is compiled once, in this crate.
    pub fn minimizers_respecting<L: Copy + Into<u32>>(
        &self,
        seq: &[u8],
        lengths: &[L],
    ) -> Vec<usize> {
        assert_eq!(seq.len(), lengths.len(), "sequence/length table mismatch");
        let n = seq.len();
        let admissible = |i: usize| {
            let len: u32 = lengths[i].into();
            len as usize >= self.ell
        };
        // Each maximal run `i..=last` of admissible window starts becomes
        // the range `[i, last + ℓ)`: every window inside it starts in the
        // run, and every window of the run fits inside it.
        let mut i = 0;
        let runs: Vec<(usize, usize)> = std::iter::from_fn(|| {
            while i < n && !admissible(i) {
                i += 1;
            }
            if i == n {
                return None;
            }
            let start = i;
            while i + 1 < n && admissible(i + 1) {
                i += 1;
            }
            let end = (i + self.ell).min(n);
            i += 1;
            Some((start, end))
        })
        .collect();
        self.scan_ranges(seq, &runs)
    }

    /// The one deque scan: the minimizers of every window that fits inside
    /// one of the half-open `ranges` of `text`, sorted and deduplicated.
    fn scan_ranges(&self, text: &[u8], ranges: &[(usize, usize)]) -> Vec<usize> {
        let mut out = Vec::new();
        let width = self.window_width();
        let mut sw = SlidingWindowMinimizer::with_capacity(width);
        for &(start, end) in ranges {
            if end - start < self.ell {
                continue;
            }
            // Rolling keys for exactly this range.
            let keys = self.keyer.keys(&text[start..end]);
            sw.clear();
            // k-mer starting positions to consider: start ..= end - k.
            for pos in start..=end - self.k {
                sw.push(pos, keys[pos - start]);
                // Window of k-mers [w, w + width) where w = pos + 1 - width.
                if pos + 1 >= start + width {
                    sw.retire(pos + 1 - width);
                    if let Some(m) = sw.argmin() {
                        if out.last() != Some(&m) {
                            out.push(m);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Brute-force minimizers: every window is rescanned independently with
    /// [`MinimizerScheme::window_minimizer`], costing `O(n·(ℓ−k))` letter
    /// work. The test oracle of the deque scan.
    pub fn minimizers_bruteforce(&self, text: &[u8]) -> Vec<usize> {
        let mut out = Vec::new();
        if text.len() < self.ell {
            return out;
        }
        for start in 0..=text.len() - self.ell {
            let m = self.window_minimizer(&text[start..start + self.ell]);
            out.push(start + m);
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example2_lexicographic_minimizer() {
        // Example 2 of the paper: S = ABAABB, ℓ = 4, k = 2 → M_f(S) = {3}
        // (1-based) = {2} (0-based), because AA at position 3 is the smallest
        // 2-mer in every length-4 window.
        let s: Vec<u8> = vec![0, 1, 0, 0, 1, 1]; // ABAABB
        let scheme = MinimizerScheme::new(4, 2, 2, KmerOrder::Lexicographic);
        assert_eq!(scheme.minimizers(&s), vec![2]);
        assert_eq!(scheme.minimizers_bruteforce(&s), vec![2]);
        // The leftmost window's minimizer offset is 2 as well.
        assert_eq!(scheme.window_minimizer(&s[0..4]), 2);
    }

    #[test]
    fn linear_scan_matches_bruteforce() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for sigma in [2usize, 4, 8] {
            let text: Vec<u8> = (0..200).map(|_| rng.gen_range(0..sigma as u8)).collect();
            for order in [KmerOrder::Lexicographic, KmerOrder::KarpRabin { seed: 5 }] {
                for (ell, k) in [(4, 2), (8, 3), (16, 4), (31, 5)] {
                    let scheme = MinimizerScheme::new(ell, k, sigma, order);
                    assert_eq!(
                        scheme.minimizers(&text),
                        scheme.minimizers_bruteforce(&text),
                        "sigma={sigma} order={order:?} ell={ell} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn short_text_has_no_minimizers() {
        let scheme = MinimizerScheme::new(8, 3, 4, KmerOrder::Lexicographic);
        assert!(scheme.minimizers(&[0, 1, 2, 3]).is_empty());
    }

    #[test]
    fn minimizers_respecting_unrestricted_equals_plain() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let text: Vec<u8> = (0..120).map(|_| rng.gen_range(0..4u8)).collect();
        let lengths: Vec<u32> = (1..=text.len() as u32).rev().collect();
        let scheme = MinimizerScheme::new(12, 3, 4, KmerOrder::default());
        assert_eq!(
            scheme.minimizers_respecting(&text, &lengths),
            scheme.minimizers(&text)
        );
    }

    #[test]
    fn minimizers_respecting_restricts_windows() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let n = 100usize;
        let text: Vec<u8> = (0..n).map(|_| rng.gen_range(0..4u8)).collect();
        // Property: only the prefix [0, 50) is covered.
        let lengths: Vec<u8> = (0..n)
            .map(|i| if i < 50 { 50 - i as u8 } else { 0 })
            .collect();
        let scheme = MinimizerScheme::new(10, 3, 4, KmerOrder::Lexicographic);
        let restricted = scheme.minimizers_respecting(&text, &lengths);
        let expected = scheme.minimizers(&text[..50]);
        assert_eq!(restricted, expected);
        // And everything selected lies inside the covered prefix.
        assert!(restricted.iter().all(|&m| m < 50));
    }

    #[test]
    fn minimizers_respecting_brute_force_agreement() {
        // Compare against a direct per-window brute force on a property with
        // a staircase of extents.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let n = 80usize;
        let text: Vec<u8> = (0..n).map(|_| rng.gen_range(0..3u8)).collect();
        let mut extent: Vec<u32> = Vec::with_capacity(n);
        let mut e = 0u32;
        for i in 0..n {
            e = e.max(i as u32).max(rng.gen_range(i as u32..=(n as u32)));
            extent.push(e.min(n as u32));
        }
        let lengths: Vec<u16> = extent
            .iter()
            .zip(0..)
            .map(|(&e, i)| (e - i) as u16)
            .collect();
        let scheme = MinimizerScheme::new(7, 2, 3, KmerOrder::KarpRabin { seed: 1 });
        let got = scheme.minimizers_respecting(&text, &lengths);
        let mut expected = Vec::new();
        for i in 0..n {
            if (extent[i] as usize) >= i + scheme.ell() {
                let m = scheme.window_minimizer(&text[i..i + scheme.ell()]);
                expected.push(i + m);
            }
        }
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(got, expected);
    }

    #[test]
    fn recommended_scheme_has_low_density_on_random_text() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let text: Vec<u8> = (0..20_000).map(|_| rng.gen_range(0..4u8)).collect();
        let ell = 128usize;
        let scheme = MinimizerScheme::with_recommended_k(ell, 4);
        let mins = scheme.minimizers(&text);
        let density = mins.len() as f64 / text.len() as f64;
        // Lemma 1: density O(1/ℓ); the known expectation for random minimizers
        // is ≈ 2/(ℓ-k+2). Allow generous slack.
        assert!(density < 4.0 / ell as f64, "density {density} too high");
        assert!(
            density > 0.5 / ell as f64,
            "density {density} suspiciously low"
        );
    }
}
