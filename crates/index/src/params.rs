//! Parameters shared by the minimizer-based indexes.

use ius_sampling::{recommended_k, KmerOrder};
use ius_weighted::{Error, Result};

/// Parameters of the ℓ-Weighted-Indexing problem instance and of the
/// minimizer scheme used to solve it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexParams {
    /// Weight-threshold denominator `z` (the threshold is `1/z`).
    pub z: f64,
    /// Lower bound ℓ on the length of supported patterns.
    pub ell: usize,
    /// k-mer length of the `(ℓ, k)`-minimizer scheme.
    pub k: usize,
    /// Order on k-mers used by the scheme (equal keys go to the leftmost).
    pub order: KmerOrder,
}

impl IndexParams {
    /// Creates parameters with the recommended `k ≈ ⌈log_σ ℓ⌉ + 1` (Lemma 1)
    /// and the Karp–Rabin k-mer order used by the paper's implementation.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidThreshold`] if `z < 1` or not finite;
    /// [`Error::InvalidParameters`] if `ell == 0`.
    pub fn new(z: f64, ell: usize, sigma: usize) -> Result<Self> {
        if !(z.is_finite() && z >= 1.0) {
            return Err(Error::InvalidThreshold(z));
        }
        if ell == 0 {
            return Err(Error::InvalidParameters("ℓ must be positive".into()));
        }
        Ok(Self {
            z,
            ell,
            k: recommended_k(ell, sigma),
            order: KmerOrder::default(),
        })
    }

    /// Overrides the k-mer length.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] unless `1 ≤ k ≤ ℓ`.
    pub fn with_k(mut self, k: usize) -> Result<Self> {
        if k == 0 || k > self.ell {
            return Err(Error::InvalidParameters(format!(
                "k = {k} must satisfy 1 ≤ k ≤ ℓ = {}",
                self.ell
            )));
        }
        self.k = k;
        Ok(self)
    }

    /// Overrides the k-mer order (e.g. to the lexicographic order for the
    /// ablation experiments).
    pub fn with_order(mut self, order: KmerOrder) -> Self {
        self.order = order;
        self
    }

    /// The maximum number of heavy-string mismatches any z-solid factor can
    /// have (`⌊log₂ z⌋`, Lemma 3).
    pub fn max_mismatches(&self) -> usize {
        ius_weighted::heavy::max_solid_mismatches(self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_parameters() {
        let p = IndexParams::new(128.0, 256, 4).unwrap();
        assert_eq!(p.k, 5);
        assert_eq!(p.max_mismatches(), 7);
        assert!(matches!(p.order, KmerOrder::KarpRabin { .. }));
    }

    #[test]
    fn validation() {
        assert!(IndexParams::new(0.5, 64, 4).is_err());
        assert!(IndexParams::new(f64::NAN, 64, 4).is_err());
        assert!(IndexParams::new(4.0, 0, 4).is_err());
        let p = IndexParams::new(4.0, 16, 4).unwrap();
        assert!(p.with_k(0).is_err());
        assert!(p.with_k(17).is_err());
        assert_eq!(p.with_k(3).unwrap().k, 3);
    }

    #[test]
    fn order_override() {
        let p = IndexParams::new(4.0, 16, 4)
            .unwrap()
            .with_order(KmerOrder::Lexicographic);
        assert_eq!(p.order, KmerOrder::Lexicographic);
    }
}
