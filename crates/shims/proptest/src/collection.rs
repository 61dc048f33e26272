//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// An inclusive size range for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        Self {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Strategy for `Vec`s whose elements come from `element` and whose length is
/// drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let len = rng.gen_range(self.size.min..=self.size.max);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
