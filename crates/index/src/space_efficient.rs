//! Space-efficient construction of the minimizer index (SE-MWST and
//! SE-MWSA, Contribution 2 / Section 4 / Theorem 12 of the paper).
//!
//! The explicit construction of [`crate::MinimizerIndex`] first materialises
//! the z-estimation, which costs `Θ(nz)` working space even though the final
//! index only needs `O(n + (nz/ℓ)·log z)`. The construction implemented here
//! never builds the z-estimation: it simulates a DFS over the *extended solid
//! factor tree* of `X` — the trie of all solid factors extended by the heavy
//! string — keeping only the current root-to-leaf path. While walking, it
//! maintains
//!
//! * the running probability of the current solid factor,
//! * the list `Diff` of its deviations from the heavy string (at most
//!   `log₂ z`, Lemma 3),
//! * a window-minimum structure over the k-mers of the first `ℓ` letters of
//!   the current string (the paper uses a heap; we use an ordered set with
//!   the same `O(log ℓ)` update cost).
//!
//! Whenever the current length-ℓ prefix is solid, the position of its
//! minimizer is marked; when the DFS retreats past a marked position, the
//! string hanging from it becomes one leaf of the minimizer solid factor
//! tree, encoded as `(anchor, Diff)` — `O(log z)` words. The backward tree is
//! produced by the same DFS over the reverse of `X`, read in place: DFS
//! position `i` is position `at(i)` of `X` (`i` forward, `n − 1 − i`
//! backward), the one place the orientation appears. The minimizers are
//! still computed on the *forward* orientation of each window, so that both
//! trees anchor the same positions. Every order keys a k-mer on its own
//! ([`ius_sampling::order::KmerKeyer::key`]), so no order is refused.
//! Besides `X`, the heavy string and the emitted factors, a pass holds
//! `O(n)` words: the current letters, the marks, the DFS stack (16 B per
//! frame) and the window's stack of k-mers.
//!
//! The emitted factors are finally sorted by [`EncodedFactorSetBuilder`]
//! (packed keys of their first 16 letters, with `O(log z)`-time comparisons
//! against an LCE index over the heavy string only between longer factors
//! that agree on all 16) and assembled into the same
//! [`crate::MinimizerIndex`] produced by the explicit construction, the
//! prefix-dominated factors dropped the same way.
//!
//! There are no grid variants ([`SeVariant`] cannot name one): the grid
//! pairs the leaves that survive the forward and the backward factor of one
//! occurrence, which the explicit build pushes in step per (minimizer,
//! strand), while the two DFS passes here emit their factors independently.
//! Pairing them per anchor instead would take Σₐ fₐ·bₐ points (fₐ and bₐ
//! the forward and backward leaves of anchor a), 1.7× to 3.6× the explicit
//! grid's points on the rssi and pangenome presets at n = 100k.

use crate::builder::IndexFamily;
use crate::encode::{check_u32_positions, Direction, EncodedFactorSetBuilder};
use crate::minimizer_index::MinimizerIndex;
use crate::params::IndexParams;
use ius_sampling::order::KmerKeyer;
use ius_sampling::StackWindowMinimizer;
use ius_weighted::{is_solid, Error, HeavyString, Result, WeightedString};

/// The minimizer variants the space-efficient construction builds: the two
/// without a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeVariant {
    /// MWST — minimizer solid factor trees.
    Tree,
    /// MWSA — sorted factor arrays.
    Array,
}

/// Builder running the space-efficient (Section 4) construction.
#[derive(Debug, Clone)]
pub struct SpaceEfficientBuilder {
    params: IndexParams,
    /// Abort threshold on the number of visited extended-tree nodes, as a
    /// multiple of `n·z` (the paper aborts at `nz` and falls back to the
    /// classic construction; we default to a small constant multiple).
    node_cap_factor: f64,
}

impl SpaceEfficientBuilder {
    /// Creates the builder.
    pub fn new(params: IndexParams) -> Self {
        Self {
            params,
            node_cap_factor: 64.0,
        }
    }

    /// Overrides the node-cap factor (multiples of `n·z` after which the
    /// construction aborts with an error, mirroring the paper's fallback).
    #[cfg(test)]
    fn with_node_cap_factor(mut self, factor: f64) -> Self {
        self.node_cap_factor = factor.max(1.0);
        self
    }

    /// Runs the construction and returns the index; no k-mer order is
    /// refused.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameters`] when `|X|` exceeds `u32::MAX`
    ///   positions, when a factor set exceeds `u32::MAX` factors or
    ///   mismatches, or when the extended solid factor tree exceeds the
    ///   node cap;
    /// * parameter validation errors.
    pub fn build(&self, x: &WeightedString, variant: SeVariant) -> Result<MinimizerIndex> {
        // Positions, anchors, lengths and depths narrow to u32 below.
        check_u32_positions(x.len())?;
        if self.params.ell > x.len() {
            return Err(Error::InvalidParameters(format!(
                "ℓ = {} exceeds the string length {}",
                self.params.ell,
                x.len()
            )));
        }
        let node_cap = ((x.len() as f64) * self.params.z * self.node_cap_factor)
            .min(usize::MAX as f64) as usize;
        let heavy = HeavyString::new(x);
        // Each pass sorts its factors before the next one starts, so only one
        // pass's pending factors are ever held.
        let pass = |direction| {
            let (builder, anchors) = dfs_collect(x, &heavy, &self.params, direction, node_cap)?;
            Ok::<_, Error>(builder.finish(&anchors).0)
        };
        let fwd = pass(Direction::Forward)?;
        let bwd = pass(Direction::Backward)?;
        let family = IndexFamily::SpaceEfficient(variant);
        Ok(MinimizerIndex::assemble(
            x,
            self.params,
            family,
            heavy.into_parts().0,
            fwd,
            bwd,
            None,
        ))
    }
}

/// One frame of the iterative DFS over the extended solid factor tree. The
/// frame at stack depth `d` is the node whose string starts at DFS position
/// `n − d`; whether creating it pushed a `Diff` entry or a k-mer follows from
/// its letter and its position, and it lies on the pure-heavy spine (empty
/// solid factor, probability exactly 1) iff `Diff` is empty.
struct Frame {
    /// Next letter rank to try for the child one position to the left.
    next_letter: u8,
    /// Probability of the parent's solid factor, to restore on pop.
    prev_p: f64,
}

/// Runs one DFS pass over `x` and returns the builder holding the emitted
/// factors of `direction`, with the anchor of each in push order.
///
/// The forward pass walks `X` itself from its end; the backward pass walks
/// the reverse of `X` without materialising it: DFS position `i` is position
/// `at(i)` of `X` — `i` forward, `n − 1 − i` backward — and that map is the
/// only place the orientation appears. The window holds `X` positions, so
/// the minimizers of both passes are computed on the forward orientation of
/// each window and both trees anchor the same positions.
fn dfs_collect(
    x: &WeightedString,
    heavy: &HeavyString,
    params: &IndexParams,
    direction: Direction,
    node_cap: usize,
) -> Result<(EncodedFactorSetBuilder, Vec<u32>)> {
    let n = x.len();
    let sigma = x.sigma() as u8;
    let IndexParams { z, ell, k, order } = *params;
    let keyer = KmerKeyer::new(order, k, sigma as usize);
    let at = |i: usize| match direction {
        Direction::Forward => i,
        Direction::Backward => n - 1 - i,
    };

    let mut builder = EncodedFactorSetBuilder::new(direction, heavy.shared_ranks());
    let mut anchors: Vec<u32> = Vec::new();
    // Current letters of the DFS string (heavy by default, overridden along
    // the current path), the deviation stack and the running probability.
    let mut cur: Vec<u8> = (0..n).map(|i| heavy.letter(at(i))).collect();
    let mut diff: Vec<Mismatch0> = Vec::new();
    let mut cur_p = 1.0f64;
    let mut marked = vec![false; n];
    let mut window = StackWindowMinimizer::new(ell - k + 1);
    let mut kmer_buf = vec![0u8; k];
    let mut nodes = 0usize;

    let mut stack: Vec<Frame> = Vec::with_capacity(n + 1);
    stack.push(Frame {
        next_letter: 0,
        prev_p: 1.0,
    });

    loop {
        // Try to descend to the next viable child of the top frame, which
        // starts at DFS position n − depth.
        let depth = stack.len() - 1;
        if depth < n {
            let i = n - depth - 1;
            let spine = diff.is_empty();
            let heavy_letter = heavy.letter(at(i));
            let dist = x.distribution(at(i));
            let top = stack.last_mut().expect("non-empty");
            let mut child = None;
            for c in top.next_letter..sigma {
                let p_letter = dist[usize::from(c)];
                if p_letter <= 0.0 {
                    continue;
                }
                let child_p = if spine && c == heavy_letter {
                    1.0
                } else {
                    cur_p * p_letter
                };
                if is_solid(child_p, z) {
                    child = Some((c, p_letter, child_p));
                    break;
                }
            }
            if let Some((c, p_letter, child_p)) = child {
                // Viable child: record where to resume, apply the prepend.
                top.next_letter = c + 1;
                nodes += 1;
                if nodes > node_cap {
                    return Err(Error::InvalidParameters(format!(
                        "extended solid factor tree exceeded {node_cap} nodes; \
                         use the explicit construction for these parameters"
                    )));
                }
                if c != heavy_letter {
                    let ratio = p_letter / dist[usize::from(heavy_letter)];
                    diff.push(Mismatch0 {
                        pos: i as u32,
                        letter: c,
                        log_ratio: ratio.ln(),
                    });
                }
                cur[i] = c;
                // Push the newly completed k-mer, read in the forward
                // orientation of X, at its starting position in X.
                if i + k <= n {
                    let kmer = &cur[i..i + k];
                    let key = match direction {
                        Direction::Forward => keyer.key(kmer),
                        Direction::Backward => {
                            kmer_buf.copy_from_slice(kmer);
                            kmer_buf.reverse();
                            keyer.key(&kmer_buf)
                        }
                    };
                    window.push(at(i).min(at(i + k - 1)), key);
                }
                // If the length-ℓ prefix of the current string is solid, mark
                // its minimizer.
                if i + ell <= n {
                    let (a, b) = (at(i), at(i + ell - 1));
                    let mut log_p = heavy.range_log_probability(a.min(b), a.max(b) + 1);
                    for m in diff.iter().rev() {
                        if (m.pos as usize) < i + ell {
                            log_p += m.log_ratio;
                        } else {
                            break;
                        }
                    }
                    if is_solid(log_p.exp(), z) {
                        if let Some(sel) = window.argmin() {
                            // `sel` is a position of X; `at` is its own
                            // inverse, so this is its DFS position.
                            marked[at(sel)] = true;
                        }
                    }
                }
                stack.push(Frame {
                    next_letter: 0,
                    prev_p: cur_p,
                });
                cur_p = child_p;
                continue;
            }
        }
        // No more children: retreat from the top frame.
        let frame = stack.pop().expect("non-empty");
        if stack.is_empty() {
            break;
        }
        let q = n - stack.len();
        if marked[q] {
            marked[q] = false;
            // Emit the factor hanging from position q: it spans the rest of
            // the DFS string and deviates from the heavy string exactly at
            // the current Diff entries (all of which lie at positions ≥ q).
            // `diff` is a stack of strictly decreasing DFS positions, so
            // reverse iteration yields strictly increasing depths — already
            // sorted, no post-hoc sort needed. The log-ratios stay here:
            // only the solidity test above reads them.
            builder.push(
                (n - q) as u32,
                diff.iter().rev().map(|m| (m.pos - q as u32, m.letter)),
            )?;
            anchors.push(at(q) as u32);
        }
        // Undo the prepend that created this node.
        let heavy_letter = heavy.letter(at(q));
        if cur[q] != heavy_letter {
            diff.pop();
            cur[q] = heavy_letter;
        }
        if q + k <= n {
            window.pop();
        }
        cur_p = frame.prev_p;
    }
    anchors.shrink_to_fit(); // as `finish` shrinks the builder's pools
    Ok((builder, anchors))
}

/// A deviation entry on the DFS stack (absolute position within the DFS
/// string, unlike a pushed mismatch, whose depth is factor-relative), with
/// the log-ratio the ℓ-prefix solidity test sums.
#[derive(Debug, Clone, Copy)]
struct Mismatch0 {
    pos: u32,
    letter: u8,
    log_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer_index::IndexVariant;
    use crate::naive::NaiveIndex;
    use crate::traits::UncertainIndex;
    use ius_datasets::patterns::PatternSampler;
    use ius_datasets::uniform::UniformConfig;
    use ius_weighted::ZEstimation;

    #[test]
    fn rejects_oversized_ell() {
        let x = UniformConfig {
            n: 100,
            sigma: 2,
            spread: 0.5,
            seed: 1,
        }
        .generate();
        let params = IndexParams::new(4.0, 1000, 2).unwrap();
        assert!(SpaceEfficientBuilder::new(params)
            .build(&x, SeVariant::Tree)
            .is_err());
    }

    // The full differential coverage of the space-efficient construction
    // against the naive oracle (uniform + pangenome corpora, all entry
    // points) lives in the shared harness `tests/differential.rs`.

    #[test]
    fn se_query_agrees_with_the_explicit_construction() {
        let x = UniformConfig {
            n: 260,
            sigma: 2,
            spread: 0.5,
            seed: 77,
        }
        .generate();
        let z = 8.0;
        let ell = 8;
        let params = IndexParams::new(z, ell, 2).unwrap();
        let est = ZEstimation::build(&x, z).unwrap();
        let explicit =
            MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Array).unwrap();
        let se = SpaceEfficientBuilder::new(params)
            .build(&x, SeVariant::Array)
            .unwrap();
        assert_eq!(se.family(), IndexFamily::SpaceEfficient(SeVariant::Array));
        let mut sampler = PatternSampler::new(&est, 5);
        let mut patterns = sampler.sample_many(ell, 20);
        patterns.extend(sampler.sample_many(14, 10));
        for pattern in &patterns {
            assert_eq!(
                se.query(pattern, &x).unwrap(),
                explicit.query(pattern, &x).unwrap(),
                "SE vs explicit {pattern:?}"
            );
        }
    }

    #[test]
    fn builds_lexicographic_keys_past_the_fit_limit() {
        // σ = 4, k = 40: 4^40 > 2^63, so a key packs each k-mer's first 31
        // letters. SE-MWSA builds and answers like the explicit MWSA and
        // NAIVE. At spread 0.4 no length-ℓ factor is solid; at 0.05 many.
        use ius_sampling::KmerOrder;
        let params = IndexParams::new(4.0, 48, 4)
            .unwrap()
            .with_k(40)
            .unwrap()
            .with_order(KmerOrder::Lexicographic);
        let naive = NaiveIndex::new(4.0).unwrap();
        let mut reported = 0;
        for spread in [0.4, 0.05] {
            let x = UniformConfig {
                n: 400,
                sigma: 4,
                spread,
                seed: 9,
            }
            .generate();
            let se = SpaceEfficientBuilder::new(params)
                .build(&x, SeVariant::Array)
                .unwrap();
            let est = ZEstimation::build(&x, 4.0).unwrap();
            let explicit =
                MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Array)
                    .unwrap();
            let mut sampler = PatternSampler::new(&est, 2);
            let mut patterns = sampler.sample_many(48, 10);
            patterns.extend(sampler.sample_many(60, 10));
            patterns.extend(sampler.sample_random(48, 5, 4));
            for pattern in &patterns {
                let expected = naive.query(pattern, &x).unwrap();
                assert_eq!(explicit.query(pattern, &x).unwrap(), expected);
                assert_eq!(se.query(pattern, &x).unwrap(), expected);
                reported += expected.len();
            }
        }
        assert!(reported > 0, "the sampled patterns occur");
    }

    #[test]
    fn node_cap_aborts_gracefully() {
        let x = UniformConfig {
            n: 400,
            sigma: 2,
            spread: 0.9,
            seed: 3,
        }
        .generate();
        let params = IndexParams::new(16.0, 8, 2).unwrap();
        let builder = SpaceEfficientBuilder::new(params).with_node_cap_factor(1.0);
        // With a cap of n·z nodes the uniform high-entropy string may or may
        // not abort; either outcome must be clean (no panic), and an abort
        // must produce the documented error.
        match builder.build(&x, SeVariant::Array) {
            Ok(index) => assert!(index.size_bytes() > 0),
            Err(Error::InvalidParameters(msg)) => assert!(msg.contains("exceeded")),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}
