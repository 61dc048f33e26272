//! Space-efficient construction of the minimizer index (MWST-SE,
//! Contribution 2 / Section 4 / Theorem 12 of the paper).
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
//! produced by running the very same procedure on the reversed string, with
//! the minimizers still computed on the *forward* orientation of each window
//! so that both trees anchor the same positions.
//!
//! The emitted factors are finally sorted by [`EncodedFactorSetBuilder`]
//! (packed keys of their first 16 letters, with `O(log z)`-time comparisons
//! against an LCE index over the heavy string only between longer factors
//! that agree on all 16) and assembled into the same
//! [`crate::MinimizerIndex`] produced by the explicit construction, the
//! prefix-dominated factors dropped the same way (grid variants excepted:
//! the grid pairs the leaves that survive the forward and the backward
//! factor of one occurrence, which the explicit build pushes in step per
//! (minimizer, strand), while the two DFS passes here emit their factors
//! independently, in different orders).

use crate::encode::{check_u32_positions, Direction, EncodedFactorSetBuilder};
use crate::minimizer_index::{IndexVariant, MinimizerIndex};
use crate::params::IndexParams;
use ius_sampling::order::KmerKeyer;
use ius_sampling::{BackWindowMinimizer, FrontWindowMinimizer};
use ius_weighted::{is_solid, Error, HeavyString, Result, WeightedString};

/// Builder running the space-efficient (Section 4) construction.
#[derive(Debug, Clone)]
pub struct SpaceEfficientBuilder {
    params: IndexParams,
    /// Abort threshold on the number of visited extended-tree nodes, as a
    /// multiple of `n·z` (the paper aborts at `nz` and falls back to the
    /// classic construction; we default to a small constant multiple).
    node_cap_factor: f64,
}

/// Statistics reported by the space-efficient construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeBuildStats {
    /// Nodes of the extended solid factor tree visited by the forward pass.
    pub forward_nodes: usize,
    /// Nodes visited by the backward pass.
    pub backward_nodes: usize,
    /// Factors emitted into the forward tree.
    pub forward_factors: usize,
    /// Factors emitted into the backward tree.
    pub backward_factors: usize,
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
    pub fn with_node_cap_factor(mut self, factor: f64) -> Self {
        self.node_cap_factor = factor.max(1.0);
        self
    }

    /// Runs the construction and returns the index.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameters`] for grid variants (they pair the
    ///   factors the explicit construction pushes in step), when `|X|`
    ///   exceeds `u32::MAX` positions, when a factor set exceeds `u32::MAX`
    ///   factors or mismatches, or when the extended solid factor tree
    ///   exceeds the node cap;
    /// * parameter validation errors.
    pub fn build(&self, x: &WeightedString, variant: IndexVariant) -> Result<MinimizerIndex> {
        self.build_with_stats(x, variant).map(|(index, _)| index)
    }

    /// Like [`SpaceEfficientBuilder::build`] but also returns construction
    /// statistics.
    ///
    /// # Errors
    ///
    /// See [`SpaceEfficientBuilder::build`].
    pub fn build_with_stats(
        &self,
        x: &WeightedString,
        variant: IndexVariant,
    ) -> Result<(MinimizerIndex, SeBuildStats)> {
        if variant.has_grid() {
            return Err(Error::InvalidParameters(
                "the space-efficient construction does not support the grid variants \
                 (MWST-G / MWSA-G); build them from an explicit z-estimation instead"
                    .into(),
            ));
        }
        // Positions, anchors, lengths and depths narrow to u32 below.
        check_u32_positions(x.len())?;
        if self.params.ell > x.len() {
            return Err(Error::InvalidParameters(format!(
                "ℓ = {} exceeds the string length {}",
                self.params.ell,
                x.len()
            )));
        }
        // The DFS keys each k-mer in isolation, so it needs an order whose
        // raw keys are totally ordered. The lexicographic fallback for
        // σ^k beyond u64 produces range-local *ranks*, which cannot be
        // computed incrementally here — the explicit construction handles
        // those parameters correctly.
        if !KmerKeyer::new(self.params.order, self.params.k, x.sigma()).has_total_keys() {
            return Err(Error::InvalidParameters(format!(
                "the space-efficient construction requires a k-mer order with total \
                 keys, but σ = {} and k = {} overflow the packed lexicographic keys; \
                 use the explicit construction (or the Karp–Rabin order) instead",
                x.sigma(),
                self.params.k
            )));
        }
        let node_cap = ((x.len() as f64) * self.params.z * self.node_cap_factor)
            .min(usize::MAX as f64) as usize;
        let heavy = HeavyString::new(x);
        let mut stats = SeBuildStats::default();

        // Forward pass on X. The builder borrows the heavy ranks (no copy).
        let mut fwd_builder =
            EncodedFactorSetBuilder::new(Direction::Forward, heavy.shared_ranks());
        stats.forward_nodes = dfs_collect(
            x,
            &heavy,
            &self.params,
            Direction::Forward,
            &mut fwd_builder,
            node_cap,
        )?;
        stats.forward_factors = fwd_builder.len();

        // Backward pass on the reversed string.
        let x_rev = x.reversed();
        let heavy_rev = HeavyString::new(&x_rev);
        let mut bwd_builder =
            EncodedFactorSetBuilder::new(Direction::Backward, heavy.shared_ranks());
        stats.backward_nodes = dfs_collect(
            &x_rev,
            &heavy_rev,
            &self.params,
            Direction::Backward,
            &mut bwd_builder,
            node_cap,
        )?;
        stats.backward_factors = bwd_builder.len();
        // The reversed string holds σ probabilities per position: free it
        // before the sorts.
        drop((x_rev, heavy_rev));

        let (fwd, _) = fwd_builder.finish();
        let (bwd, _) = bwd_builder.finish();
        let index = MinimizerIndex::assemble(
            x,
            self.params,
            variant,
            heavy,
            fwd,
            bwd,
            None,
            "space-efficient",
        )?;
        Ok((index, stats))
    }
}

/// One frame of the iterative DFS over the extended solid factor tree.
struct Frame {
    /// Position (in DFS-string coordinates) at which this node's string starts.
    pos: usize,
    /// Next letter rank to try for the child at `pos - 1`.
    next_letter: u8,
    /// Probability of the parent's solid factor, to restore on pop.
    prev_p: f64,
    /// Whether creating this node pushed an entry onto `Diff`.
    pushed_diff: bool,
    /// Whether a k-mer was pushed into the window structure for this node.
    pushed_kmer: bool,
    /// Whether this node lies on the pure-heavy spine (its solid factor is
    /// empty and its probability is exactly 1).
    spine: bool,
}

/// Either of the two window-minimum structures, depending on the pass.
enum WindowMin {
    Forward(FrontWindowMinimizer),
    Backward(BackWindowMinimizer),
}

impl WindowMin {
    fn argmin(&self) -> Option<usize> {
        match self {
            WindowMin::Forward(w) => w.argmin(),
            WindowMin::Backward(w) => w.argmin(),
        }
    }
}

/// Runs one DFS pass and pushes the emitted factors into `builder`.
///
/// `dfs_x` is the string being walked (X itself for the forward pass, its
/// reverse for the backward pass); `dfs_heavy` is its heavy string. Emitted
/// anchors are always expressed in the coordinates of the *original* string.
fn dfs_collect(
    dfs_x: &WeightedString,
    dfs_heavy: &HeavyString,
    params: &IndexParams,
    orientation: Direction,
    builder: &mut EncodedFactorSetBuilder,
    node_cap: usize,
) -> Result<usize> {
    let n = dfs_x.len();
    let sigma = dfs_x.sigma() as u8;
    let ell = params.ell;
    let k = params.k;
    let z = params.z;
    let keyer = KmerKeyer::new(params.order, k, sigma as usize);
    let width = ell - k + 1;

    // Current letters of the DFS string (heavy by default, overridden along
    // the current path), the deviation stack and the running probability.
    let mut cur: Vec<u8> = dfs_heavy.as_ranks().to_vec();
    let mut diff: Vec<Mismatch0> = Vec::new();
    let mut cur_p = 1.0f64;
    let mut marked = vec![false; n];
    let mut window = match orientation {
        Direction::Forward => WindowMin::Forward(FrontWindowMinimizer::new(width)),
        Direction::Backward => WindowMin::Backward(BackWindowMinimizer::new(width)),
    };
    let mut kmer_buf = vec![0u8; k];
    let mut nodes = 0usize;

    let mut stack: Vec<Frame> = Vec::with_capacity(n + 1);
    stack.push(Frame {
        pos: n,
        next_letter: 0,
        prev_p: 1.0,
        pushed_diff: false,
        pushed_kmer: false,
        spine: true,
    });

    while let Some(frame_pos) = stack.last().map(|f| f.pos) {
        // Try to descend to the next viable child of the top frame.
        let mut descended = false;
        if frame_pos > 0 {
            let i = frame_pos - 1;
            let top_spine = stack.last().expect("non-empty").spine;
            let heavy_letter = dfs_heavy.letter(i);
            let start_letter = stack.last().expect("non-empty").next_letter;
            for c in start_letter..sigma {
                let p_letter = dfs_x.prob(i, c);
                let (child_p, child_spine) = if top_spine && c == heavy_letter {
                    (1.0, true)
                } else {
                    (cur_p * p_letter, false)
                };
                if !child_spine && !is_solid(child_p, z) {
                    continue;
                }
                // Viable child: record where to resume, apply the prepend.
                stack.last_mut().expect("non-empty").next_letter = c + 1;
                nodes += 1;
                if nodes > node_cap {
                    return Err(Error::InvalidParameters(format!(
                        "extended solid factor tree exceeded {node_cap} nodes; \
                         use the explicit construction for these parameters"
                    )));
                }
                let pushed_diff = c != heavy_letter;
                if pushed_diff {
                    let ratio = p_letter / dfs_x.prob(i, heavy_letter);
                    diff.push(Mismatch0 {
                        pos: i as u32,
                        letter: c,
                        log_ratio: ratio.ln(),
                    });
                }
                cur[i] = c;
                // Push the newly completed k-mer into the window structure.
                let pushed_kmer = match (&mut window, orientation) {
                    (WindowMin::Forward(w), Direction::Forward) => {
                        if i + k <= n {
                            // The forward k-mer is contiguous in `cur`; key it
                            // in place (no buffer copy).
                            w.push_front(i, keyer.key(&cur[i..i + k]));
                            true
                        } else {
                            false
                        }
                    }
                    (WindowMin::Backward(w), Direction::Backward) => {
                        // `i` is a position of the reversed string; the newly
                        // completed k-mer of the *original* string ends at
                        // original position n-1-i and starts at n-1-i-k+1.
                        let f_end = n - 1 - i;
                        if f_end + 1 >= k {
                            let f_start = f_end + 1 - k;
                            for (d, slot) in kmer_buf.iter_mut().enumerate() {
                                // Original position f_start + d ↔ reversed
                                // position n-1-(f_start+d).
                                *slot = cur[n - 1 - (f_start + d)];
                            }
                            w.push_back(f_start, keyer.key(&kmer_buf));
                            true
                        } else {
                            false
                        }
                    }
                    _ => unreachable!("window structure matches orientation"),
                };
                // If the length-ℓ prefix of the current string is solid, mark
                // its minimizer.
                if i + ell <= n {
                    let mut log_p = dfs_heavy.range_log_probability(i, i + ell);
                    for m in diff.iter().rev() {
                        if (m.pos as usize) < i + ell {
                            log_p += m.log_ratio;
                        } else {
                            break;
                        }
                    }
                    if is_solid(log_p.exp(), z) {
                        if let Some(sel) = window.argmin() {
                            // `sel` is in original coordinates for the
                            // backward pass and DFS coordinates for the
                            // forward pass; convert to DFS coordinates for
                            // marking.
                            let mark_at = match orientation {
                                Direction::Forward => sel,
                                Direction::Backward => n - 1 - sel,
                            };
                            marked[mark_at] = true;
                        }
                    }
                }
                stack.push(Frame {
                    pos: i,
                    next_letter: 0,
                    prev_p: cur_p,
                    pushed_diff,
                    pushed_kmer,
                    spine: child_spine,
                });
                cur_p = child_p;
                descended = true;
                break;
            }
        }
        if descended {
            continue;
        }
        // No more children: retreat from the top frame.
        let frame = stack.pop().expect("non-empty");
        if frame.pos == n {
            break;
        }
        let q = frame.pos;
        if marked[q] {
            marked[q] = false;
            // Emit the factor hanging from position q: it spans the rest of
            // the DFS string and deviates from the heavy string exactly at
            // the current Diff entries (all of which lie at positions ≥ q).
            let anchor_x = match orientation {
                Direction::Forward => q as u32,
                Direction::Backward => (n - 1 - q) as u32,
            };
            // `diff` is a stack of strictly decreasing DFS positions, so
            // reverse iteration yields strictly increasing depths — already
            // sorted, no post-hoc sort needed. Log-ratios are position-wise
            // and orientation-free.
            builder.push(
                anchor_x,
                (n - q) as u32,
                diff.iter()
                    .rev()
                    .map(|m| (m.pos - q as u32, m.letter, m.log_ratio)),
            )?;
        }
        // Undo the prepend that created this node.
        if frame.pushed_diff {
            diff.pop();
        }
        cur[q] = dfs_heavy.letter(q);
        if frame.pushed_kmer {
            match &mut window {
                WindowMin::Forward(w) => {
                    w.pop_front();
                }
                WindowMin::Backward(w) => {
                    w.pop_back();
                }
            }
        }
        cur_p = frame.prev_p;
    }
    Ok(nodes)
}

/// A deviation entry on the DFS stack (absolute position within the DFS
/// string, unlike a pushed mismatch, whose depth is factor-relative).
#[derive(Debug, Clone, Copy)]
struct Mismatch0 {
    pos: u32,
    letter: u8,
    log_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveIndex;
    use crate::traits::UncertainIndex;
    use ius_datasets::patterns::PatternSampler;
    use ius_datasets::uniform::UniformConfig;
    use ius_weighted::ZEstimation;

    #[test]
    fn rejects_grid_variants_and_oversized_ell() {
        let x = UniformConfig {
            n: 100,
            sigma: 2,
            spread: 0.5,
            seed: 1,
        }
        .generate();
        let params = IndexParams::new(4.0, 16, 2).unwrap();
        let builder = SpaceEfficientBuilder::new(params);
        assert!(builder.build(&x, IndexVariant::TreeGrid).is_err());
        assert!(builder.build(&x, IndexVariant::ArrayGrid).is_err());
        let params = IndexParams::new(4.0, 1000, 2).unwrap();
        assert!(SpaceEfficientBuilder::new(params)
            .build(&x, IndexVariant::Tree)
            .is_err());
    }

    // The full differential coverage of the space-efficient construction
    // against the naive oracle (uniform + pangenome corpora, all entry
    // points) lives in the shared harness `tests/differential.rs`.

    #[test]
    fn se_build_stats_and_query_agree_with_the_explicit_construction() {
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
        let (se, stats) = SpaceEfficientBuilder::new(params)
            .build_with_stats(&x, IndexVariant::Array)
            .unwrap();
        assert_eq!(se.construction(), "space-efficient");
        assert!(stats.forward_nodes > 0 && stats.backward_nodes > 0);
        assert!(stats.forward_factors > 0 && stats.backward_factors > 0);
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
    fn rejects_orders_without_total_keys() {
        // σ = 4, k = 40 overflows the packed lexicographic keys (4^40 > 2^63);
        // keying such k-mers in isolation yields the constant 0, which would
        // silently mis-sample anchors — the builder must refuse instead. The
        // explicit construction handles the same parameters correctly.
        use ius_sampling::KmerOrder;
        let x = UniformConfig {
            n: 400,
            sigma: 4,
            spread: 0.4,
            seed: 9,
        }
        .generate();
        let params = IndexParams::new(4.0, 48, 4)
            .unwrap()
            .with_k(40)
            .unwrap()
            .with_order(KmerOrder::Lexicographic);
        let err = SpaceEfficientBuilder::new(params)
            .build(&x, IndexVariant::Array)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidParameters(msg) if msg.contains("total")));
        let est = ZEstimation::build(&x, 4.0).unwrap();
        let explicit =
            MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Array).unwrap();
        let naive = NaiveIndex::new(4.0).unwrap();
        let mut sampler = PatternSampler::new(&est, 2);
        for pattern in sampler.sample_many(48, 10) {
            assert_eq!(
                explicit.query(&pattern, &x).unwrap(),
                naive.query(&pattern, &x).unwrap()
            );
        }
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
        match builder.build(&x, IndexVariant::Array) {
            Ok(index) => assert!(index.size_bytes() > 0),
            Err(Error::InvalidParameters(msg)) => assert!(msg.contains("exceeded")),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}
