//! z-estimations (Theorem 2 of the paper, due to Barton et al.).
//!
//! A *z-estimation* of a weighted string `X` of length `n` is an indexed
//! family `S = (S_j, π_j)_{j=1..⌊z⌋}` of property strings such that for every
//! string `P` and every position `i`,
//!
//! ```text
//! Count_S(P, i) = ⌊ P(X[i..i+|P|-1] = P) · z ⌋ ,
//! ```
//!
//! where `Count_S(P, i)` is the number of strands in which `P` occurs at `i`
//! respecting the property. In particular every z-solid factor of `X` occurs
//! in at least one strand (completeness), and every property-respecting
//! factor of a strand is z-solid in `X` (soundness) — the two facts all the
//! indexes in this workspace rely on.
//!
//! # Construction
//!
//! The construction implemented here processes `X` left to right and
//! maintains, for every *active* starting position `s ≤ i`, the family of
//! *designation groups*: a group holds the strands that are currently
//! designated to carry one particular solid factor starting at `s`, together
//! with that factor's occurrence probability. The designated sets form a
//! laminar family (groups of earlier starting positions refine groups of
//! later ones), which allows the per-position letter assignment to satisfy
//! the exact-count contract at *every* active starting position
//! simultaneously: groups are processed from the earliest start to the
//! latest, each group first keeps the strands forced by deeper groups and
//! then tops up each letter's quota `⌊p·z⌋` from its unassigned members;
//! leftover members are cut, which fixes the property value `π_j[s]`.
//!
//! The construction runs in `O(nz)` space (the size of the output, as in
//! Theorem 2) and time `O(nσ + nz + W)` where `W` is the total number of
//! designation updates at uncertain positions.
//!
//! Four structural optimisations keep the constants small without changing
//! the letter assignment (the output is bit-identical to the direct
//! formulation):
//!
//! * levels created during a run of deterministic positions are merged into
//!   one *range level* — their designation state starts identical (every
//!   strand, probability 1) and evolves identically forever after, so one
//!   representative carries the whole run and cuts/flushes fan out over the
//!   start range;
//! * each level stores its groups as slices of one arena vector
//!   (`members` + per-group end offsets), and dead levels return their
//!   buffers to a pool — the steady state allocates nothing;
//! * letters are written position-major (one contiguous row per position)
//!   into a bounded staging buffer that is transposed into the per-strand
//!   sequences block by block, replacing `⌊z⌋` scattered writes per position
//!   with one while keeping the peak heap at a single letter matrix;
//! * each uncertain position first collects its *candidate letters* — the
//!   `k` letters, in rank order, whose own multiplicity `⌊p·z⌋` is positive
//!   — and every group's quotas, buckets and walks run over those `k` slots
//!   instead of all `σ` letters, so a group costs `O(k)` rather than `O(σ)`.
//!   Nothing is lost: every group probability is at most 1 (a product of
//!   entries of uncertain positions, each below the heavy probability, which
//!   is below 1), rounding is monotone, so a letter with zero multiplicity
//!   at the top level gets a zero quota in every group; and a forced letter
//!   was given a positive quota deeper down, so it is always a candidate.

use crate::error::{Error, Result};
use crate::heavy::HeavyString;
use crate::property::PropertyString;
use crate::solid_multiplicity;
use crate::string::WeightedString;

/// The family of `⌊z⌋` property strings estimating a weighted string.
#[derive(Debug, Clone)]
pub struct ZEstimation {
    z: f64,
    n: usize,
    strands: Vec<PropertyString>,
}

/// Sentinel for "no candidate slot assigned in this transition". Slots
/// index the candidate letters of a position, so they reach at most 254
/// (`Alphabet` caps σ at 255) and no collision is possible.
const NO_SLOT: u8 = u8::MAX;

/// Positions per staging block of the letter transpose (the staging buffer
/// holds `TRANSPOSE_BLOCK · ⌊z⌋` bytes and stays cache-resident).
const TRANSPOSE_BLOCK: usize = 2048;

/// Transposes the position-major staging rows of the block ending at `pos`
/// into the per-strand sequences once the block is full (or the string
/// ends).
#[inline]
fn flush_block(letters: &mut [Vec<u8>], staging: &[u8], pos: usize, n: usize) {
    if !(pos + 1).is_multiple_of(TRANSPOSE_BLOCK) && pos + 1 != n {
        return;
    }
    let num_strands = letters.len();
    let block_start = pos - (pos % TRANSPOSE_BLOCK);
    for (strand, seq) in letters.iter_mut().enumerate() {
        for p in block_start..=pos {
            seq[p] = staging[(p - block_start) * num_strands + strand];
        }
    }
}

/// Validates the weight threshold and returns the strand count `⌊z⌋`.
///
/// Strand ids are `u32`, so a `z` whose floor exceeds `u32::MAX` is refused
/// here, before anything is allocated.
fn strand_count(z: f64) -> Result<usize> {
    if !(z.is_finite() && z >= 1.0) || z.floor() > f64::from(u32::MAX) {
        return Err(Error::InvalidThreshold(z));
    }
    Ok(z.floor() as usize)
}

/// One designation group inside a level's arena: the strands in
/// `members[previous end..end]` carry a factor of probability `prob`.
#[derive(Clone, Copy)]
struct GroupMeta {
    /// Occurrence probability of the factor carried by this group.
    prob: f64,
    /// Exclusive end offset of the group's slice of the level's `members`.
    end: u32,
}

/// All designation groups for a contiguous range of active starting
/// positions whose designation state is identical (a deterministic run
/// produces one level covering every start of the run).
struct Level {
    /// First 0-based starting position represented by this level.
    first_start: u32,
    /// Last starting position represented by this level (inclusive).
    last_start: u32,
    /// `true` while the level is the single all-strand probability-1 group
    /// created by a deterministic run (the state in which merging is valid).
    pristine: bool,
    /// Concatenated member strand ids, grouped.
    members: Vec<u32>,
    groups: Vec<GroupMeta>,
}

impl Level {
    /// Marks every represented start of `strand` as cut at `pos`.
    #[inline]
    fn cut(&self, extents: &mut [Vec<u32>], strand: u32, pos: u32) {
        let row = &mut extents[strand as usize];
        for s in self.first_start..=self.last_start {
            row[s as usize] = pos;
        }
    }
}

impl ZEstimation {
    /// Builds a z-estimation of `x` for the weight threshold `1/z`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidThreshold`] unless `z ≥ 1`, finite and
    /// `⌊z⌋ ≤ u32::MAX` (strand ids are `u32`).
    pub fn build(x: &WeightedString, z: f64) -> Result<Self> {
        let num_strands = strand_count(z)?;
        let n = x.len();
        let sigma = x.sigma();
        // Slots reach sigma − 1, so the sentinel collides only for
        // sigma > 255 — which `Alphabet` already rejects; sigma = 255 is fine.
        assert!(
            sigma <= NO_SLOT as usize,
            "alphabet too large for the slot sentinel"
        );
        let heavy = HeavyString::new(x);

        // Output buffers. Letters are accumulated position-major (one
        // contiguous row of `⌊z⌋` bytes per position) in a bounded staging
        // buffer and transposed block by block into the letter matrix, so
        // the peak heap stays at one letter matrix plus
        // `TRANSPOSE_BLOCK·⌊z⌋` staging bytes. extents[j][s] starts as the
        // empty interval `s` and is overwritten when strand j is cut from
        // level `s` (or at the final flush).
        let mut letters: Vec<Vec<u8>> = vec![vec![0u8; n]; num_strands];
        let mut staging: Vec<u8> = vec![0u8; TRANSPOSE_BLOCK.min(n.max(1)) * num_strands];
        let mut extents: Vec<Vec<u32>> = (0..num_strands)
            .map(|_| (0..n as u32).collect::<Vec<u32>>())
            .collect();

        // Active designation levels, ordered by increasing start position.
        let mut levels: Vec<Level> = Vec::new();
        // Candidate slot assigned to each strand during the current
        // transition (`NO_SLOT` = unassigned).
        let mut assigned: Vec<u8> = vec![NO_SLOT; num_strands];
        // The current position's candidate letters in rank order, with
        // their probabilities and top-level multiplicities, one entry per
        // slot.
        let mut cand_letter: Vec<u8> = Vec::with_capacity(sigma);
        let mut cand_prob: Vec<f64> = Vec::with_capacity(sigma);
        let mut cand_quota: Vec<usize> = Vec::with_capacity(sigma);
        // Scratch buffers reused across positions and buffer pools fed by
        // dead levels, so the steady state allocates nothing.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); sigma];
        let mut leftovers: Vec<u32> = Vec::new();
        let mut quotas: Vec<usize> = Vec::with_capacity(sigma);
        let mut scratch_members: Vec<u32> = Vec::new();
        let mut scratch_groups: Vec<GroupMeta> = Vec::new();
        let mut member_pool: Vec<Vec<u32>> = Vec::new();
        let mut group_pool: Vec<Vec<GroupMeta>> = Vec::new();

        for pos in 0..n {
            let dist = x.distribution(pos);
            let heavy_letter = heavy.letter(pos);
            let heavy_prob = dist[heavy_letter as usize];

            if heavy_prob >= 1.0 {
                // Deterministic position: every designation continues with the
                // single certain letter; all strands take it, and the new
                // level designates every strand. Consecutive deterministic
                // starts share one range level (identical state evolution).
                let at = (pos % TRANSPOSE_BLOCK) * num_strands;
                staging[at..at + num_strands].fill(heavy_letter);
                flush_block(&mut letters, &staging, pos, n);
                match levels.last_mut() {
                    Some(level) if level.pristine && level.last_start as usize + 1 == pos => {
                        level.last_start = pos as u32;
                    }
                    _ => {
                        let mut members = member_pool.pop().unwrap_or_default();
                        members.clear();
                        members.extend(0..num_strands as u32);
                        let mut groups = group_pool.pop().unwrap_or_default();
                        groups.clear();
                        groups.push(GroupMeta {
                            prob: 1.0,
                            end: num_strands as u32,
                        });
                        levels.push(Level {
                            first_start: pos as u32,
                            last_start: pos as u32,
                            pristine: true,
                            members,
                            groups,
                        });
                    }
                }
                continue;
            }

            // Uncertain position: collect the candidate letters and reset
            // the per-transition assignment. Every group probability is at
            // most 1, so a letter outside the candidates has a zero quota in
            // every group below and can be skipped throughout.
            cand_letter.clear();
            cand_prob.clear();
            cand_quota.clear();
            for (letter, &p) in dist.iter().enumerate() {
                let q = solid_multiplicity(p, z) as usize;
                if q > 0 {
                    cand_letter.push(letter as u8);
                    cand_prob.push(p);
                    cand_quota.push(q);
                }
            }
            let k = cand_letter.len();
            let buckets = &mut buckets[..k];
            assigned.fill(NO_SLOT);

            // Process existing levels from the earliest start (deepest groups,
            // whose choices are forced upon shallower ones) to the latest.
            for level in levels.iter_mut() {
                scratch_members.clear();
                scratch_groups.clear();
                let mut begin = 0usize;
                for g in level.groups.iter() {
                    let members = &level.members[begin..g.end as usize];
                    begin = g.end as usize;

                    // Singleton fast path: the deep tail of the designation
                    // forest is dominated by one-strand groups, whose split
                    // needs no bucketing — the member keeps its forced letter
                    // or takes the first letter whose quota admits it.
                    if let [m] = *members {
                        let forced = assigned[m as usize];
                        let slot = if forced != NO_SLOT {
                            Some(forced)
                        } else {
                            // First candidate (in rank order) with a positive
                            // quota, exactly as the bucket loop would assign.
                            cand_prob
                                .iter()
                                .position(|&p| solid_multiplicity(g.prob * p, z) > 0)
                                .map(|s| s as u8)
                        };
                        match slot {
                            Some(slot) => {
                                assigned[m as usize] = slot;
                                scratch_members.push(m);
                                scratch_groups.push(GroupMeta {
                                    prob: g.prob * cand_prob[slot as usize],
                                    end: scratch_members.len() as u32,
                                });
                            }
                            None => level.cut(&mut extents, m, pos as u32),
                        }
                        continue;
                    }

                    // All-forced fast paths. A forced member's deeper
                    // designation has probability ≤ this group's, so its
                    // letter's quota here is positive: the death check cannot
                    // fire and no member is cut — the group splits purely by
                    // letter, no quota arithmetic needed.
                    let first_slot = assigned[members[0] as usize];
                    if first_slot != NO_SLOT {
                        let mut all_same = true;
                        let mut all_forced = true;
                        for &m in &members[1..] {
                            let slot = assigned[m as usize];
                            if slot == NO_SLOT {
                                all_forced = false;
                                break;
                            }
                            all_same &= slot == first_slot;
                        }
                        if all_forced && all_same {
                            scratch_members.extend_from_slice(members);
                            scratch_groups.push(GroupMeta {
                                prob: g.prob * cand_prob[first_slot as usize],
                                end: scratch_members.len() as u32,
                            });
                            continue;
                        }
                        if all_forced && members.len() * k <= 64 {
                            // Small mixed group: k passes beat the bucket
                            // machinery; emission stays in letter-rank order.
                            for slot in 0..k as u8 {
                                let before = scratch_members.len();
                                for &m in members {
                                    if assigned[m as usize] == slot {
                                        scratch_members.push(m);
                                    }
                                }
                                if scratch_members.len() > before {
                                    scratch_groups.push(GroupMeta {
                                        prob: g.prob * cand_prob[slot as usize],
                                        end: scratch_members.len() as u32,
                                    });
                                }
                            }
                            continue;
                        }
                        // Large mixed all-forced groups fall through to the
                        // bucket path, where the quota arithmetic amortises.
                    }

                    // Letter quotas for the extended factors.
                    quotas.clear();
                    let mut total_quota = 0usize;
                    for &p in &cand_prob {
                        let q = solid_multiplicity(g.prob * p, z) as usize;
                        quotas.push(q);
                        total_quota += q;
                    }
                    if total_quota == 0 {
                        // The whole group dies: every member is cut at every
                        // start this level represents.
                        for &m in members {
                            level.cut(&mut extents, m, pos as u32);
                        }
                        continue;
                    }
                    for bucket in buckets.iter_mut() {
                        bucket.clear();
                    }
                    leftovers.clear();
                    // Forced members keep the letter a deeper group gave them.
                    for &m in members {
                        let slot = assigned[m as usize];
                        if slot != NO_SLOT {
                            buckets[slot as usize].push(m);
                        } else {
                            leftovers.push(m);
                        }
                    }
                    let mut next_leftover = 0usize;
                    for (slot, bucket) in buckets.iter_mut().enumerate() {
                        // Defensive: forced members can exceed the quota only
                        // through floating-point drift; designated strands are
                        // never dropped.
                        let quota = quotas[slot].max(bucket.len());
                        while bucket.len() < quota && next_leftover < leftovers.len() {
                            let m = leftovers[next_leftover];
                            next_leftover += 1;
                            assigned[m as usize] = slot as u8;
                            bucket.push(m);
                        }
                        if !bucket.is_empty() {
                            scratch_members.extend_from_slice(bucket);
                            scratch_groups.push(GroupMeta {
                                prob: g.prob * cand_prob[slot],
                                end: scratch_members.len() as u32,
                            });
                        }
                    }
                    // Remaining members are cut from this level.
                    for &m in &leftovers[next_leftover..] {
                        level.cut(&mut extents, m, pos as u32);
                    }
                }
                std::mem::swap(&mut level.members, &mut scratch_members);
                std::mem::swap(&mut level.groups, &mut scratch_groups);
                level.pristine = false;
            }
            // Drop levels that lost all their designations, recycling their
            // buffers.
            levels.retain_mut(|level| {
                if level.groups.is_empty() {
                    member_pool.push(std::mem::take(&mut level.members));
                    group_pool.push(std::mem::take(&mut level.groups));
                    false
                } else {
                    true
                }
            });

            // Create the level for the new starting position `pos`. Forced
            // members are exactly the strands that received a letter in this
            // transition (they are designated at some earlier start and the
            // laminar nesting requires them to be designated here as well).
            for bucket in buckets.iter_mut() {
                bucket.clear();
            }
            leftovers.clear();
            for (strand, &slot) in assigned.iter().enumerate() {
                if slot != NO_SLOT {
                    buckets[slot as usize].push(strand as u32);
                } else {
                    leftovers.push(strand as u32);
                }
            }
            let mut members = member_pool.pop().unwrap_or_default();
            members.clear();
            let mut groups = group_pool.pop().unwrap_or_default();
            groups.clear();
            let at = (pos % TRANSPOSE_BLOCK) * num_strands;
            let row = &mut staging[at..at + num_strands];
            let mut next_leftover = 0usize;
            for (slot, bucket) in buckets.iter_mut().enumerate() {
                let quota = cand_quota[slot].max(bucket.len());
                while bucket.len() < quota && next_leftover < leftovers.len() {
                    let strand = leftovers[next_leftover];
                    next_leftover += 1;
                    bucket.push(strand);
                }
                if !bucket.is_empty() {
                    let letter = cand_letter[slot];
                    for &strand in bucket.iter() {
                        row[strand as usize] = letter;
                    }
                    members.extend_from_slice(bucket);
                    groups.push(GroupMeta {
                        prob: cand_prob[slot],
                        end: members.len() as u32,
                    });
                }
            }
            // Undesignated strands take the heavy letter; they do not count
            // for any starting position, so the choice is immaterial.
            for &strand in &leftovers[next_leftover..] {
                row[strand as usize] = heavy_letter;
            }
            if groups.is_empty() {
                member_pool.push(members);
                group_pool.push(groups);
            } else {
                levels.push(Level {
                    first_start: pos as u32,
                    last_start: pos as u32,
                    pristine: false,
                    members,
                    groups,
                });
            }
            flush_block(&mut letters, &staging, pos, n);
        }

        // Final flush: designations alive at the end of the string cover up
        // to position n-1.
        for level in &levels {
            for &m in &level.members {
                level.cut(&mut extents, m, n as u32);
            }
        }

        let strands = letters
            .into_iter()
            .zip(extents)
            .map(|(seq, extent)| PropertyString::new(seq, extent))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { z, n, strands })
    }

    /// The weight-threshold denominator `z`.
    #[inline]
    pub fn z(&self) -> f64 {
        self.z
    }

    /// Length `n` of the estimated weighted string.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the underlying weighted string was empty (never the case
    /// for a constructed value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of strands, `⌊z⌋`.
    #[inline]
    pub fn num_strands(&self) -> usize {
        self.strands.len()
    }

    /// The strands `(S_j, π_j)`.
    #[inline]
    pub fn strands(&self) -> &[PropertyString] {
        &self.strands
    }

    /// One strand.
    #[inline]
    pub fn strand(&self, j: usize) -> &PropertyString {
        &self.strands[j]
    }

    /// `Count_S(P, i)`: the number of strands in which the rank-encoded
    /// pattern occurs at position `i` respecting the property.
    pub fn count(&self, pattern: &[u8], position: usize) -> usize {
        self.strands
            .iter()
            .filter(|s| s.occurs_at(pattern, position))
            .count()
    }

    /// [`ZEstimation::count`] for a byte pattern; the alphabet of the original
    /// weighted string must be supplied for encoding.
    ///
    /// This convenience method assumes the strands were produced from a
    /// weighted string over the alphabet `{A, B, …}` used in the paper's
    /// examples: ranks are taken as `pattern[i] - b'A'`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSymbol`] if a byte is not an uppercase ASCII letter
    /// within the first `σ`-many letters.
    pub fn count_bytes(&self, pattern: &[u8], position: usize) -> Result<usize> {
        let encoded: Vec<u8> = pattern
            .iter()
            .map(|&b| {
                if b.is_ascii_uppercase() {
                    Ok(b - b'A')
                } else {
                    Err(Error::UnknownSymbol(b))
                }
            })
            .collect::<Result<Vec<u8>>>()?;
        Ok(self.count(&encoded, position))
    }

    /// Verifies the defining contract of a z-estimation against `x` by brute
    /// force, for every position and every solid factor up to length
    /// `max_len` (plus soundness of every strand). Intended for tests.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProperty`] describing the first violated constraint.
    pub fn verify_contract(&self, x: &WeightedString, max_len: usize) -> Result<()> {
        for strand in &self.strands {
            strand.verify_sound(x, self.z)?;
        }
        let sigma = x.sigma() as u8;
        for start in 0..x.len() {
            // Enumerate all strings over the alphabet of length ≤ max_len
            // whose occurrence probability is positive, via DFS.
            let mut stack: Vec<(Vec<u8>, f64)> = vec![(Vec::new(), 1.0)];
            while let Some((prefix, prob)) = stack.pop() {
                if prefix.len() >= max_len || start + prefix.len() >= x.len() {
                    continue;
                }
                for c in 0..sigma {
                    let p = prob * x.prob(start + prefix.len(), c);
                    if p <= 0.0 {
                        continue;
                    }
                    let mut factor = prefix.clone();
                    factor.push(c);
                    let expected = solid_multiplicity(p, self.z) as usize;
                    let got = self.count(&factor, start);
                    if got != expected {
                        return Err(Error::InvalidProperty(format!(
                            "Count_S mismatch at position {start} for factor {factor:?}: expected {expected}, got {got} (p = {p:.6})"
                        )));
                    }
                    if expected > 0 {
                        stack.push((factor, p));
                    }
                }
            }
        }
        Ok(())
    }

    /// Total heap size of the family in bytes (letters + property arrays).
    ///
    /// This is the "size of z-estimation" statistic of Table 2.
    pub fn memory_bytes(&self) -> usize {
        self.strands.iter().map(PropertyString::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::string::paper_example;
    use crate::{is_solid, Alphabet};

    #[test]
    fn rejects_invalid_z() {
        let x = paper_example();
        assert!(ZEstimation::build(&x, 0.5).is_err());
        assert!(ZEstimation::build(&x, f64::NAN).is_err());
        assert!(ZEstimation::build(&x, f64::INFINITY).is_err());
        assert!(ZEstimation::build(&x, 1.0).is_ok());
    }

    #[test]
    fn refuses_z_beyond_u32_strand_ids() {
        // Strand ids are u32: ⌊z⌋ = u32::MAX is the largest representable
        // strand count, and anything beyond is refused before allocating.
        let x = paper_example();
        for z in [f64::from(u32::MAX) + 1.0, 1e300, f64::MAX] {
            assert!(matches!(
                ZEstimation::build(&x, z),
                Err(Error::InvalidThreshold(v)) if v == z
            ));
        }
    }

    #[test]
    fn paper_example_z4_counts() {
        // Example 4 of the paper: for z = 4, P = AB at position 1 (1-based)
        // occurs in exactly 2 strands respecting the property.
        let x = paper_example();
        let est = ZEstimation::build(&x, 4.0).unwrap();
        assert_eq!(est.num_strands(), 4);
        assert_eq!(est.count_bytes(b"AB", 0).unwrap(), 2);
        // AAAA at position 1 (1-based) has probability 0.3 → ⌊1.2⌋ = 1.
        assert_eq!(est.count_bytes(b"AAAA", 0).unwrap(), 1);
        // ABAB at position 1 has probability 3/40 → 0.
        assert_eq!(est.count_bytes(b"ABAB", 0).unwrap(), 0);
        // Single letters at position 2 (1-based): both A and B have p = 1/2 → 2 strands each.
        assert_eq!(est.count_bytes(b"A", 1).unwrap(), 2);
        assert_eq!(est.count_bytes(b"B", 1).unwrap(), 2);
    }

    #[test]
    fn paper_example_full_contract() {
        let x = paper_example();
        for z in [1.0, 2.0, 3.0, 4.0, 5.5, 8.0, 16.0] {
            let est = ZEstimation::build(&x, z).unwrap();
            est.verify_contract(&x, x.len()).unwrap();
        }
    }

    #[test]
    fn deterministic_string_estimation() {
        let x = WeightedString::deterministic(Alphabet::dna(), b"ACGTACGTAC").unwrap();
        let est = ZEstimation::build(&x, 7.0).unwrap();
        assert_eq!(est.num_strands(), 7);
        for strand in est.strands() {
            // Every strand spells the text and covers everything.
            assert_eq!(
                strand.seq(),
                x.alphabet().encode(b"ACGTACGTAC").unwrap().as_slice()
            );
            assert_eq!(strand.extent(0), 10);
            assert_eq!(strand.extent(9), 10);
        }
        est.verify_contract(&x, 10).unwrap();
    }

    #[test]
    fn uniform_positions_split_strands_evenly() {
        // Two positions, uniform over {A, B}; z = 4 → each of AA, AB, BA, BB
        // must appear in exactly one strand.
        let alphabet = Alphabet::new(b"AB").unwrap();
        let x = WeightedString::from_rows(alphabet, &[vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        let est = ZEstimation::build(&x, 4.0).unwrap();
        est.verify_contract(&x, 2).unwrap();
        for pattern in [[0u8, 0], [0, 1], [1, 0], [1, 1]] {
            assert_eq!(est.count(&pattern, 0), 1, "pattern {pattern:?}");
        }
    }

    #[test]
    fn completeness_every_solid_factor_is_covered() {
        // Randomised check on a slightly larger string.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let alphabet = Alphabet::new(b"AB").unwrap();
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|_| {
                let p: f64 = rng.gen_range(0.0..=1.0);
                vec![p, 1.0 - p]
            })
            .collect();
        let x = WeightedString::from_rows(alphabet, &rows).unwrap();
        for z in [2.0, 4.0, 9.0] {
            let est = ZEstimation::build(&x, z).unwrap();
            // For a sample of positions and lengths, solid factors must occur
            // in ≥ 1 strand and non-solid ones in 0 strands.
            for start in 0..x.len() {
                for len in 1..=(x.len() - start).min(10) {
                    // Check the heavy-ish pattern built by taking argmax letters.
                    let pattern: Vec<u8> = (start..start + len)
                        .map(|i| {
                            if x.prob(i, 0) >= x.prob(i, 1) {
                                0u8
                            } else {
                                1u8
                            }
                        })
                        .collect();
                    let p = x.occurrence_probability(start, &pattern);
                    let count = est.count(&pattern, start);
                    assert_eq!(count, solid_multiplicity(p, z) as usize);
                    if is_solid(p, z) {
                        assert!(count >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn strands_are_sound() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let alphabet = Alphabet::dna();
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|_| {
                let mut v: Vec<f64> = (0..4).map(|_| rng.gen_range(0.01..1.0)).collect();
                let s: f64 = v.iter().sum();
                v.iter_mut().for_each(|p| *p /= s);
                v
            })
            .collect();
        let x = WeightedString::from_rows(alphabet, &rows).unwrap();
        for z in [1.0, 3.0, 8.0, 20.0] {
            let est = ZEstimation::build(&x, z).unwrap();
            for strand in est.strands() {
                strand.verify_sound(&x, z).unwrap();
            }
        }
    }

    #[test]
    fn build_meets_contract_on_mixed_rows() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xE57);
        for sigma in [2usize, 4] {
            for trial in 0..6 {
                // Mix deterministic and uncertain positions so both the
                // range-level merging and the singleton fast path trigger.
                let alphabet = Alphabet::integer(sigma).unwrap();
                let rows: Vec<Vec<f64>> = (0..200)
                    .map(|_| {
                        if rng.gen_bool(0.6) {
                            let mut row = vec![0.0; sigma];
                            row[rng.gen_range(0..sigma)] = 1.0;
                            row
                        } else {
                            let mut v: Vec<f64> =
                                (0..sigma).map(|_| rng.gen_range(0.05..1.0)).collect();
                            let s: f64 = v.iter().sum();
                            v.iter_mut().for_each(|p| *p /= s);
                            v
                        }
                    })
                    .collect();
                let x = WeightedString::from_rows(alphabet, &rows).unwrap();
                for z in [1.0, 3.0, 7.5, 16.0] {
                    ZEstimation::build(&x, z)
                        .unwrap()
                        .verify_contract(&x, 5)
                        .unwrap_or_else(|e| panic!("sigma={sigma} trial={trial} z={z}: {e}"));
                }
            }
        }
    }

    #[test]
    fn maximum_alphabet_size_is_supported() {
        // σ = 255 is the largest size `Alphabet` accepts; ranks reach 254 and
        // must not collide with the construction's letter sentinel.
        let sigma = 255usize;
        let alphabet = Alphabet::integer(sigma).unwrap();
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let mut row = vec![0.0; sigma];
                if i % 3 == 0 {
                    row[i % sigma] = 1.0;
                } else {
                    row[i % sigma] = 0.6;
                    row[(i + 100) % sigma] = 0.4;
                }
                row
            })
            .collect();
        let x = WeightedString::from_rows(alphabet, &rows).unwrap();
        let est = ZEstimation::build(&x, 4.0).unwrap();
        est.verify_contract(&x, 4).unwrap();
    }

    #[test]
    fn memory_reporting_is_positive_and_scales() {
        let x = paper_example();
        let small = ZEstimation::build(&x, 2.0).unwrap().memory_bytes();
        let large = ZEstimation::build(&x, 16.0).unwrap().memory_bytes();
        assert!(small > 0);
        assert!(large > small);
    }
}
