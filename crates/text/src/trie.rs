//! Compacted tries over implicitly labelled string sets.
//!
//! A [`CompactedTrie`] is the compacted trie (Patricia trie) of a
//! lexicographically sorted collection of strings. Crucially, the trie does
//! **not** store its edge labels: all label accesses go through a
//! [`LabelProvider`], so the very same structure serves
//!
//! * the classic weighted suffix tree, whose labels are the truncated
//!   suffixes of the concatenated z-estimation, and
//! * the minimizer solid factor trees of the paper, whose labels are
//!   reconstructed from the heavy string plus at most `log₂ z` stored
//!   mismatches per factor (Corollary 4) — the `O(log z)`-bits-per-edge
//!   encoding that makes the index small.
//!
//! Construction is the stack-based array-to-tree algorithm (Kasai et al.,
//! CPM 2001; Abouelhoda, Kurtz & Ohlebusch, JDA 2004): one pass over the
//! sorted strings and the LCPs of neighbours, keeping the rightmost
//! root-to-leaf path on a stack. A node's depth, parent and first leaf are
//! known when it is created and its last leaf when it leaves the stack, so
//! each goes straight into the flat per-node arrays the trie keeps; a
//! counting sort of the parents then lays out the child table. The build
//! holds the kept arrays plus 4 B of parent per node, and runs in time
//! linear in the number of strings.
//!
//! The child table is in compressed-sparse-row form, the plain offset
//! arrays of Abouelhoda et al.: `children_start` holds one `u32` offset per
//! node plus the child total, and node `v`'s children are the entries
//! `children_start[v]..children_start[v + 1]` of `child_letters` and
//! `child_nodes`. A node may have any number of children, and the root is
//! node 0. Per node the trie keeps 16 B (depth, leaf range, offset), and
//! per edge 5 B (first letter, child id).

use ius_arena::ArenaVec;

/// Access to the letters of the sorted strings underlying a trie.
pub trait LabelProvider {
    /// The letter at depth `depth` (0-based from the string start) of the
    /// `leaf`-th string in sorted order, or `None` past its end.
    fn letter(&self, leaf: usize, depth: usize) -> Option<u8>;

    /// Length of the `leaf`-th string.
    fn len(&self, leaf: usize) -> usize;
}

/// Sentinel "first letter" for zero-length edges (duplicate strings).
const NO_LETTER: u8 = u8::MAX;

/// The flat (struct-of-arrays) representation of a [`CompactedTrie`], used by
/// the persistence layer to save a trie without re-running the stack-based
/// construction on load. The per-node vectors have one entry per node,
/// `children_start` one more; `child_letters`/`child_nodes` hold the
/// flattened child table in the same grouping [`CompactedTrie::children`]
/// exposes. Each array is an [`ArenaVec`], so the parts can either own
/// their storage (a fresh build) or borrow it zero-copy from a persisted
/// arena; [`CompactedTrie::parts`] lends them as slices (`U32 = &[u32]`,
/// `U8 = &[u8]`), for writing a trie out without a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct TrieParts<U32 = ArenaVec<u32>, U8 = ArenaVec<u8>> {
    /// String depth per node.
    pub depth: U32,
    /// Lower end (inclusive) of each node's sorted-leaf range.
    pub leaf_lo: U32,
    /// Upper end (exclusive) of each node's sorted-leaf range.
    pub leaf_hi: U32,
    /// Start of each node's children in the flattened child table, then
    /// the child total: node `v`'s children end where node `v + 1`'s start.
    pub children_start: U32,
    /// First edge letter per flattened child entry.
    pub child_letters: U8,
    /// Child node id per flattened child entry.
    pub child_nodes: U32,
    /// Number of strings the trie was built over.
    pub num_leaves: u64,
}

/// The result of descending a pattern in a trie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descent {
    /// The node at or below which every matching leaf lives.
    pub node: u32,
    /// Half-open range of sorted leaf indices whose strings have the pattern
    /// as a prefix.
    pub leaves: (u32, u32),
}

/// A compacted trie over a sorted string collection with external labels.
///
/// Stored as a struct of flat arrays (one entry per node, plus a flattened
/// child table) so a persisted trie can be reopened as zero-copy views into
/// an [`ius_arena::Arena`] instead of being decoded node by node.
#[derive(Debug, Clone)]
pub struct CompactedTrie {
    depth: ArenaVec<u32>,
    leaf_lo: ArenaVec<u32>,
    leaf_hi: ArenaVec<u32>,
    /// Child-table offsets: one per node, then the child total.
    children_start: ArenaVec<u32>,
    /// First edge letter per flattened child entry, grouped per node.
    child_letters: ArenaVec<u8>,
    /// Child node id per flattened child entry, grouped per node.
    child_nodes: ArenaVec<u32>,
    num_leaves: usize,
}

impl CompactedTrie {
    /// Builds the compacted trie of the sorted strings `labels` provides,
    /// one per entry of `lcps`.
    ///
    /// * `lcps[i]` — LCP of strings `i-1` and `i` (`lcps[0]` is ignored);
    /// * `labels` — each string's length, and the first letter of each edge.
    ///
    /// Nodes are numbered in creation order: the root, then per string its
    /// leaf, preceded by a split node when the string branches off inside
    /// an edge. A split node only ever replaces its parent's last child, so
    /// every node's children in id order are in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if an LCP value exceeds a neighbouring string's length, or if
    /// the node ids, leaf indices or string lengths overflow their `u32`
    /// tables.
    pub fn build<L: LabelProvider>(lcps: &[u32], labels: &L) -> Self {
        let num_leaves = lcps.len();
        // The root, a leaf per string and at most one split per string after
        // the first; shrunk to the exact count once the pass is done.
        let capacity = 2 * num_leaves.max(1);
        assert!(
            u32::try_from(capacity).is_ok(),
            "{num_leaves} strings overflow the u32 node ids"
        );
        let mut depth: Vec<u32> = Vec::with_capacity(capacity);
        let mut leaf_lo: Vec<u32> = Vec::with_capacity(capacity);
        let mut leaf_hi: Vec<u32> = Vec::with_capacity(capacity);
        let mut parent: Vec<u32> = Vec::with_capacity(capacity);
        // The root is node 0; its parent entry is never read.
        depth.push(0);
        leaf_lo.push(0);
        leaf_hi.push(0);
        parent.push(0);
        // The rightmost path: node ids with strictly increasing depth.
        let mut stack: Vec<u32> = vec![0];
        let mut prev_len = 0;
        for (i, &lcp) in lcps.iter().enumerate() {
            let len = u32::try_from(labels.len(i)).expect("string lengths fit the u32 depths");
            let lcp = if i == 0 { 0 } else { lcp };
            assert!(
                lcp <= len.min(prev_len),
                "lcp[{i}] = {lcp} exceeds a neighbouring string length"
            );
            prev_len = len;
            let leaf = i as u32;
            // The nodes deeper than the LCP end at the previous leaf.
            let mut popped = None;
            while let Some(&node) = stack.last().filter(|&&node| depth[node as usize] > lcp) {
                stack.pop();
                leaf_hi[node as usize] = leaf;
                popped = Some(node);
            }
            let top = *stack.last().expect("the root is never popped");
            if depth[top as usize] < lcp {
                // The string branches off inside the edge to the last popped
                // node, `top`'s last child: a split node takes its place.
                let child = popped.expect("a node deeper than the LCP was popped") as usize;
                let split = depth.len() as u32;
                depth.push(lcp);
                leaf_lo.push(leaf_lo[child]);
                leaf_hi.push(leaf); // set again when the split leaves the stack
                parent.push(top);
                parent[child] = split;
                stack.push(split);
            }
            let branch = *stack.last().expect("the root is never popped");
            let node = depth.len() as u32;
            depth.push(len);
            leaf_lo.push(leaf);
            leaf_hi.push(leaf + 1);
            parent.push(branch);
            // A string equal to the branch's path hangs off it by a
            // zero-length edge and never gets children of its own.
            if len > depth[branch as usize] {
                stack.push(node);
            }
        }
        // The nodes left on the stack end at the last leaf.
        for node in stack {
            leaf_hi[node as usize] = num_leaves as u32;
        }
        depth.shrink_to_fit();
        leaf_lo.shrink_to_fit();
        leaf_hi.shrink_to_fit();
        parent.shrink_to_fit();

        // Count each node's children, turn the counts into the ends of the
        // nodes' spans and fill the spans back to front: siblings land in id
        // order, and each end is moved back to its node's start. The extra
        // last entry counts nothing, so it ends as the child total.
        let num_nodes = depth.len();
        let mut children_start = vec![0u32; num_nodes + 1];
        for &up in &parent[1..] {
            children_start[up as usize] += 1;
        }
        let mut end = 0;
        for slot in &mut children_start {
            end += *slot;
            *slot = end;
        }
        let mut child_letters = vec![0u8; num_nodes - 1];
        let mut child_nodes = vec![0u32; num_nodes - 1];
        for child in (1..num_nodes).rev() {
            let up = parent[child] as usize;
            children_start[up] -= 1;
            let slot = children_start[up] as usize;
            child_nodes[slot] = child as u32;
            child_letters[slot] = labels
                .letter(leaf_lo[child] as usize, depth[up] as usize)
                .unwrap_or(NO_LETTER);
        }
        CompactedTrie {
            depth: depth.into(),
            leaf_lo: leaf_lo.into(),
            leaf_hi: leaf_hi.into(),
            children_start: children_start.into(),
            child_letters: child_letters.into(),
            child_nodes: child_nodes.into(),
            num_leaves,
        }
    }

    /// Number of strings (leaves may be fewer nodes than strings only if the
    /// collection was empty).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Total number of nodes (internal + leaves).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.depth.len()
    }

    /// String depth of a node.
    #[inline]
    pub fn depth(&self, node: u32) -> usize {
        self.depth[node as usize] as usize
    }

    /// Half-open range of sorted leaf indices under `node`.
    #[inline]
    pub fn leaf_range(&self, node: u32) -> (u32, u32) {
        (self.leaf_lo[node as usize], self.leaf_hi[node as usize])
    }

    /// The half-open child-table range of `node`.
    #[inline]
    fn child_span(&self, node: u32) -> (usize, usize) {
        let node = node as usize;
        (
            self.children_start[node] as usize,
            self.children_start[node + 1] as usize,
        )
    }

    /// Children of `node` as `(first edge letter, child id)` pairs.
    #[inline]
    pub fn children(&self, node: u32) -> impl Iterator<Item = (u8, u32)> + '_ {
        let (start, end) = self.child_span(node);
        self.child_letters[start..end]
            .iter()
            .zip(&self.child_nodes[start..end])
            .map(|(&letter, &child)| (letter, child))
    }

    /// Descends `pattern` from the root, returning the range of leaves whose
    /// strings have `pattern` as a prefix (or `None` if no string does).
    ///
    /// Runs in `O(|pattern| + σ·(tree depth))` label accesses.
    pub fn descend<L: LabelProvider>(&self, pattern: &[u8], labels: &L) -> Option<Descent> {
        let mut node = 0;
        let mut matched = 0usize;
        loop {
            if matched == pattern.len() {
                let (lo, hi) = self.leaf_range(node);
                return Some(Descent {
                    node,
                    leaves: (lo, hi),
                });
            }
            // Pick the child whose edge starts with the next pattern letter.
            let next_letter = pattern[matched];
            let (start, end) = self.child_span(node);
            let child = self.child_letters[start..end]
                .iter()
                .position(|&first| first == next_letter)
                .map(|slot| self.child_nodes[start + slot])?;
            // Match along the edge using the labels of the child's first leaf.
            let child_depth = self.depth[child as usize] as usize;
            let leaf = self.leaf_lo[child as usize] as usize;
            while matched < pattern.len() && matched < child_depth {
                match labels.letter(leaf, matched) {
                    Some(c) if c == pattern[matched] => matched += 1,
                    _ => return None,
                }
            }
            node = child;
        }
    }

    /// Heap bytes owned by this trie itself. Arena-backed views count as
    /// zero here: the single arena allocation is accounted once, by the
    /// structure that retains the [`ius_arena::Arena`] handle.
    pub fn memory_bytes(&self) -> usize {
        self.depth.heap_bytes()
            + self.leaf_lo.heap_bytes()
            + self.leaf_hi.heap_bytes()
            + self.children_start.heap_bytes()
            + self.child_letters.heap_bytes()
            + self.child_nodes.heap_bytes()
    }

    /// Exports the trie as its flat representation (see [`TrieParts`]).
    /// The internal storage already is the flat layout, so this clones the
    /// arrays (a reference-count bump each for arena-backed views).
    pub fn to_parts(&self) -> TrieParts {
        TrieParts {
            depth: self.depth.clone(),
            leaf_lo: self.leaf_lo.clone(),
            leaf_hi: self.leaf_hi.clone(),
            children_start: self.children_start.clone(),
            child_letters: self.child_letters.clone(),
            child_nodes: self.child_nodes.clone(),
            num_leaves: self.num_leaves as u64,
        }
    }

    /// The flat representation, borrowed: what a writer reads, no copy.
    pub fn parts(&self) -> TrieParts<&[u32], &[u8]> {
        TrieParts {
            depth: &self.depth,
            leaf_lo: &self.leaf_lo,
            leaf_hi: &self.leaf_hi,
            children_start: &self.children_start,
            child_letters: &self.child_letters,
            child_nodes: &self.child_nodes,
            num_leaves: self.num_leaves as u64,
        }
    }

    /// Reassembles a trie from its flat representation — the inverse of
    /// [`CompactedTrie::to_parts`], in `O(nodes + children)` time (no
    /// construction is re-run).
    ///
    /// Whatever passes makes [`CompactedTrie::descend`] terminate without
    /// a panic: every edge leads deeper, or to a childless node at its
    /// parent's depth (a duplicate string), and every child's leaf range
    /// is non-empty and inside its parent's.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency (length
    /// mismatches, child offsets that do not run from 0 up to the child
    /// count, out-of-range node ids or leaf ranges, an edge that does not
    /// lead deeper, or a child's leaf range that is empty or outside its
    /// parent's).
    pub fn from_parts(parts: TrieParts) -> Result<Self, String> {
        let n = parts.depth.len();
        if parts.leaf_lo.len() != n || parts.leaf_hi.len() != n {
            return Err("trie node arrays have inconsistent lengths".into());
        }
        if parts.children_start.len() != n + 1 {
            return Err(format!(
                "trie has {} child offsets for {n} nodes (one per node, then the total)",
                parts.children_start.len()
            ));
        }
        if parts.child_letters.len() != parts.child_nodes.len() {
            return Err("trie child arrays have inconsistent lengths".into());
        }
        if n == 0 {
            return Err("a trie always has at least a root node".into());
        }
        // Structural validation over millions of nodes: phrased as whole-
        // array reduction scans (no early exit, little per-node branching)
        // so an arena open stays cheap; the failing node is located by a
        // second pass only on the error path.
        let starts = &*parts.children_start;
        let offsets_rise = starts.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1]));
        if starts[0] != 0 || !offsets_rise || starts[n] as usize != parts.child_nodes.len() {
            return Err(format!(
                "trie child offsets must rise from 0 to the child count {}",
                parts.child_nodes.len()
            ));
        }
        let ranges_ok = parts
            .leaf_lo
            .iter()
            .zip(&*parts.leaf_hi)
            .fold(true, |ok, (&lo, &hi)| {
                ok & (lo <= hi) & (u64::from(hi) <= parts.num_leaves)
            });
        if !ranges_ok {
            let i = (0..n)
                .find(|&i| {
                    parts.leaf_lo[i] > parts.leaf_hi[i]
                        || u64::from(parts.leaf_hi[i]) > parts.num_leaves
                })
                .unwrap_or(0);
            return Err(format!("leaf range of node {i} out of bounds"));
        }
        let max_child = parts.child_nodes.iter().fold(0, |m: u32, &c| m.max(c));
        if !parts.child_nodes.is_empty() && max_child as usize >= n {
            return Err("child table references a node out of range".into());
        }
        // Each edge leads deeper (or to a childless duplicate at the same
        // depth) and to a non-empty leaf range inside its parent's. The
        // edges are walked parent by parent, each parent's children being
        // its slice of the child table (the offsets rise, checked above).
        let (depth, lo, hi) = (&*parts.depth, &*parts.leaf_lo, &*parts.leaf_hi);
        let children = |up: usize| {
            let slots = starts[up] as usize..starts[up + 1] as usize;
            parts.child_nodes[slots].iter().map(|&child| child as usize)
        };
        let deeper = |up: usize, child: usize| {
            let childless = starts[child] == starts[child + 1];
            (depth[child] > depth[up]) | ((depth[child] == depth[up]) & childless)
        };
        let inside = |up: usize, child: usize| {
            (lo[up] <= lo[child]) & (lo[child] < hi[child]) & (hi[child] <= hi[up])
        };
        let edge_ok = |up: usize, child: usize| deeper(up, child) & inside(up, child);
        let mut edges_ok = true;
        for up in 0..n {
            for child in children(up) {
                edges_ok &= edge_ok(up, child);
            }
        }
        if !edges_ok {
            let (up, child) = (0..n)
                .flat_map(|up| children(up).map(move |child| (up, child)))
                .find(|&(up, child)| !edge_ok(up, child))
                .unwrap_or((0, 0));
            let fault = if deeper(up, child) {
                "has a leaf range empty or outside its parent's"
            } else {
                "is not deeper than its parent"
            };
            return Err(format!("trie node {child}, a child of node {up}, {fault}"));
        }
        Ok(Self {
            depth: parts.depth,
            leaf_lo: parts.leaf_lo,
            leaf_hi: parts.leaf_hi,
            children_start: parts.children_start,
            child_letters: parts.child_letters,
            child_nodes: parts.child_nodes,
            num_leaves: parts.num_leaves as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcp::lcp_of;

    /// A [`LabelProvider`] for strings that are fragments of one backing text.
    struct SliceLabels<'a> {
        text: &'a [u8],
        /// `(start, length)` of each sorted string within `text`.
        fragments: Vec<(u32, u32)>,
    }

    impl<'a> SliceLabels<'a> {
        /// Creates a provider for the given fragments (already in sorted
        /// string order).
        fn new(text: &'a [u8], fragments: Vec<(u32, u32)>) -> Self {
            Self { text, fragments }
        }
    }

    impl LabelProvider for SliceLabels<'_> {
        fn letter(&self, leaf: usize, depth: usize) -> Option<u8> {
            let (start, len) = self.fragments[leaf];
            (depth < len as usize).then(|| self.text[start as usize + depth])
        }

        fn len(&self, leaf: usize) -> usize {
            self.fragments[leaf].1 as usize
        }
    }

    /// Builds a trie from explicit strings (sorting them first); returns the
    /// trie, the provider text and sorted strings for reference.
    fn build_from_strings(strings: &[&[u8]]) -> (CompactedTrie, Vec<u8>, Vec<Vec<u8>>) {
        let mut sorted: Vec<Vec<u8>> = strings.iter().map(|s| s.to_vec()).collect();
        sorted.sort();
        let mut text = Vec::new();
        let mut fragments = Vec::new();
        for s in &sorted {
            fragments.push((text.len() as u32, s.len() as u32));
            text.extend_from_slice(s);
        }
        let mut lcps = vec![0u32; sorted.len()];
        for i in 1..sorted.len() {
            lcps[i] = lcp_of(&sorted[i - 1], &sorted[i]) as u32;
        }
        let trie = CompactedTrie::build(&lcps, &SliceLabels::new(&text, fragments));
        (trie, text, sorted)
    }

    fn descend_leaves(
        trie: &CompactedTrie,
        text: &[u8],
        sorted: &[Vec<u8>],
        pattern: &[u8],
    ) -> Vec<usize> {
        let mut fragments = Vec::new();
        let mut offset = 0u32;
        for s in sorted {
            fragments.push((offset, s.len() as u32));
            offset += s.len() as u32;
        }
        let labels = SliceLabels::new(text, fragments);
        match trie.descend(pattern, &labels) {
            Some(d) => (d.leaves.0..d.leaves.1).map(|x| x as usize).collect(),
            None => Vec::new(),
        }
    }

    #[test]
    fn single_string() {
        let (trie, text, sorted) = build_from_strings(&[b"GATTACA"]);
        assert_eq!(trie.num_leaves(), 1);
        assert_eq!(descend_leaves(&trie, &text, &sorted, b"GAT"), vec![0]);
        assert_eq!(descend_leaves(&trie, &text, &sorted, b"GATTACA"), vec![0]);
        assert!(descend_leaves(&trie, &text, &sorted, b"GATTACAA").is_empty());
        assert!(descend_leaves(&trie, &text, &sorted, b"T").is_empty());
    }

    #[test]
    fn suffixes_of_banana() {
        let strings: Vec<&[u8]> = vec![b"banana", b"anana", b"nana", b"ana", b"na", b"a"];
        let (trie, text, sorted) = build_from_strings(&strings);
        assert_eq!(trie.num_leaves(), 6);
        // Every leaf string with prefix "an": ana, anana → sorted indices.
        let hits = descend_leaves(&trie, &text, &sorted, b"an");
        let expected: Vec<usize> = sorted
            .iter()
            .enumerate()
            .filter(|(_, s)| s.starts_with(b"an"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits, expected);
        // "n" matches nana, na.
        let hits = descend_leaves(&trie, &text, &sorted, b"n");
        assert_eq!(hits.len(), 2);
        // Nodes of a compacted trie over k strings: at most 2k.
        assert!(trie.num_nodes() <= 2 * 6 + 1);
    }

    #[test]
    fn duplicates_and_prefix_strings() {
        let strings: Vec<&[u8]> = vec![b"ab", b"ab", b"abc", b"a", b"b"];
        let (trie, text, sorted) = build_from_strings(&strings);
        assert_eq!(trie.num_leaves(), 5);
        // "ab" is a prefix of ab, ab, abc.
        assert_eq!(descend_leaves(&trie, &text, &sorted, b"ab").len(), 3);
        // "a" is a prefix of a, ab, ab, abc.
        assert_eq!(descend_leaves(&trie, &text, &sorted, b"a").len(), 4);
        assert_eq!(descend_leaves(&trie, &text, &sorted, b"b").len(), 1);
        assert_eq!(descend_leaves(&trie, &text, &sorted, b"").len(), 5);
        assert!(descend_leaves(&trie, &text, &sorted, b"abd").is_empty());
    }

    #[test]
    fn randomised_against_bruteforce() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..60 {
            let count = rng.gen_range(1..40usize);
            let mut strings: Vec<Vec<u8>> = (0..count)
                .map(|_| {
                    let len = rng.gen_range(1..12usize);
                    (0..len).map(|_| rng.gen_range(0..3u8)).collect()
                })
                .collect();
            // Runs of equal strings (zero-length edges) and chains of
            // prefixes (leaves with children).
            for _ in 0..rng.gen_range(0..4usize) {
                let s = strings[rng.gen_range(0..count)].clone();
                for _ in 0..rng.gen_range(1..5usize) {
                    strings.push(s.clone());
                }
                for cut in 0..s.len() {
                    if rng.gen_bool(0.5) {
                        strings.push(s[..cut].to_vec());
                    }
                }
            }
            let refs: Vec<&[u8]> = strings.iter().map(|s| s.as_slice()).collect();
            let (trie, text, sorted) = build_from_strings(&refs);
            assert_eq!(trie.leaf_range(0), (0, sorted.len() as u32));
            for node in 0..trie.num_nodes() as u32 {
                // The children tile the node's leaves after its own string.
                let (lo, hi) = trie.leaf_range(node);
                let mut next = lo + u32::from(is_leaf(&trie, &sorted, node));
                let mut last_letter = None;
                for (letter, child) in trie.children(node) {
                    let (clo, chi) = trie.leaf_range(child);
                    assert_eq!(clo, next, "children of node {node} over {sorted:?}");
                    next = chi;
                    let edge = &sorted[clo as usize][trie.depth(node)..trie.depth(child)];
                    assert_eq!(edge.first().copied().unwrap_or(NO_LETTER), letter);
                    if !edge.is_empty() {
                        assert!(last_letter < Some(letter), "sibling letters of node {node}");
                        last_letter = Some(letter);
                    }
                }
                assert_eq!(next, hi, "children of node {node} over {sorted:?}");
            }
            for _ in 0..30 {
                let len = rng.gen_range(0..6usize);
                let pattern: Vec<u8> = (0..len).map(|_| rng.gen_range(0..3u8)).collect();
                let got = descend_leaves(&trie, &text, &sorted, &pattern);
                let expected: Vec<usize> = sorted
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.starts_with(&pattern[..]))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(got, expected, "pattern {pattern:?} over {sorted:?}");
            }
        }
    }

    /// Is `node` the leaf of its first string? The root never is; any
    /// other node is exactly when its depth is that string's length.
    fn is_leaf(trie: &CompactedTrie, sorted: &[Vec<u8>], node: u32) -> bool {
        let (lo, _) = trie.leaf_range(node);
        node != 0 && trie.depth(node) == sorted[lo as usize].len()
    }

    #[test]
    fn a_node_may_have_any_number_of_children() {
        // Each copy of `ab` after the first hangs off the first by a
        // zero-length edge, and so does `abc`'s leaf: 70,000 children,
        // more than a `u16` count holds.
        let mut strings: Vec<&[u8]> = vec![b"ab"; 70_000];
        strings.push(b"abc");
        let (trie, text, sorted) = build_from_strings(&strings);
        let first_ab = trie.children(0).next().unwrap().1;
        assert_eq!(trie.children(first_ab).count(), 70_000);
        for pattern in [&b""[..], b"a", b"ab", b"abc", b"abcd", b"abd", b"b"] {
            let expected: Vec<usize> = sorted
                .iter()
                .enumerate()
                .filter(|(_, s)| s.starts_with(pattern))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                descend_leaves(&trie, &text, &sorted, pattern),
                expected,
                "pattern {pattern:?}"
            );
        }
        let rebuilt = CompactedTrie::from_parts(trie.to_parts()).unwrap();
        assert_eq!(rebuilt.to_parts(), trie.to_parts());
    }

    #[test]
    fn parts_round_trip_preserves_descents() {
        let strings: Vec<&[u8]> = vec![b"banana", b"anana", b"nana", b"ana", b"na", b"a"];
        let (trie, text, sorted) = build_from_strings(&strings);
        let rebuilt = CompactedTrie::from_parts(trie.to_parts()).unwrap();
        assert_eq!(rebuilt.num_nodes(), trie.num_nodes());
        assert_eq!(rebuilt.num_leaves(), trie.num_leaves());
        for pattern in [&b"an"[..], b"na", b"banana", b"x", b""] {
            assert_eq!(
                descend_leaves(&rebuilt, &text, &sorted, pattern),
                descend_leaves(&trie, &text, &sorted, pattern),
                "pattern {pattern:?}"
            );
        }
        // The round trip is exact.
        assert_eq!(rebuilt.to_parts(), trie.to_parts());
    }

    /// Applies `mutate` to an owned copy of one `u32` parts array.
    fn tweak(
        values: &ius_arena::ArenaVec<u32>,
        mutate: impl FnOnce(&mut Vec<u32>),
    ) -> ius_arena::ArenaVec<u32> {
        let mut v = values.to_vec();
        mutate(&mut v);
        v.into()
    }

    #[test]
    fn from_parts_rejects_corrupted_input() {
        let (trie, _, _) = build_from_strings(&[b"ab", b"ba"]);
        let good = trie.to_parts();
        let mut bad = good.clone();
        bad.leaf_lo = tweak(&bad.leaf_lo, |v| {
            v.pop();
        });
        assert!(CompactedTrie::from_parts(bad).is_err());
        let mut bad = good.clone();
        bad.child_nodes = tweak(&bad.child_nodes, |v| v[0] = u32::MAX);
        assert!(CompactedTrie::from_parts(bad).is_err());
        // Leaf ranges must stay inside the string count.
        let mut bad = good.clone();
        bad.leaf_lo = tweak(&bad.leaf_lo, |v| v[0] = 1_000_000_000);
        bad.leaf_hi = tweak(&bad.leaf_hi, |v| v[0] = 1_000_000_001);
        assert!(CompactedTrie::from_parts(bad).is_err());
        let mut bad = good.clone();
        bad.leaf_hi = tweak(&bad.leaf_hi, |v| v[0] = 0);
        bad.leaf_lo = tweak(&bad.leaf_lo, |v| v[0] = 1);
        assert!(CompactedTrie::from_parts(bad).is_err());
        let mut bad = good;
        bad.children_start = tweak(&bad.children_start, |v| v[0] = u32::MAX);
        assert!(CompactedTrie::from_parts(bad).is_err());
    }

    /// `from_parts` on `good` with one array edited must fail naming
    /// `expected`.
    fn refused(good: &TrieParts, edit: impl FnOnce(&mut TrieParts), expected: &str) {
        let mut bad = good.clone();
        edit(&mut bad);
        let err = CompactedTrie::from_parts(bad).expect_err(expected);
        assert!(err.contains(expected), "{err}");
    }

    /// Child offsets must start at 0, never decrease and end at the child
    /// count; one offset too few or too many is refused too.
    #[test]
    fn from_parts_refuses_malformed_child_offsets() {
        let (trie, _, _) = build_from_strings(&[b"ab", b"abc", b"b"]);
        let good = trie.to_parts();
        assert!(good.children_start.len() > 3);
        let rise = "child offsets must rise from 0 to the child count";
        refused(
            &good,
            |p| p.children_start = tweak(&p.children_start, |v| v[0] = 1),
            rise,
        );
        refused(
            &good,
            |p| p.children_start = tweak(&p.children_start, |v| v.swap(1, 2)),
            rise,
        );
        refused(
            &good,
            |p| p.children_start = tweak(&p.children_start, |v| *v.last_mut().unwrap() -= 1),
            rise,
        );
        refused(
            &good,
            |p| {
                p.children_start = tweak(&p.children_start, |v| {
                    v.pop();
                })
            },
            "child offsets for",
        );
        refused(
            &good,
            |p| p.children_start = tweak(&p.children_start, |v| v.push(v[v.len() - 1])),
            "child offsets for",
        );
    }

    /// A child entry that points a node back at itself would make
    /// `descend` loop forever; one that points at a shallower node, or at
    /// a node with children at its parent's depth, could close a cycle.
    /// All are refused; a childless duplicate at its parent's depth is not.
    #[test]
    fn from_parts_refuses_an_edge_that_does_not_lead_deeper() {
        let (trie, _, sorted) = build_from_strings(&[b"ab", b"ab", b"abc", b"b"]);
        let good = trie.to_parts();
        let not_deeper = "is not deeper than its parent";
        // The root's first child points back at the root.
        refused(
            &good,
            |p| p.child_nodes = tweak(&p.child_nodes, |v| v[0] = 0),
            not_deeper,
        );
        // A deeper node's child points at the root.
        let (up, slot) = (0..trie.num_nodes() as u32)
            .filter(|&node| node != 0)
            .find_map(|node| {
                (trie.children(node).count() > 0)
                    .then(|| (node, good.children_start[node as usize]))
            })
            .unwrap();
        assert!(trie.depth(up) > 0);
        refused(
            &good,
            |p| p.child_nodes = tweak(&p.child_nodes, |v| v[slot as usize] = 0),
            not_deeper,
        );
        // The duplicate `ab` hangs off the first at the same depth, and
        // passes: it has no children.
        let duplicate = trie
            .children(up)
            .map(|(_, child)| child)
            .find(|&child| trie.depth(child) == trie.depth(up))
            .expect("the second `ab` is a zero-length child");
        assert_eq!(sorted[trie.leaf_range(duplicate).0 as usize], b"ab");
        assert!(CompactedTrie::from_parts(good).is_ok());
    }

    /// A child whose leaf range is empty — `(num_leaves, num_leaves)`
    /// would make `descend` read a label past the end — or reaches outside
    /// its parent's range is refused.
    #[test]
    fn from_parts_refuses_a_child_leaf_range_outside_its_parent() {
        let (trie, _, _) = build_from_strings(&[b"ab", b"abc", b"b", b"ba"]);
        let good = trie.to_parts();
        let leaves = good.num_leaves as u32;
        let child = good.child_nodes[0] as usize;
        let outside = "has a leaf range empty or outside its parent's";
        let set_range = |p: &mut TrieParts, lo: u32, hi: u32| {
            p.leaf_lo = tweak(&p.leaf_lo, |v| v[child] = lo);
            p.leaf_hi = tweak(&p.leaf_hi, |v| v[child] = hi);
        };
        refused(&good, |p| set_range(p, leaves, leaves), outside);
        refused(&good, |p| set_range(p, 1, 1), outside);
        // A grandchild reaching past its parent's range.
        let (up, _) = (0..trie.num_nodes() as u32)
            .filter(|&node| node != 0)
            .find_map(|node| trie.children(node).next().map(|c| (node, c)))
            .unwrap();
        let (_, up_hi) = trie.leaf_range(up);
        assert!(up_hi < leaves);
        let grandchild = trie.children(up).last().unwrap().1 as usize;
        refused(
            &good,
            |p| p.leaf_hi = tweak(&p.leaf_hi, |v| v[grandchild] = up_hi + 1),
            outside,
        );
    }

    #[test]
    fn empty_collection() {
        let labels = SliceLabels::new(b"", Vec::new());
        let trie = CompactedTrie::build(&[], &labels);
        assert_eq!(trie.num_leaves(), 0);
        assert_eq!(trie.descend(b"a", &labels), None);
        assert!(trie.descend(b"", &labels).is_some());
    }

    #[test]
    fn leaf_ranges_are_consistent() {
        let strings: Vec<&[u8]> = vec![b"aa", b"ab", b"abb", b"ba", b"bb", b"bba"];
        let (trie, _text, sorted) = build_from_strings(&strings);
        // Root covers everything.
        assert_eq!(trie.leaf_range(0), (0, 6));
        // Every node's range is contained in its parent's and children
        // partition (or at least tile) the parent range.
        for node in 0..trie.num_nodes() as u32 {
            let (lo, hi) = trie.leaf_range(node);
            assert!(lo <= hi);
            let mut covered: u32 = 0;
            for (_, child) in trie.children(node) {
                let (clo, chi) = trie.leaf_range(child);
                assert!(clo >= lo && chi <= hi);
                covered += chi - clo;
            }
            if trie.children(node).count() > 0 && !is_leaf(&trie, &sorted, node) {
                assert_eq!(covered, hi - lo, "children must tile node {node}");
            }
        }
    }
}
