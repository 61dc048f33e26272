//! Compacted tries over implicitly labelled string sets.
//!
//! A [`CompactedTrie`] is the compacted trie (Patricia trie) of a
//! lexicographically sorted collection of strings. Crucially, the trie does
//! **not** store its edge labels: all label accesses go through a
//! [`LabelProvider`], so the very same structure serves
//!
//! * the classic weighted suffix tree, whose labels are fragments of the
//!   concatenated z-estimation (provided by [`SliceLabels`]), and
//! * the minimizer solid factor trees of the paper, whose labels are
//!   reconstructed from the heavy string plus at most `log₂ z` stored
//!   mismatches per factor (Corollary 4) — the `O(log z)`-bits-per-edge
//!   encoding that makes the index small.
//!
//! Construction takes the sorted strings' lengths and the LCP values of
//! neighbouring strings; it is the standard stack-based suffix-array-to-tree
//! algorithm and runs in linear time in the number of strings.

/// Access to the letters of the sorted strings underlying a trie.
pub trait LabelProvider {
    /// The letter at depth `depth` (0-based from the string start) of the
    /// `leaf`-th string in sorted order, or `None` past its end.
    fn letter(&self, leaf: usize, depth: usize) -> Option<u8>;

    /// Length of the `leaf`-th string.
    fn len(&self, leaf: usize) -> usize;
}

/// A [`LabelProvider`] for strings that are fragments of one backing text.
#[derive(Debug, Clone)]
pub struct SliceLabels<'a> {
    text: &'a [u8],
    /// `(start, length)` of each sorted string within `text`.
    fragments: Vec<(u32, u32)>,
}

impl<'a> SliceLabels<'a> {
    /// Creates a provider for the given fragments (already in sorted string
    /// order).
    pub fn new(text: &'a [u8], fragments: Vec<(u32, u32)>) -> Self {
        Self { text, fragments }
    }

    /// The fragments backing each sorted string.
    pub fn fragments(&self) -> &[(u32, u32)] {
        &self.fragments
    }
}

impl LabelProvider for SliceLabels<'_> {
    #[inline]
    fn letter(&self, leaf: usize, depth: usize) -> Option<u8> {
        let (start, len) = self.fragments[leaf];
        if depth < len as usize {
            Some(self.text[start as usize + depth])
        } else {
            None
        }
    }

    #[inline]
    fn len(&self, leaf: usize) -> usize {
        self.fragments[leaf].1 as usize
    }
}

use ius_arena::ArenaVec;

/// Sentinel "first letter" for zero-length edges (duplicate strings).
const NO_LETTER: u8 = u8::MAX;

/// One node of a compacted trie — a construction-time temporary; the built
/// trie stores nodes as a struct of flat arrays (see [`CompactedTrie`]).
#[derive(Debug, Clone)]
struct Node {
    /// String depth: number of letters on the root-to-node path.
    depth: u32,
    /// Half-open range of sorted leaf indices below this node.
    leaf_lo: u32,
    leaf_hi: u32,
    /// `true` if the node is a leaf (corresponds to exactly one sorted string).
    is_leaf: bool,
}

/// The flat (struct-of-arrays) representation of a [`CompactedTrie`], used by
/// the persistence layer to save a trie without re-running the stack-based
/// construction on load. All vectors describing nodes have one entry per
/// node; `child_letters`/`child_nodes` hold the flattened child table in the
/// same grouping [`CompactedTrie::children`] exposes. Each array is an
/// [`ArenaVec`], so the parts can either own their storage (a fresh build,
/// a bit-packed section) or borrow it zero-copy from a persisted arena.
#[derive(Debug, Clone, PartialEq)]
pub struct TrieParts {
    /// String depth per node.
    pub depth: ArenaVec<u32>,
    /// Lower end (inclusive) of each node's sorted-leaf range.
    pub leaf_lo: ArenaVec<u32>,
    /// Upper end (exclusive) of each node's sorted-leaf range.
    pub leaf_hi: ArenaVec<u32>,
    /// Start of each node's children in the flattened child table.
    pub children_start: ArenaVec<u32>,
    /// Number of children per node.
    pub children_len: ArenaVec<u16>,
    /// Leaf flag per node (`1` for leaves, `0` otherwise).
    pub is_leaf: ArenaVec<u8>,
    /// First edge letter per flattened child entry.
    pub child_letters: ArenaVec<u8>,
    /// Child node id per flattened child entry.
    pub child_nodes: ArenaVec<u32>,
    /// The root node id.
    pub root: u32,
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
    children_start: ArenaVec<u32>,
    children_len: ArenaVec<u16>,
    is_leaf: ArenaVec<u8>,
    /// First edge letter per flattened child entry, grouped per node.
    child_letters: ArenaVec<u8>,
    /// Child node id per flattened child entry, grouped per node.
    child_nodes: ArenaVec<u32>,
    root: u32,
    num_leaves: usize,
}

impl CompactedTrie {
    /// Builds the compacted trie of `num_leaves` sorted strings.
    ///
    /// * `lengths[i]` — length of the `i`-th string;
    /// * `lcps[i]` — LCP of strings `i-1` and `i` (`lcps[0]` is ignored);
    /// * `labels` — label access used to record the first letter of each edge.
    ///
    /// # Panics
    ///
    /// Panics if the inputs have inconsistent lengths or LCP values exceed
    /// the string lengths.
    pub fn build<L: LabelProvider>(lengths: &[usize], lcps: &[usize], labels: &L) -> Self {
        let num_leaves = lengths.len();
        assert_eq!(
            lcps.len(),
            num_leaves,
            "lcps must have one entry per string"
        );
        let mut nodes: Vec<Node> = Vec::with_capacity(2 * num_leaves.max(1));
        // Temporary children lists; flattened at the end.
        let mut temp_children: Vec<Vec<u32>> = Vec::with_capacity(2 * num_leaves.max(1));
        let new_node = |nodes: &mut Vec<Node>,
                        temp_children: &mut Vec<Vec<u32>>,
                        depth: u32,
                        leaf_lo: u32,
                        is_leaf: bool|
         -> u32 {
            let id = nodes.len() as u32;
            nodes.push(Node {
                depth,
                leaf_lo,
                leaf_hi: leaf_lo,
                is_leaf,
            });
            temp_children.push(Vec::new());
            id
        };

        let root = new_node(&mut nodes, &mut temp_children, 0, 0, false);
        // Stack of the rightmost path: node ids with strictly increasing depth.
        let mut stack: Vec<u32> = vec![root];

        for i in 0..num_leaves {
            let len = lengths[i];
            let lcp = if i == 0 { 0 } else { lcps[i] };
            if i > 0 {
                assert!(
                    lcp <= len && lcp <= lengths[i - 1],
                    "lcp[{i}] = {lcp} exceeds a neighbouring string length"
                );
            }
            // Pop nodes deeper than the LCP.
            let mut last_popped: Option<u32> = None;
            while nodes[*stack.last().expect("stack never empty") as usize].depth > lcp as u32 {
                last_popped = stack.pop();
            }
            let top = *stack.last().expect("stack never empty");
            let branch = if nodes[top as usize].depth == lcp as u32 {
                top
            } else {
                // Split: create an internal node at depth `lcp` between `top`
                // and `last_popped`.
                let popped = last_popped.expect("a node deeper than lcp was popped");
                let popped_leaf_lo = nodes[popped as usize].leaf_lo;
                let split = new_node(
                    &mut nodes,
                    &mut temp_children,
                    lcp as u32,
                    popped_leaf_lo,
                    false,
                );
                // Replace `popped` with `split` among `top`'s children.
                let top_children = &mut temp_children[top as usize];
                let slot = top_children
                    .iter()
                    .position(|&c| c == popped)
                    .expect("popped node must be a child of the stack top");
                top_children[slot] = split;
                temp_children[split as usize].push(popped);
                stack.push(split);
                split
            };
            // Attach the new leaf.
            let leaf = new_node(&mut nodes, &mut temp_children, len as u32, i as u32, true);
            nodes[leaf as usize].leaf_hi = i as u32 + 1;
            temp_children[branch as usize].push(leaf);
            if len as u32 > nodes[branch as usize].depth {
                stack.push(leaf);
            }
        }

        // Propagate leaf ranges bottom-up (nodes are created before their
        // descendants except for split nodes, so do an explicit traversal).
        Self::finish(nodes, temp_children, root, num_leaves, labels)
    }

    /// Flattens children, fills leaf ranges, records edge first letters and
    /// packs the temporary node structs into the flat-array layout.
    fn finish<L: LabelProvider>(
        mut nodes: Vec<Node>,
        temp_children: Vec<Vec<u32>>,
        root: u32,
        num_leaves: usize,
        labels: &L,
    ) -> Self {
        // Iterative post-order to compute leaf ranges.
        let mut order: Vec<u32> = Vec::with_capacity(nodes.len());
        let mut stack: Vec<u32> = vec![root];
        while let Some(node) = stack.pop() {
            order.push(node);
            for &c in &temp_children[node as usize] {
                stack.push(c);
            }
        }
        for &node in order.iter().rev() {
            if !temp_children[node as usize].is_empty() {
                let lo = temp_children[node as usize]
                    .iter()
                    .map(|&c| nodes[c as usize].leaf_lo)
                    .min()
                    .expect("non-empty");
                let hi = temp_children[node as usize]
                    .iter()
                    .map(|&c| nodes[c as usize].leaf_hi)
                    .max()
                    .expect("non-empty");
                let n = &mut nodes[node as usize];
                n.leaf_lo = n.leaf_lo.min(lo);
                n.leaf_hi = n.leaf_hi.max(hi);
            }
        }
        // Pack into the flat arrays, flattening each node's children in
        // order (they are produced in lexicographic order already; the
        // explicit first letters keep zero-length duplicate edges robust).
        let children_total: usize = temp_children.iter().map(Vec::len).sum();
        let mut child_letters: Vec<u8> = Vec::with_capacity(children_total);
        let mut child_nodes: Vec<u32> = Vec::with_capacity(children_total);
        let mut children_start: Vec<u32> = Vec::with_capacity(nodes.len());
        let mut children_len: Vec<u16> = Vec::with_capacity(nodes.len());
        for (node, kids) in temp_children.iter().enumerate() {
            let depth = nodes[node].depth as usize;
            children_start.push(child_letters.len() as u32);
            children_len.push(kids.len() as u16);
            for &c in kids {
                let child = &nodes[c as usize];
                let first = labels
                    .letter(child.leaf_lo as usize, depth)
                    .unwrap_or(NO_LETTER);
                child_letters.push(first);
                child_nodes.push(c);
            }
        }
        CompactedTrie {
            depth: nodes.iter().map(|n| n.depth).collect::<Vec<_>>().into(),
            leaf_lo: nodes.iter().map(|n| n.leaf_lo).collect::<Vec<_>>().into(),
            leaf_hi: nodes.iter().map(|n| n.leaf_hi).collect::<Vec<_>>().into(),
            children_start: children_start.into(),
            children_len: children_len.into(),
            is_leaf: nodes
                .iter()
                .map(|n| u8::from(n.is_leaf))
                .collect::<Vec<_>>()
                .into(),
            child_letters: child_letters.into(),
            child_nodes: child_nodes.into(),
            root,
            num_leaves,
        }
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
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
        let start = self.children_start[node as usize] as usize;
        (start, start + self.children_len[node as usize] as usize)
    }

    /// Number of children of `node`.
    #[inline]
    pub fn num_children(&self, node: u32) -> usize {
        self.children_len[node as usize] as usize
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

    /// `true` iff `node` is a leaf.
    #[inline]
    pub fn is_leaf(&self, node: u32) -> bool {
        self.is_leaf[node as usize] == 1
    }

    /// Descends `pattern` from the root, returning the range of leaves whose
    /// strings have `pattern` as a prefix (or `None` if no string does).
    ///
    /// Runs in `O(|pattern| + σ·(tree depth))` label accesses.
    pub fn descend<L: LabelProvider>(&self, pattern: &[u8], labels: &L) -> Option<Descent> {
        let mut node = self.root;
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
            + self.children_len.heap_bytes()
            + self.is_leaf.heap_bytes()
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
            children_len: self.children_len.clone(),
            is_leaf: self.is_leaf.clone(),
            child_letters: self.child_letters.clone(),
            child_nodes: self.child_nodes.clone(),
            root: self.root,
            num_leaves: self.num_leaves as u64,
        }
    }

    /// Reassembles a trie from its flat representation — the inverse of
    /// [`CompactedTrie::to_parts`], in `O(nodes + children)` time (no
    /// construction is re-run).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency (length
    /// mismatches, out-of-range node ids, child tables out of bounds).
    pub fn from_parts(parts: TrieParts) -> Result<Self, String> {
        let n = parts.depth.len();
        if [
            parts.leaf_lo.len(),
            parts.leaf_hi.len(),
            parts.children_start.len(),
            parts.children_len.len(),
            parts.is_leaf.len(),
        ]
        .iter()
        .any(|&len| len != n)
        {
            return Err("trie node arrays have inconsistent lengths".into());
        }
        if parts.child_letters.len() != parts.child_nodes.len() {
            return Err("trie child arrays have inconsistent lengths".into());
        }
        if n == 0 {
            return Err("a trie always has at least a root node".into());
        }
        if parts.root as usize >= n {
            return Err(format!("root {} out of range ({n} nodes)", parts.root));
        }
        // Structural validation over millions of nodes: phrased as whole-
        // array reduction scans (no early exit, no per-node branching) so
        // they compile to SIMD and an arena open stays cheap; the failing
        // node is located by a second pass only on the error path.
        let children_total = parts.child_nodes.len() as u64;
        let worst_child_end = parts
            .children_start
            .iter()
            .zip(&*parts.children_len)
            .map(|(&start, &len)| u64::from(start) + u64::from(len))
            .fold(0, u64::max);
        if worst_child_end > children_total {
            let i = (0..n)
                .find(|&i| {
                    u64::from(parts.children_start[i]) + u64::from(parts.children_len[i])
                        > children_total
                })
                .unwrap_or(0);
            return Err(format!("child table of node {i} out of bounds"));
        }
        if parts.is_leaf.iter().fold(0, |acc, &f| acc | f) > 1 {
            let i = parts.is_leaf.iter().position(|&f| f > 1).unwrap_or(0);
            return Err(format!("node {i} has a non-boolean leaf flag"));
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
        Ok(Self {
            depth: parts.depth,
            leaf_lo: parts.leaf_lo,
            leaf_hi: parts.leaf_hi,
            children_start: parts.children_start,
            children_len: parts.children_len,
            is_leaf: parts.is_leaf,
            child_letters: parts.child_letters,
            child_nodes: parts.child_nodes,
            root: parts.root,
            num_leaves: parts.num_leaves as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcp::lcp_of;

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
        let lengths: Vec<usize> = sorted.iter().map(|s| s.len()).collect();
        let mut lcps = vec![0usize; sorted.len()];
        for i in 1..sorted.len() {
            lcps[i] = lcp_of(&sorted[i - 1], &sorted[i]);
        }
        // SliceLabels borrows text, so rebuild it inside the closure scope.
        let labels = SliceLabels::new(&text, fragments.clone());
        let trie = CompactedTrie::build(&lengths, &lcps, &labels);
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
        for _ in 0..30 {
            let count = rng.gen_range(1..40usize);
            let strings: Vec<Vec<u8>> = (0..count)
                .map(|_| {
                    let len = rng.gen_range(1..12usize);
                    (0..len).map(|_| rng.gen_range(0..3u8)).collect()
                })
                .collect();
            let refs: Vec<&[u8]> = strings.iter().map(|s| s.as_slice()).collect();
            let (trie, text, sorted) = build_from_strings(&refs);
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
        bad.root = 10_000;
        assert!(CompactedTrie::from_parts(bad).is_err());
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

    #[test]
    fn empty_collection() {
        let labels = SliceLabels::new(b"", Vec::new());
        let trie = CompactedTrie::build(&[], &[], &labels);
        assert_eq!(trie.num_leaves(), 0);
        assert_eq!(trie.descend(b"a", &labels), None);
        assert!(trie.descend(b"", &labels).is_some());
    }

    #[test]
    fn leaf_ranges_are_consistent() {
        let strings: Vec<&[u8]> = vec![b"aa", b"ab", b"abb", b"ba", b"bb", b"bba"];
        let (trie, _text, _sorted) = build_from_strings(&strings);
        // Root covers everything.
        assert_eq!(trie.leaf_range(trie.root()), (0, 6));
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
            if trie.num_children(node) > 0 && !trie.is_leaf(node) {
                assert_eq!(covered, hi - lo, "children must tile node {node}");
            }
        }
    }
}
