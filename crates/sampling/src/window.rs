//! Window-minimum structures used to compute minimizers.
//!
//! Two access patterns arise in the paper:
//!
//! * scanning a text left to right (index construction from an explicit
//!   z-estimation, query-time minimizer of a pattern) — served by the
//!   monotone-deque [`SlidingWindowMinimizer`] in `O(1)` amortised per
//!   position;
//! * growing and shrinking a string at one end during the DFS of the
//!   space-efficient construction (Section 4), where the window is always the
//!   last `ℓ − k + 1` k-mers pushed and not yet popped — served by
//!   [`StackWindowMinimizer`] in `O(log ℓ)` per update (the paper uses a heap;
//!   we use an ordered set, which gives the same bound).

use std::collections::{BTreeSet, VecDeque};

/// Monotone deque for leftmost-minimum queries over a sliding window of
/// keys. Keys are pushed left to right; the window is `[i - w + 1, i]` for a
/// caller-managed width.
#[derive(Debug, Clone, Default)]
pub struct SlidingWindowMinimizer {
    /// Indices with non-decreasing keys; front is the leftmost minimum.
    deque: VecDeque<(usize, u64)>,
}

impl SlidingWindowMinimizer {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty structure with room for `width` entries (the deque
    /// never holds more than one entry per window slot), avoiding regrowth
    /// during long scans.
    pub fn with_capacity(width: usize) -> Self {
        Self {
            deque: VecDeque::with_capacity(width),
        }
    }

    /// Pushes the key of position `index` (indices must be pushed in
    /// increasing order).
    pub fn push(&mut self, index: usize, key: u64) {
        // Strictly greater keys at the back can never be a *leftmost*
        // minimum once `key` is present.
        while matches!(self.deque.back(), Some(&(_, back)) if back > key) {
            self.deque.pop_back();
        }
        self.deque.push_back((index, key));
    }

    /// Drops entries with index `< lower_bound` (the window's left edge).
    pub fn retire(&mut self, lower_bound: usize) {
        while matches!(self.deque.front(), Some(&(idx, _)) if idx < lower_bound) {
            self.deque.pop_front();
        }
    }

    /// The index of the leftmost occurrence of the smallest key currently in
    /// the window, if any.
    #[inline]
    pub fn argmin(&self) -> Option<usize> {
        self.deque.front().map(|&(idx, _)| idx)
    }

    /// Clears the structure.
    pub fn clear(&mut self) {
        self.deque.clear();
    }
}

/// Window minimizer over a stack of k-mers: the window is always the last
/// `width` k-mers pushed and not yet popped (`width = ℓ - k + 1` for an
/// `(ℓ, k)`-minimizer scheme).
///
/// This is the access pattern of the DFS of the space-efficient construction
/// (Section 4), where the current string grows and shrinks at one end: the
/// forward pass pushes decreasing positions, the backward pass increasing
/// ones, and every pop undoes the matching push. Each update costs
/// `O(log ℓ)` (the paper uses a heap; an ordered set gives the same bound).
#[derive(Debug, Clone)]
pub struct StackWindowMinimizer {
    /// Number of k-mer slots in the window.
    width: usize,
    /// Every pushed and not yet popped `(key, position)`, in push order.
    stack: Vec<(u64, usize)>,
    /// The last `width` entries of `stack`, ordered for argmin queries.
    window: BTreeSet<(u64, usize)>,
}

impl StackWindowMinimizer {
    /// Creates a window over `width` k-mer positions.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "window width must be positive");
        Self {
            width,
            stack: Vec::new(),
            window: BTreeSet::new(),
        }
    }

    /// Pushes the k-mer starting at `position` with order key `key`; the
    /// k-mer pushed `width` pushes ago leaves the window. Positions inside
    /// one window must be distinct.
    pub fn push(&mut self, position: usize, key: u64) {
        self.stack.push((key, position));
        self.window.insert((key, position));
        if let Some(evicted) = self.stack.len().checked_sub(self.width + 1) {
            self.window.remove(&self.stack[evicted]);
        }
    }

    /// Pops the most recently pushed k-mer, restoring the window to its
    /// state before the matching [`StackWindowMinimizer::push`]. Returns
    /// the popped position, if any.
    pub fn pop(&mut self) -> Option<usize> {
        let top = self.stack.pop()?;
        self.window.remove(&top);
        if let Some(readmitted) = self.stack.len().checked_sub(self.width) {
            self.window.insert(self.stack[readmitted]);
        }
        Some(top.1)
    }

    /// The position of the smallest key in the window, ties going to the
    /// smallest position.
    #[inline]
    pub fn argmin(&self) -> Option<usize> {
        self.window.first().map(|&(_, position)| position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_leftmost_min(keys: &[(usize, u64)]) -> Option<usize> {
        keys.iter()
            .copied()
            .min_by_key(|&(p, k)| (k, p))
            .map(|(p, _)| p)
    }

    #[test]
    fn sliding_window_matches_bruteforce() {
        let keys: Vec<u64> = vec![5, 3, 9, 3, 7, 1, 4, 4, 8, 2, 6, 1, 1, 0, 9];
        for width in 1..=keys.len() {
            let mut sw = SlidingWindowMinimizer::new();
            for i in 0..keys.len() {
                sw.push(i, keys[i]);
                if i + 1 >= width {
                    let start = i + 1 - width;
                    sw.retire(start);
                    let window: Vec<(usize, u64)> = (start..=i).map(|j| (j, keys[j])).collect();
                    assert_eq!(sw.argmin(), brute_leftmost_min(&window), "w={width} i={i}");
                }
            }
        }
    }

    #[test]
    fn sliding_window_ties_pick_leftmost() {
        let mut sw = SlidingWindowMinimizer::new();
        sw.push(0, 7);
        sw.push(1, 7);
        sw.push(2, 7);
        sw.retire(0);
        assert_eq!(sw.argmin(), Some(0));
        sw.retire(1);
        assert_eq!(sw.argmin(), Some(1));
    }

    /// Drives a random push/pop sequence, with positions moving away from
    /// `origin` in the direction `step` on every push, and checks the
    /// argmin against the last `width` live entries after every update.
    fn check_stack_window_against_bruteforce(origin: usize, step: isize, seed: u64) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        for width in 1..=6 {
            let mut window = StackWindowMinimizer::new(width);
            let mut stack: Vec<(usize, u64)> = Vec::new();
            for _ in 0..400 {
                if stack.is_empty() || rng.gen_bool(0.6) {
                    let position = origin.checked_add_signed(step * stack.len() as isize);
                    let position = position.expect("positions stay in range");
                    let key = rng.gen_range(0..8) as u64;
                    stack.push((position, key));
                    window.push(position, key);
                } else {
                    let (position, _) = stack.pop().unwrap();
                    assert_eq!(window.pop(), Some(position));
                }
                let last: Vec<(usize, u64)> = stack.iter().rev().take(width).copied().collect();
                assert_eq!(window.argmin(), brute_leftmost_min(&last), "width {width}");
            }
        }
    }

    // "Front" windows are the forward pass's pattern (positions decrease as
    // letters are prepended), "back" windows the backward pass's (positions
    // increase); both are one `StackWindowMinimizer`.

    #[test]
    fn front_window_basic() {
        // Positions pushed in decreasing order: 9, 8, 7, ... with keys.
        let mut window = StackWindowMinimizer::new(3);
        window.push(9, 50);
        window.push(8, 20);
        window.push(7, 70);
        assert_eq!(window.argmin(), Some(8));
        // Adding position 6 evicts position 9.
        window.push(6, 60);
        assert_eq!(window.argmin(), Some(8));
        // Adding position 5 evicts position 8 → min over 7, 6 and 5.
        window.push(5, 65);
        assert_eq!(window.argmin(), Some(6));
        // Undo: removing 5 restores 8 into the window.
        assert_eq!(window.pop(), Some(5));
        assert_eq!(window.argmin(), Some(8));
        assert_eq!(window.pop(), Some(6));
        assert_eq!(window.argmin(), Some(8));
    }

    #[test]
    fn front_window_mirrors_stack_of_windows() {
        check_stack_window_against_bruteforce(1_000, -1, 3);
    }

    #[test]
    fn front_window_ties_pick_smallest_position() {
        let mut window = StackWindowMinimizer::new(4);
        for position in [30, 29, 28] {
            window.push(position, 5);
        }
        assert_eq!(window.argmin(), Some(28));
    }

    #[test]
    fn back_window_mirrors_stack_of_windows() {
        check_stack_window_against_bruteforce(0, 1, 17);
    }

    #[test]
    fn back_window_ties_pick_smallest_position() {
        let mut window = StackWindowMinimizer::new(4);
        for position in [10, 11, 12] {
            window.push(position, 5);
        }
        assert_eq!(window.argmin(), Some(10));
        // Evicting the tied minimum hands the window to the next smallest.
        for position in [13, 14] {
            window.push(position, 5);
        }
        assert_eq!(window.argmin(), Some(11));
        assert_eq!(window.pop(), Some(14));
        assert_eq!(window.argmin(), Some(10));
    }

    #[test]
    fn pop_from_empty_returns_none() {
        let mut window = StackWindowMinimizer::new(2);
        assert_eq!(window.pop(), None);
        assert_eq!(window.argmin(), None);
        window.push(7, 1);
        assert_eq!(window.pop(), Some(7));
        assert_eq!(window.pop(), None);
        assert_eq!(window.argmin(), None);
    }
}
