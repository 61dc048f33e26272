//! Suffix array construction.
//!
//! The default construction is **SA-IS** (Nong, Zhang & Chan: *Two Efficient
//! Algorithms for Linear Time Suffix Array Construction*): induced sorting of
//! LMS substrings with recursion on the reduced string — `O(n)` time and
//! `O(n)` space. [`suffix_array_naive`] — direct suffix sorting in
//! `O(n² log n)` — is its test oracle.
//!
//! Suffixes are compared as if the text were followed by a unique sentinel
//! smaller than every letter (the usual `$` convention), i.e. a proper prefix
//! sorts before any string it prefixes. Internally SA-IS materialises that
//! sentinel (letters are shifted up by one and a `0` is appended), so the
//! published array never contains it.

/// Marks an empty slot during induced sorting.
const EMPTY: u32 = u32::MAX;

/// Builds the suffix array of `text`: `sa[r]` is the starting position of the
/// `r`-th smallest suffix.
///
/// Runs in `O(n)` time via SA-IS.
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    let n = text.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![0];
    }
    // Shift letters by +1 and append the unique smallest sentinel 0.
    let mut s: Vec<u32> = Vec::with_capacity(n + 1);
    s.extend(text.iter().map(|&c| c as u32 + 1));
    s.push(0);
    let mut sa = vec![EMPTY; n + 1];
    sais(&s, 257, &mut sa);
    // sa[0] is the sentinel suffix; the callers' convention excludes it.
    sa[1..].to_vec()
}

/// The SA-IS recursion: `s` ends with a unique smallest sentinel `0` and its
/// letters lie in `[0, sigma)`; on return `sa` holds the suffix array of `s`
/// (sentinel suffix included).
fn sais(s: &[u32], sigma: usize, sa: &mut [u32]) {
    let n = s.len();
    debug_assert_eq!(n, sa.len());
    if n == 1 {
        sa[0] = 0;
        return;
    }
    if n == 2 {
        sa[0] = 1;
        sa[1] = 0;
        return;
    }

    // One reverse pass computes suffix types (S-type iff the suffix is
    // smaller than its right neighbour; the sentinel is S by definition),
    // letter counts and the LMS positions (collected in reverse text order).
    let mut is_s = vec![false; n];
    let mut counts = vec![0u32; sigma];
    let mut lms: Vec<u32> = Vec::new();
    is_s[n - 1] = true;
    counts[s[n - 1] as usize] += 1;
    for i in (0..n - 1).rev() {
        counts[s[i] as usize] += 1;
        let s_type = s[i] < s[i + 1] || (s[i] == s[i + 1] && is_s[i + 1]);
        if !s_type && is_s[i + 1] {
            lms.push(i as u32 + 1);
        }
        is_s[i] = s_type;
    }
    lms.reverse();
    let is_lms = |i: usize| i > 0 && is_s[i] && !is_s[i - 1];

    // Shared scratch for the bucket cursors of both induce rounds.
    let mut cursors = vec![0u32; sigma];

    // Pass 1: induce from the unsorted LMS set; this sorts the LMS
    // *substrings* (Nong et al., Theorem 3.12).
    induce(s, sa, &is_s, &counts, &lms, &mut cursors);

    // Name the LMS substrings in their now-sorted order. Two LMS positions
    // are never adjacent, so names are stored at `position / 2` in a
    // half-sized scratch array.
    let mut names = vec![EMPTY; n / 2 + 1];
    let mut name = 0u32;
    let mut prev: Option<usize> = None;
    for &p in sa.iter() {
        let p = p as usize;
        if !is_lms(p) {
            continue;
        }
        if let Some(q) = prev {
            if !lms_substrings_equal(s, &is_s, &is_lms, q, p) {
                name += 1;
            }
        }
        names[p / 2] = name;
        prev = Some(p);
    }
    let num_names = name as usize + 1;

    // The reduced string: LMS names in text order. It inherits the sentinel
    // convention (the sentinel's LMS substring is the unique smallest, so its
    // name is 0 and it sits last).
    let s1: Vec<u32> = lms.iter().map(|&p| names[p as usize / 2]).collect();
    drop(names);
    let mut sa1 = vec![EMPTY; s1.len()];
    if num_names == s1.len() {
        // All names distinct: the reduced suffix array is the inverse
        // permutation — no recursion needed.
        for (i, &nm) in s1.iter().enumerate() {
            sa1[nm as usize] = i as u32;
        }
    } else {
        sais(&s1, num_names, &mut sa1);
    }

    // Pass 2: induce from the fully sorted LMS suffixes (rewrite `sa1` into
    // absolute positions in place, reusing its allocation).
    let mut sorted_lms = sa1;
    for r in sorted_lms.iter_mut() {
        *r = lms[*r as usize];
    }
    induce(s, sa, &is_s, &counts, &sorted_lms, &mut cursors);
}

/// One round of induced sorting: seeds the given LMS positions (in the given
/// relative order) at their bucket tails, then induces L-suffixes left to
/// right and S-suffixes right to left. `cursors` is caller-provided scratch
/// of `counts.len()` slots.
fn induce(
    s: &[u32],
    sa: &mut [u32],
    is_s: &[bool],
    counts: &[u32],
    lms: &[u32],
    cursors: &mut [u32],
) {
    let n = s.len();
    sa.fill(EMPTY);

    // Seed LMS suffixes at bucket tails; reverse iteration keeps the given
    // order within each bucket.
    bucket_tails(counts, cursors);
    for &p in lms.iter().rev() {
        let c = s[p as usize] as usize;
        cursors[c] -= 1;
        sa[cursors[c] as usize] = p;
    }

    // L-pass (left to right, bucket heads).
    bucket_heads(counts, cursors);
    for i in 0..n {
        let p = sa[i];
        if p == EMPTY || p == 0 {
            continue;
        }
        let j = (p - 1) as usize;
        if !is_s[j] {
            let c = s[j] as usize;
            sa[cursors[c] as usize] = j as u32;
            cursors[c] += 1;
        }
    }

    // S-pass (right to left, bucket tails); overwrites the seeded LMS slots
    // with their final positions.
    bucket_tails(counts, cursors);
    for i in (0..n).rev() {
        let p = sa[i];
        if p == EMPTY || p == 0 {
            continue;
        }
        let j = (p - 1) as usize;
        if is_s[j] {
            let c = s[j] as usize;
            cursors[c] -= 1;
            sa[cursors[c] as usize] = j as u32;
        }
    }
}

fn bucket_heads(counts: &[u32], cursors: &mut [u32]) {
    let mut sum = 0u32;
    for (cursor, &c) in cursors.iter_mut().zip(counts) {
        *cursor = sum;
        sum += c;
    }
}

fn bucket_tails(counts: &[u32], cursors: &mut [u32]) {
    let mut sum = 0u32;
    for (cursor, &c) in cursors.iter_mut().zip(counts) {
        sum += c;
        *cursor = sum;
    }
}

/// Equality of the LMS substrings starting at `a` and `b` (letters *and*
/// types up to and including the next LMS position).
fn lms_substrings_equal(
    s: &[u32],
    is_s: &[bool],
    is_lms: &impl Fn(usize) -> bool,
    a: usize,
    b: usize,
) -> bool {
    if a == b {
        return true;
    }
    let n = s.len();
    // The sentinel substring is the unique occurrence of the letter 0.
    if a == n - 1 || b == n - 1 {
        return false;
    }
    let mut off = 0usize;
    loop {
        let (pa, pb) = (a + off, b + off);
        if s[pa] != s[pb] || is_s[pa] != is_s[pb] {
            return false;
        }
        if off > 0 && is_lms(pa) {
            // Both reached their closing LMS position simultaneously (types
            // matched above), so the substrings are identical.
            return true;
        }
        off += 1;
        // Walking past the sentinel is impossible: every LMS substring ends
        // at the next LMS position and the sentinel is one.
        debug_assert!(pa + 1 < n && pb + 1 < n);
    }
}

/// The inverse suffix array (`rank`): `rank[i]` is the position of suffix `i`
/// in the suffix array.
pub fn inverse_suffix_array(sa: &[u32]) -> Vec<u32> {
    let mut rank = vec![0u32; sa.len()];
    for (r, &s) in sa.iter().enumerate() {
        rank[s as usize] = r as u32;
    }
    rank
}

/// Naive `O(n² log n)` suffix array, for differential testing only.
pub fn suffix_array_naive(text: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_tiny() {
        for build in [suffix_array, suffix_array_naive] {
            assert!(build(b"").is_empty());
            assert_eq!(build(b"a"), vec![0]);
            assert_eq!(build(b"ba"), vec![1, 0]);
            assert_eq!(build(b"ab"), vec![0, 1]);
            assert_eq!(build(b"aa"), vec![1, 0]);
        }
    }

    #[test]
    fn banana() {
        // Classic example: suffixes of "banana" sorted: a, ana, anana, banana, na, nana.
        assert_eq!(suffix_array(b"banana"), vec![5, 3, 1, 0, 4, 2]);
        assert_eq!(suffix_array_naive(b"banana"), vec![5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn paper_figure2_text() {
        // Fig. 2 of the paper: suffix tree of CAGAGA$; the suffix array of
        // "CAGAGA" (without sentinel, ranks) sorted: A(5), AGA(3), AGAGA(1),
        // CAGAGA(0), GA(4), GAGA(2).
        assert_eq!(suffix_array(b"CAGAGA"), vec![5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn matches_naive_on_random_texts() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(123);
        for sigma in [1u8, 2, 4, 8, 91] {
            for len in [2usize, 3, 7, 50, 257, 1000] {
                let text: Vec<u8> = (0..len).map(|_| rng.gen_range(0..sigma)).collect();
                assert_eq!(
                    suffix_array(&text),
                    suffix_array_naive(&text),
                    "sais sigma={sigma} len={len}"
                );
            }
        }
    }

    #[test]
    fn repetitive_text() {
        let text = vec![0u8; 500];
        // All-equal letters: suffixes sort by decreasing length ⇒ sa = n-1, n-2, …, 0.
        let expected: Vec<u32> = (0..500u32).rev().collect();
        assert_eq!(suffix_array(&text), expected);
        assert_eq!(suffix_array_naive(&text), expected);
    }

    #[test]
    fn inverse_is_a_permutation_inverse() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let text: Vec<u8> = (0..300).map(|_| rng.gen_range(0..4u8)).collect();
        let sa = suffix_array(&text);
        let rank = inverse_suffix_array(&sa);
        for (r, &s) in sa.iter().enumerate() {
            assert_eq!(rank[s as usize] as usize, r);
        }
    }

    #[test]
    fn is_a_permutation() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let text: Vec<u8> = (0..777).map(|_| rng.gen_range(0..3u8)).collect();
        let mut sa = suffix_array(&text);
        sa.sort_unstable();
        assert_eq!(sa, (0..777u32).collect::<Vec<u32>>());
    }

    #[test]
    fn sais_handles_deep_recursion_inputs() {
        // Thue–Morse-like and Fibonacci words force many LMS levels.
        let mut fib: Vec<u8> = vec![0];
        let mut prev: Vec<u8> = vec![0, 1];
        for _ in 0..12 {
            let next = [prev.as_slice(), fib.as_slice()].concat();
            fib = std::mem::replace(&mut prev, next);
        }
        assert!(prev.len() > 300);
        assert_eq!(suffix_array(&prev), suffix_array_naive(&prev));

        let tm: Vec<u8> = (0..1024u32).map(|i| (i.count_ones() & 1) as u8).collect();
        assert_eq!(suffix_array(&tm), suffix_array_naive(&tm));
    }
}
