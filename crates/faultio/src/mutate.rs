//! Seeded mutation sweeps for the corruption suites of the on-disk formats.
//!
//! A byte flip in a checksummed file stops at the checksum, so a sweep that
//! only flips bytes tests the CRC and little behind it. The sweeps here
//! mutate a file, **re-seal** every CRC32 it carries ([`reseal`]), and hand
//! the result to the format's reader: the reader's own validation is what
//! must refuse it (typed) or serve it (without a panic).
//!
//! [`mutations`] draws a seeded list of [`Mutation`]s over a byte range: a
//! byte XORed with a non-zero mask, or an aligned `u32`/`u64` word
//! overwritten with one of [`OVERWRITES`]. [`every_offset`] lists them all
//! instead, at every offset of a range small enough to sweep whole (an
//! unchecksummed wire frame). [`sweep`] runs a check over every
//! case on one worker thread under one watchdog, collecting the cases that
//! failed or panicked and naming the case a hung sweep is stuck on.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use crate::crc32;

/// Values written over aligned 4- and 8-byte words: the boundaries a count,
/// length or offset field most often mishandles.
pub const OVERWRITES: [u64; 5] = [0, 1, (1 << 31) - 1, u32::MAX as u64, u64::MAX];

/// One corruption of a file image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The byte at the offset XORed with a non-zero mask.
    Flip {
        /// Byte offset.
        at: usize,
        /// XOR mask (never 0).
        mask: u8,
    },
    /// The 4-byte word at the offset overwritten, little-endian.
    U32 {
        /// Byte offset (a multiple of 4 in a [`mutations`] draw).
        at: usize,
        /// The value written.
        value: u32,
    },
    /// The 8-byte word at the offset overwritten, little-endian.
    U64 {
        /// Byte offset (a multiple of 8 in a [`mutations`] draw).
        at: usize,
        /// The value written.
        value: u64,
    },
}

impl Mutation {
    /// Applies the mutation to `bytes`.
    ///
    /// # Panics
    ///
    /// If the mutated bytes lie outside `bytes`.
    pub fn apply(&self, bytes: &mut [u8]) {
        match *self {
            Mutation::Flip { at, mask } => bytes[at] ^= mask,
            Mutation::U32 { at, value } => bytes[at..at + 4].copy_from_slice(&value.to_le_bytes()),
            Mutation::U64 { at, value } => bytes[at..at + 8].copy_from_slice(&value.to_le_bytes()),
        }
    }
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Mutation::Flip { at, mask } => write!(f, "byte {at} ^ {mask:#04x}"),
            Mutation::U32 { at, value } => write!(f, "u32 at {at} = {value:#x}"),
            Mutation::U64 { at, value } => write!(f, "u64 at {at} = {value:#x}"),
        }
    }
}

/// A splitmix64 stream, so a sweep is the same on every run.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `count` seeded mutations inside `range`: half byte flips, a quarter
/// aligned `u32` and a quarter aligned `u64` overwrites (a word that does
/// not fit inside `range` falls back to a flip).
///
/// # Panics
///
/// If `range` is empty.
pub fn mutations(range: Range<usize>, count: usize, seed: u64) -> Vec<Mutation> {
    assert!(!range.is_empty(), "an empty mutation range");
    let mut rng = SplitMix(seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let at = range.start + rng.below(range.len());
        let kind = rng.next();
        let value = OVERWRITES[rng.below(OVERWRITES.len())];
        let flip = Mutation::Flip {
            at,
            mask: (kind >> 8) as u8 | 1,
        };
        let word = |width: usize| {
            let aligned = at / width * width;
            (aligned >= range.start && aligned + width <= range.end).then_some(aligned)
        };
        out.push(match kind % 4 {
            0 | 1 => flip,
            // u64::MAX narrows to u32::MAX, which is in the list anyway.
            2 => word(4).map_or(flip, |at| Mutation::U32 {
                at,
                value: value as u32,
            }),
            _ => word(8).map_or(flip, |at| Mutation::U64 { at, value }),
        });
    }
    out
}

/// Every mutation at every offset of `range`, offset by offset: the byte
/// inverted and XORed with a seeded non-zero mask, then, wherever a 4-byte
/// (8-byte) window from the offset fits inside `range`, that window
/// overwritten with each value of [`OVERWRITES`] that fits its width.
pub fn every_offset(range: Range<usize>, seed: u64) -> Vec<Mutation> {
    let mut rng = SplitMix(seed);
    let mut out = Vec::new();
    for at in range.clone() {
        let mask = rng.next() as u8 | 1;
        out.extend([0xFF, mask].map(|mask| Mutation::Flip { at, mask }));
        for value in OVERWRITES {
            if let Ok(value) = u32::try_from(value) {
                if at + 4 <= range.end {
                    out.push(Mutation::U32 { at, value });
                }
            }
            if at + 8 <= range.end {
                out.push(Mutation::U64 { at, value });
            }
        }
    }
    out
}

/// Re-seals a CRC32 trailer: writes the checksum of `bytes[body]` as the
/// little-endian `u32` right after the body.
///
/// # Panics
///
/// If the body or its trailer lies outside `bytes`.
pub fn reseal(bytes: &mut [u8], body: Range<usize>) {
    let crc = crc32(&bytes[body.clone()]);
    bytes[body.end..body.end + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Runs `check` over every case in order on one worker thread, watched by
/// the calling thread. Returns one line per case whose check returned an
/// error or panicked.
///
/// # Panics
///
/// If the whole sweep has not finished within `deadline`, naming the case
/// it is stuck on: a hang is a failure, and one watchdog covers the sweep.
pub fn sweep<C, F>(label: &str, cases: Vec<C>, deadline: Duration, check: F) -> Vec<String>
where
    C: std::fmt::Display + Send + Sync + 'static,
    F: Fn(&C) -> Result<(), String> + Send + 'static,
{
    let cases = Arc::new(cases);
    let current = Arc::new(AtomicUsize::new(0));
    let (done, finished) = mpsc::channel();
    let (worker_cases, progress) = (cases.clone(), current.clone());
    let worker_label = label.to_string();
    let worker = std::thread::spawn(move || {
        let mut failures = Vec::new();
        for (i, case) in worker_cases.iter().enumerate() {
            progress.store(i, Ordering::Relaxed);
            let outcome = catch_unwind(AssertUnwindSafe(|| check(case)))
                .unwrap_or_else(|_| Err("panicked".to_string()));
            if let Err(why) = outcome {
                failures.push(format!("{worker_label}: {case}: {why}"));
            }
        }
        let _ = done.send(failures);
    });
    match finished.recv_timeout(deadline) {
        Ok(failures) => {
            worker.join().expect("the sweep thread sent its result");
            failures
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the sweep thread sent no result"))
        }
        // The hung worker cannot be joined; it ends with the test process.
        Err(RecvTimeoutError::Timeout) => {
            let stuck = current.load(Ordering::Relaxed);
            panic!(
                "{label}: the sweep did not finish within {deadline:?}; case {stuck} ({}) hangs",
                cases[stuck]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_are_seeded_aligned_and_in_range() {
        let a = mutations(10..100, 500, 7);
        assert_eq!(a, mutations(10..100, 500, 7), "same seed, same sweep");
        assert_ne!(a, mutations(10..100, 500, 8));
        for m in &a {
            match *m {
                Mutation::Flip { at, mask } => assert!((10..100).contains(&at) && mask != 0),
                Mutation::U32 { at, .. } => assert!(at % 4 == 0 && at >= 10 && at + 4 <= 100),
                Mutation::U64 { at, .. } => assert!(at % 8 == 0 && at >= 10 && at + 8 <= 100),
            }
        }
        for kind in 0..3 {
            let seen = a.iter().any(|m| match m {
                Mutation::Flip { .. } => kind == 0,
                Mutation::U32 { .. } => kind == 1,
                Mutation::U64 { .. } => kind == 2,
            });
            assert!(seen, "kind {kind} never drawn");
        }
    }

    #[test]
    fn every_offset_lists_each_flip_and_window() {
        let cases = every_offset(3..15, 7);
        assert_eq!(cases, every_offset(3..15, 7), "same seed, same sweep");
        for at in 3..15 {
            let flips: Vec<u8> = cases
                .iter()
                .filter_map(|m| match *m {
                    Mutation::Flip { at: a, mask } if a == at => Some(mask),
                    _ => None,
                })
                .collect();
            assert!(flips.len() == 2 && flips[0] == 0xFF && flips[1] & 1 == 1);
            for value in OVERWRITES {
                let u32_case = u32::try_from(value).map(|value| Mutation::U32 { at, value });
                if let Ok(case) = u32_case {
                    assert_eq!(cases.contains(&case), at + 4 <= 15, "{case}");
                }
                let case = Mutation::U64 { at, value };
                assert_eq!(cases.contains(&case), at + 8 <= 15, "{case}");
            }
        }
        // 12 offsets: two flips each, four u32 values at 9 and five u64
        // values at 5 of them.
        assert_eq!(cases.len(), 2 * 12 + 4 * 9 + 5 * 5);
    }

    #[test]
    fn reseal_writes_the_body_checksum() {
        let mut bytes = b"payload\0\0\0\0".to_vec();
        reseal(&mut bytes, 0..7);
        assert_eq!(bytes[7..], crc32(b"payload").to_le_bytes());
        Mutation::U32 { at: 0, value: 1 }.apply(&mut bytes);
        assert_eq!(bytes[..4], 1u32.to_le_bytes());
    }

    #[test]
    fn sweep_reports_errors_and_panics() {
        let failures = sweep(
            "toy",
            vec![1, 2, 3],
            Duration::from_secs(30),
            |&n| match n {
                2 => Err("two".into()),
                3 => panic!("three"),
                _ => Ok(()),
            },
        );
        assert_eq!(failures, ["toy: 2: two", "toy: 3: panicked"]);
    }

    #[test]
    #[should_panic(expected = "case 1 (2) hangs")]
    fn sweep_names_the_case_it_hangs_on() {
        sweep("toy", vec![1, 2, 3], Duration::from_millis(200), |&n| {
            // Case 2 never returns; its thread ends with the test process.
            if n == 2 {
                loop {
                    std::thread::park();
                }
            }
            Ok(())
        });
    }
}
