//! Error types shared by the weighted-string model.

use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while building or querying weighted strings and the
/// structures derived from them.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The alphabet is empty, too large, or contains duplicate symbols.
    InvalidAlphabet(String),
    /// A symbol byte that is not part of the alphabet was encountered.
    UnknownSymbol(u8),
    /// A pattern holds a letter rank outside the alphabet `0..sigma`.
    RankOutOfRange {
        /// The first offending rank.
        rank: u8,
        /// Size of the alphabet the pattern was checked against.
        sigma: usize,
    },
    /// A per-position probability distribution is malformed (wrong arity,
    /// negative entries, or does not sum to 1 within tolerance).
    InvalidDistribution {
        /// 0-based position of the offending distribution.
        position: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The weight threshold `1/z` is invalid (`z` must satisfy `z ≥ 1`; a
    /// z-estimation additionally needs `⌊z⌋ ≤ u32::MAX` strands).
    InvalidThreshold(f64),
    /// A query position lies outside the string.
    PositionOutOfBounds {
        /// Requested 0-based position.
        position: usize,
        /// Length of the string.
        length: usize,
    },
    /// An empty pattern (or empty input string) was supplied where a
    /// non-empty one is required.
    EmptyInput(&'static str),
    /// A property array is malformed (non-monotone or out of range).
    InvalidProperty(String),
    /// The queried pattern is shorter than the index lower bound `ℓ`.
    PatternTooShort {
        /// Length of the supplied pattern.
        pattern: usize,
        /// Lower bound `ℓ` the index was built for.
        lower_bound: usize,
    },
    /// The queried pattern is longer than the partitioned (live) index's
    /// configured maximum pattern length (the segment overlap only covers
    /// occurrences up to that length).
    PatternTooLong {
        /// Length of the supplied pattern.
        pattern: usize,
        /// Upper bound the partitioned index was built for.
        upper_bound: usize,
    },
    /// Parameters passed to a builder are inconsistent.
    InvalidParameters(String),
    /// A durability I/O operation (write-ahead logging, checkpointing)
    /// failed; the message carries the underlying `io::Error`. The
    /// mutation that triggered it was **not** applied.
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidAlphabet(reason) => write!(f, "invalid alphabet: {reason}"),
            Error::UnknownSymbol(sym) => {
                write!(f, "symbol {:?} (0x{sym:02x}) is not in the alphabet", *sym as char)
            }
            Error::RankOutOfRange { rank, sigma } => {
                write!(f, "pattern rank {rank} is outside the alphabet (σ = {sigma})")
            }
            Error::InvalidDistribution { position, reason } => {
                write!(f, "invalid probability distribution at position {position}: {reason}")
            }
            Error::InvalidThreshold(z) => {
                write!(
                    f,
                    "invalid weight threshold 1/z: z = {z} (z must be >= 1 and finite, \
                     and a z-estimation holds at most u32::MAX strands)"
                )
            }
            Error::PositionOutOfBounds { position, length } => {
                write!(f, "position {position} out of bounds for string of length {length}")
            }
            Error::EmptyInput(what) => write!(f, "{what} must be non-empty"),
            Error::InvalidProperty(reason) => write!(f, "invalid property array: {reason}"),
            Error::PatternTooShort { pattern, lower_bound } => write!(
                f,
                "pattern of length {pattern} is shorter than the index lower bound ℓ = {lower_bound}"
            ),
            Error::PatternTooLong { pattern, upper_bound } => write!(
                f,
                "pattern of length {pattern} exceeds the partitioned index's maximum supported \
                 pattern length {upper_bound}"
            ),
            Error::InvalidParameters(reason) => write!(f, "invalid parameters: {reason}"),
            Error::Io(reason) => write!(f, "durability I/O error: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::UnknownSymbol(b'Z');
        assert!(e.to_string().contains('Z'));
        let e = Error::RankOutOfRange { rank: 3, sigma: 2 };
        assert_eq!(
            e.to_string(),
            "pattern rank 3 is outside the alphabet (σ = 2)"
        );
        let e = Error::PositionOutOfBounds {
            position: 7,
            length: 3,
        };
        assert!(e.to_string().contains('7') && e.to_string().contains('3'));
        let e = Error::PatternTooShort {
            pattern: 3,
            lower_bound: 8,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('8'));
        let e = Error::PatternTooLong {
            pattern: 90,
            upper_bound: 64,
        };
        assert!(e.to_string().contains("90") && e.to_string().contains("64"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
