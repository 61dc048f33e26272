//! Error-ergonomics audit: every public error type in the workspace must
//! implement `std::error::Error + Display + Send + Sync`, and its `Display`
//! output must be a real message (non-empty, not a `Debug` placeholder) —
//! compile-time trait assertions plus message spot checks, so regressions
//! fail CI.

use ius::server::{ClientError, ErrorCode, ProtocolError};
use ius::weighted::Error as WeightedError;

/// Compile-time assertion: `T` is a full-featured error type.
fn assert_error_bounds<T: std::error::Error + std::fmt::Display + Send + Sync + 'static>() {}

#[test]
fn every_public_error_enum_satisfies_the_error_bounds() {
    assert_error_bounds::<WeightedError>();
    assert_error_bounds::<ProtocolError>();
    assert_error_bounds::<ClientError>();
    // The persistence layer reports through std::io::Error (typed kinds +
    // messages); it satisfies the same bounds by construction.
    assert_error_bounds::<std::io::Error>();
}

/// A `Display` message is considered a placeholder when it is empty or just
/// the `Debug` variant name (no spaces, no detail).
fn assert_real_message(err: &dyn std::error::Error) {
    let message = err.to_string();
    assert!(!message.is_empty(), "empty Display message");
    assert!(
        message.contains(' '),
        "placeholder-looking Display message: {message:?}"
    );
}

#[test]
fn weighted_error_messages_are_informative() {
    let samples = [
        WeightedError::InvalidAlphabet("duplicate symbol".into()),
        WeightedError::UnknownSymbol(b'q'),
        WeightedError::RankOutOfRange { rank: 3, sigma: 2 },
        WeightedError::InvalidDistribution {
            position: 4,
            reason: "sums to 1.2".into(),
        },
        WeightedError::InvalidThreshold(0.5),
        WeightedError::PositionOutOfBounds {
            position: 10,
            length: 5,
        },
        WeightedError::EmptyInput("pattern"),
        WeightedError::InvalidProperty("non-monotone".into()),
        WeightedError::PatternTooShort {
            pattern: 3,
            lower_bound: 8,
        },
        WeightedError::PatternTooLong {
            pattern: 80,
            upper_bound: 64,
        },
        WeightedError::InvalidParameters("k > ell".into()),
    ];
    for err in &samples {
        assert_real_message(err);
    }
    // The numbers that matter appear in the message.
    assert!(WeightedError::PatternTooShort {
        pattern: 3,
        lower_bound: 8
    }
    .to_string()
    .contains('8'));
}

#[test]
fn protocol_error_messages_are_informative() {
    let samples = [
        ProtocolError::BadMagic(*b"XXXX"),
        ProtocolError::UnsupportedVersion(9),
        ProtocolError::UnknownOp(99),
        ProtocolError::UnknownStatus(98),
        ProtocolError::UnknownMode(97),
        ProtocolError::UnknownErrorCode(96),
        ProtocolError::Truncated { what: "pattern" },
        ProtocolError::TrailingBytes(3),
        ProtocolError::FrameTooLarge {
            len: 1 << 40,
            max: 1 << 20,
        },
        ProtocolError::InvalidUtf8,
        ProtocolError::UnknownSampleKind(4),
        ProtocolError::InvalidSampleName("Bad-Name".into()),
        ProtocolError::DuplicateSample("requests".into()),
    ];
    for err in &samples {
        assert_real_message(err);
    }
    assert!(ProtocolError::UnsupportedVersion(9)
        .to_string()
        .contains('9'));
}

#[test]
fn client_error_messages_are_informative_and_chain_sources() {
    let io = ClientError::Io(std::io::Error::new(
        std::io::ErrorKind::ConnectionRefused,
        "nobody listening",
    ));
    assert_real_message(&io);
    assert!(
        std::error::Error::source(&io).is_some(),
        "Io variant must chain its source"
    );
    let proto = ClientError::Protocol(ProtocolError::InvalidUtf8);
    assert_real_message(&proto);
    assert!(std::error::Error::source(&proto).is_some());
    let server = ClientError::Server {
        code: ErrorCode::Overloaded,
        message: "admission queue full".into(),
    };
    assert_real_message(&server);
    assert!(server.to_string().contains("OVERLOADED"));
    assert_real_message(&ClientError::IdMismatch { sent: 4, got: 7 });
    assert_real_message(&ClientError::UnexpectedResponse { expected: "PONG" });
    let missing = ClientError::MissingSample("query_errors");
    assert_real_message(&missing);
    assert!(missing.to_string().contains("query_errors"));
}

#[test]
fn error_codes_display_their_wire_names() {
    for (code, name) in [
        (ErrorCode::Malformed, "MALFORMED"),
        (ErrorCode::UnsupportedVersion, "UNSUPPORTED_VERSION"),
        (ErrorCode::UnknownOp, "UNKNOWN_OP"),
        (ErrorCode::Query, "QUERY_ERROR"),
        (ErrorCode::Reload, "RELOAD_ERROR"),
        (ErrorCode::Overloaded, "OVERLOADED"),
        (ErrorCode::ShuttingDown, "SHUTTING_DOWN"),
    ] {
        assert_eq!(code.to_string(), name);
    }
}
