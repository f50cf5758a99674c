//! Transport error types.

use std::fmt;
use std::io;

use crate::proto::{code, WireError};

/// Why a transport operation could not complete.
///
/// Engine-level failures are *not* `NetError`s: a solve whose solver panicked or
/// whose deadline expired still arrives as a well-formed answer frame carrying the
/// `EngineError` inside the `SolveResponse`. A `NetError` means the conversation
/// itself failed — the socket, the framing or the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A socket-level failure: connect, read or write. Carries the `io::ErrorKind`
    /// and rendered message (read/write timeouts surface here as `WouldBlock` /
    /// `TimedOut`).
    Io {
        /// The failed operation's `io::ErrorKind`.
        kind: io::ErrorKind,
        /// The rendered `io::Error`.
        message: String,
    },
    /// The peer's bytes did not start with the protocol magic `b"TDMF"` — not a
    /// tagdm-net peer, or the stream lost sync.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// Version byte received.
        got: u8,
        /// Version this build speaks.
        expected: u8,
    },
    /// The kind byte is not in the protocol, or a frame arrived in the wrong
    /// direction (e.g. a response kind sent to the server).
    UnknownKind(u8),
    /// The declared payload length exceeds the receiver's configured bound.
    FrameTooLarge {
        /// Declared payload length.
        len: u32,
        /// The receiver's bound.
        max: u32,
    },
    /// The payload failed to decode (bad UTF-8 or JSON), or the stream broke
    /// mid-frame (torn frame).
    Malformed(String),
    /// A per-connection read or write deadline fired.
    DeadlineExceeded(String),
    /// The peer answered with a protocol-level [`WireError`] frame.
    Remote(WireError),
    /// The server is draining for shutdown and said goodbye.
    GoAway(String),
}

impl NetError {
    /// Whether retrying — on a fresh connection — may succeed.
    ///
    /// Socket failures, deadlines and draining servers are conditions a reconnect
    /// can outlive; framing and version errors are deterministic: the same bytes
    /// will fail the same way, so the client surfaces them immediately. Mirrors
    /// [`EngineError::is_transient`](tagdm_engine::EngineError::is_transient),
    /// which classifies the errors riding *inside* answers.
    pub fn is_transient(&self) -> bool {
        match self {
            NetError::Io { .. } | NetError::DeadlineExceeded(_) | NetError::GoAway(_) => true,
            NetError::Remote(wire) => {
                wire.code == code::DEADLINE_EXCEEDED || wire.code == code::DRAINING
            }
            NetError::BadMagic(_)
            | NetError::UnsupportedVersion { .. }
            | NetError::UnknownKind(_)
            | NetError::FrameTooLarge { .. }
            | NetError::Malformed(_) => false,
        }
    }

    /// Whether the peer broke the protocol: bad magic, version, kind or length, or a
    /// malformed payload. A server counts these, and only these, as
    /// [`frame_errors`](crate::ServerMetrics::frame_errors).
    pub(crate) fn is_protocol_fault(&self) -> bool {
        matches!(
            self,
            NetError::BadMagic(_)
                | NetError::UnsupportedVersion { .. }
                | NetError::UnknownKind(_)
                | NetError::FrameTooLarge { .. }
                | NetError::Malformed(_)
        )
    }

    /// The [`code`] a server reports this fault under in an error frame.
    pub fn wire_code(&self) -> u16 {
        match self {
            NetError::UnsupportedVersion { .. } => code::UNSUPPORTED_VERSION,
            NetError::UnknownKind(_) => code::UNKNOWN_KIND,
            NetError::FrameTooLarge { .. } => code::FRAME_TOO_LARGE,
            NetError::DeadlineExceeded(_) => code::DEADLINE_EXCEEDED,
            NetError::GoAway(_) => code::DRAINING,
            NetError::Io { .. }
            | NetError::BadMagic(_)
            | NetError::Malformed(_)
            | NetError::Remote(_) => code::MALFORMED,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { kind, message } => write!(f, "socket error ({kind:?}): {message}"),
            NetError::BadMagic(bytes) => {
                write!(f, "bad magic {bytes:02x?}: peer is not speaking tagdm-net")
            }
            NetError::UnsupportedVersion { got, expected } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this build speaks {expected})"
                )
            }
            NetError::UnknownKind(kind) => {
                write!(f, "unknown or unexpected frame kind 0x{kind:02x}")
            }
            NetError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte bound"
                )
            }
            NetError::Malformed(message) => write!(f, "malformed frame: {message}"),
            NetError::DeadlineExceeded(message) => write!(f, "deadline exceeded: {message}"),
            NetError::Remote(wire) => {
                write!(
                    f,
                    "peer reported protocol error {}: {}",
                    wire.code, wire.message
                )
            }
            NetError::GoAway(reason) => write!(f, "server going away: {reason}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(error: io::Error) -> Self {
        NetError::Io {
            kind: error.kind(),
            message: error.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classifies_retryable_errors() {
        assert!(
            NetError::from(io::Error::new(io::ErrorKind::ConnectionReset, "reset")).is_transient()
        );
        assert!(NetError::DeadlineExceeded("read".into()).is_transient());
        assert!(NetError::GoAway("draining".into()).is_transient());
        assert!(NetError::Remote(WireError {
            code: code::DRAINING,
            message: "bye".into()
        })
        .is_transient());
        assert!(!NetError::BadMagic(*b"HTTP").is_transient());
        assert!(!NetError::UnsupportedVersion {
            got: 9,
            expected: 1
        }
        .is_transient());
        assert!(!NetError::UnknownKind(0x42).is_transient());
        assert!(!NetError::FrameTooLarge { len: 10, max: 5 }.is_transient());
        assert!(!NetError::Malformed("not json".into()).is_transient());
        assert!(!NetError::Remote(WireError {
            code: code::MALFORMED,
            message: "bad".into()
        })
        .is_transient());
    }

    #[test]
    fn errors_display_their_context() {
        assert!(NetError::BadMagic(*b"HTTP").to_string().contains("magic"));
        assert!(NetError::UnsupportedVersion {
            got: 2,
            expected: 1
        }
        .to_string()
        .contains("version 2"));
        assert!(NetError::FrameTooLarge { len: 64, max: 32 }
            .to_string()
            .contains("64"));
        assert_eq!(
            NetError::GoAway("maintenance".into()).to_string(),
            "server going away: maintenance"
        );
    }

    #[test]
    fn wire_codes_match_the_protocol_table() {
        assert_eq!(NetError::UnknownKind(7).wire_code(), code::UNKNOWN_KIND);
        assert_eq!(
            NetError::FrameTooLarge { len: 2, max: 1 }.wire_code(),
            code::FRAME_TOO_LARGE
        );
        assert_eq!(
            NetError::DeadlineExceeded("w".into()).wire_code(),
            code::DEADLINE_EXCEEDED
        );
        assert_eq!(NetError::Malformed("x".into()).wire_code(), code::MALFORMED);
    }
}
