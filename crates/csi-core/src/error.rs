//! Error envelope for cross-system interactions.
//!
//! Each simulated system defines its own error enums; at the interaction
//! boundary they are converted into an [`InteractionError`], which records
//! *which* system raised the error and *how* it manifested. The oracles and
//! the discrepancy classifier work on this envelope.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How an interaction error manifested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The request was rejected with a clean, typed error.
    Rejected,
    /// The request crashed the serving component (unhandled condition).
    Crash,
    /// The operation is not supported by the serving system.
    Unsupported,
    /// The request timed out (simulated time).
    Timeout,
    /// The serving system is unavailable (e.g. safe mode, not started).
    Unavailable,
    /// The operation violated an internal invariant (assertion failure).
    AssertionFailure,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::Rejected => "rejected",
            ErrorKind::Crash => "crash",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::AssertionFailure => "assertion failure",
        };
        f.write_str(s)
    }
}

/// An error observed at a cross-system interaction boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InteractionError {
    /// The system that raised the error (e.g. "minispark", "minihive").
    pub system: String,
    /// How the error manifested.
    pub kind: ErrorKind,
    /// A stable machine-readable code (e.g. `INCOMPATIBLE_SCHEMA`).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl InteractionError {
    /// Creates a new interaction error.
    pub fn new(
        system: impl Into<String>,
        kind: ErrorKind,
        code: impl Into<String>,
        message: impl Into<String>,
    ) -> InteractionError {
        InteractionError {
            system: system.into(),
            kind,
            code: code.into(),
            message: message.into(),
        }
    }

    /// Shorthand for a clean rejection.
    pub fn rejected(
        system: impl Into<String>,
        code: impl Into<String>,
        message: impl Into<String>,
    ) -> InteractionError {
        InteractionError::new(system, ErrorKind::Rejected, code, message)
    }

    /// Shorthand for an unsupported operation.
    pub fn unsupported(
        system: impl Into<String>,
        code: impl Into<String>,
        message: impl Into<String>,
    ) -> InteractionError {
        InteractionError::new(system, ErrorKind::Unsupported, code, message)
    }

    /// Shorthand for a crash.
    pub fn crash(
        system: impl Into<String>,
        code: impl Into<String>,
        message: impl Into<String>,
    ) -> InteractionError {
        InteractionError::new(system, ErrorKind::Crash, code, message)
    }

    /// The stable signature used to compare error behavior across
    /// interfaces: system-agnostic, message-agnostic.
    ///
    /// Two interfaces rejecting the same input with the same code count as
    /// *consistent* even if the message wording differs; a rejection versus
    /// a crash with the same code counts as *inconsistent*.
    pub fn signature(&self) -> String {
        let mut out = String::new();
        self.write_signature(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes the [signature](InteractionError::signature) to `w` without
    /// building it.
    pub(crate) fn write_signature(&self, w: &mut impl fmt::Write) -> fmt::Result {
        write!(w, "{}:{}", self.kind, self.code)
    }
}

impl fmt::Display for InteractionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} ({}): {}",
            self.system, self.kind, self.code, self.message
        )
    }
}

impl std::error::Error for InteractionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_ignores_system_and_message() {
        let a = InteractionError::rejected("minispark", "CAST_OVERFLOW", "value too large");
        let b = InteractionError::rejected("minihive", "CAST_OVERFLOW", "out of range");
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn signature_distinguishes_kind() {
        let a = InteractionError::rejected("s", "X", "m");
        let b = InteractionError::crash("s", "X", "m");
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn display_is_informative() {
        let e = InteractionError::unsupported("minihive", "NO_MAP_KEY", "maps need string keys");
        let s = e.to_string();
        assert!(s.contains("minihive"));
        assert!(s.contains("NO_MAP_KEY"));
    }
}
