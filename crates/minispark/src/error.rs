//! Errors raised by minispark.

use csi_core::{ErrorKind, InteractionError};
use std::fmt;

/// Error type of minispark operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparkError {
    /// Analysis-time failure (unknown table/column, bad plan).
    Analysis {
        /// Stable code.
        code: &'static str,
        /// Description.
        message: String,
    },
    /// A cast failed under the ANSI store-assignment policy.
    Cast {
        /// Stable code (e.g. `CAST_OVERFLOW`, `CAST_INVALID_INPUT`).
        code: &'static str,
        /// Description.
        message: String,
    },
    /// The file schema is incompatible with the expected schema
    /// (`IncompatibleSchemaException`, SPARK-39075).
    IncompatibleSchema {
        /// Description.
        message: String,
    },
    /// A type has no representation in the Hive catalog (SPARK-40624).
    UnsupportedHiveType {
        /// Rendered type.
        ty: String,
    },
    /// Spark's serializer rejected the data.
    SerDe {
        /// Stable code.
        code: &'static str,
        /// Description.
        message: String,
    },
    /// SQL parse failure.
    Parse(String),
    /// An internal invariant was violated (`require(...)` failure,
    /// SPARK-27239).
    Assertion {
        /// Description.
        message: String,
    },
    /// A connector-level failure (HDFS, Kafka, YARN).
    Connector {
        /// Stable code.
        code: &'static str,
        /// Description.
        message: String,
    },
    /// Wrong number of values for the table's columns.
    Arity {
        /// Expected.
        expected: usize,
        /// Got.
        got: usize,
    },
}

impl SparkError {
    /// Analysis error constructor.
    pub fn analysis(code: &'static str, message: impl Into<String>) -> SparkError {
        SparkError::Analysis {
            code,
            message: message.into(),
        }
    }

    /// Cast error constructor.
    pub fn cast(code: &'static str, message: impl Into<String>) -> SparkError {
        SparkError::Cast {
            code,
            message: message.into(),
        }
    }

    /// Stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            SparkError::Analysis { code, .. } => code,
            SparkError::Cast { code, .. } => code,
            SparkError::IncompatibleSchema { .. } => "INCOMPATIBLE_SCHEMA",
            SparkError::UnsupportedHiveType { .. } => "UNSUPPORTED_HIVE_TYPE",
            SparkError::SerDe { code, .. } => code,
            SparkError::Parse(_) => "PARSE_ERROR",
            SparkError::Assertion { .. } => "ASSERTION_FAILED",
            SparkError::Connector { code, .. } => code,
            SparkError::Arity { .. } => "ARITY_MISMATCH",
        }
    }
}

impl fmt::Display for SparkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparkError::Analysis { code, message } => {
                write!(f, "AnalysisException [{code}]: {message}")
            }
            SparkError::Cast { code, message } => {
                write!(f, "SparkArithmeticException [{code}]: {message}")
            }
            SparkError::IncompatibleSchema { message } => {
                write!(f, "IncompatibleSchemaException: {message}")
            }
            SparkError::UnsupportedHiveType { ty } => {
                write!(f, "Cannot recognize hive type string: {ty}")
            }
            SparkError::SerDe { code, message } => write!(f, "SerDe [{code}]: {message}"),
            SparkError::Parse(m) => write!(f, "ParseException: {m}"),
            SparkError::Assertion { message } => {
                write!(
                    f,
                    "java.lang.IllegalArgumentException: requirement failed: {message}"
                )
            }
            SparkError::Connector { code, message } => write!(f, "[{code}] {message}"),
            SparkError::Arity { expected, got } => write!(
                f,
                "INSERT has {got} values but the table has {expected} columns"
            ),
        }
    }
}

impl std::error::Error for SparkError {}

impl From<SparkError> for InteractionError {
    fn from(e: SparkError) -> InteractionError {
        let kind = match &e {
            SparkError::Assertion { .. } => ErrorKind::AssertionFailure,
            SparkError::IncompatibleSchema { .. } | SparkError::SerDe { .. } => ErrorKind::Crash,
            SparkError::UnsupportedHiveType { .. } => ErrorKind::Unsupported,
            _ => ErrorKind::Rejected,
        };
        InteractionError::new("minispark", kind, e.code(), e.to_string())
    }
}

impl From<csi_core::column::ArityMismatch> for SparkError {
    fn from(e: csi_core::column::ArityMismatch) -> SparkError {
        SparkError::Arity {
            expected: e.expected,
            got: e.got,
        }
    }
}

impl From<minihive::HiveError> for SparkError {
    fn from(e: minihive::HiveError) -> SparkError {
        SparkError::Analysis {
            code: "HIVE_METASTORE",
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assertion_maps_to_assertion_failure_kind() {
        let e = SparkError::Assertion {
            message: "length (-1) cannot be negative".into(),
        };
        let ie: InteractionError = e.into();
        assert_eq!(ie.kind, ErrorKind::AssertionFailure);
        assert!(ie.message.contains("requirement failed"));
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(
            SparkError::cast("CAST_OVERFLOW", "x").code(),
            "CAST_OVERFLOW"
        );
        assert_eq!(
            SparkError::IncompatibleSchema {
                message: "m".into()
            }
            .code(),
            "INCOMPATIBLE_SCHEMA"
        );
    }
}
