//! Errors raised by minihive.

use csi_core::fault::{Channel, FaultKind, FaultPoint, InjectedFault};
use csi_core::{ErrorKind, InteractionError};
use std::fmt;

/// Error type of minihive operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HiveError {
    /// The database does not exist.
    UnknownDatabase(String),
    /// The table does not exist.
    UnknownTable(String),
    /// A table with this name already exists.
    TableExists(String),
    /// A referenced column does not exist.
    UnknownColumn {
        /// Table name.
        table: String,
        /// Column as the query wrote it.
        column: String,
    },
    /// The type is not supported by Hive.
    UnsupportedType {
        /// Rendered type name.
        ty: String,
    },
    /// A SQL statement failed to parse.
    Parse(String),
    /// A storage format failed to serialize or deserialize data.
    SerDe {
        /// The storage format.
        format: &'static str,
        /// Description.
        message: String,
    },
    /// A stored value does not match the declared schema.
    SchemaMismatch {
        /// Description.
        message: String,
    },
    /// The warehouse filesystem failed.
    Storage(String),
    /// Wrong number of values in an INSERT row.
    Arity {
        /// Expected columns.
        expected: usize,
        /// Provided values.
        got: usize,
    },
    /// The metastore service cannot be reached.
    MetastoreUnavailable(String),
    /// A metastore RPC exceeded its deadline.
    MetastoreTimeout {
        /// The RPC that timed out.
        op: String,
        /// The deadline, in milliseconds.
        ms: u64,
    },
    /// A metastore response failed Thrift protocol decoding.
    MetastoreCorrupt {
        /// The RPC whose response was corrupted.
        op: String,
    },
}

impl fmt::Display for HiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HiveError::UnknownDatabase(d) => write!(f, "Database not found: {d}"),
            HiveError::UnknownTable(t) => write!(f, "Table not found: {t}"),
            HiveError::TableExists(t) => write!(f, "Table already exists: {t}"),
            HiveError::UnknownColumn { table, column } => {
                write!(f, "Invalid column reference {column:?} in table {table}")
            }
            HiveError::UnsupportedType { ty } => {
                write!(f, "Unsupported Hive type: {ty}")
            }
            HiveError::Parse(msg) => write!(f, "ParseException: {msg}"),
            HiveError::SerDe { format, message } => {
                write!(f, "SerDe error ({format}): {message}")
            }
            HiveError::SchemaMismatch { message } => {
                write!(f, "schema mismatch: {message}")
            }
            HiveError::Storage(msg) => write!(f, "warehouse storage error: {msg}"),
            HiveError::Arity { expected, got } => write!(
                f,
                "INSERT has {got} values but the table has {expected} columns"
            ),
            HiveError::MetastoreUnavailable(msg) => {
                write!(f, "MetaException: could not connect to metastore: {msg}")
            }
            HiveError::MetastoreTimeout { op, ms } => {
                write!(f, "MetaException: {op} timed out after {ms}ms")
            }
            HiveError::MetastoreCorrupt { op } => {
                write!(
                    f,
                    "TProtocolException: corrupted metastore response for {op}"
                )
            }
        }
    }
}

impl std::error::Error for HiveError {}

impl HiveError {
    /// Stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            HiveError::UnknownDatabase(_) => "UNKNOWN_DATABASE",
            HiveError::UnknownTable(_) => "UNKNOWN_TABLE",
            HiveError::TableExists(_) => "TABLE_EXISTS",
            HiveError::UnknownColumn { .. } => "UNKNOWN_COLUMN",
            HiveError::UnsupportedType { .. } => "UNSUPPORTED_TYPE",
            HiveError::Parse(_) => "PARSE_ERROR",
            HiveError::SerDe { .. } => "SERDE_ERROR",
            HiveError::SchemaMismatch { .. } => "SCHEMA_MISMATCH",
            HiveError::Storage(_) => "STORAGE_ERROR",
            HiveError::Arity { .. } => "ARITY_MISMATCH",
            HiveError::MetastoreUnavailable(_) => "METASTORE_UNAVAILABLE",
            HiveError::MetastoreTimeout { .. } => "METASTORE_TIMEOUT",
            HiveError::MetastoreCorrupt { .. } => "THRIFT_PROTOCOL_ERROR",
        }
    }
}

impl From<csi_core::column::ArityMismatch> for HiveError {
    fn from(e: csi_core::column::ArityMismatch) -> HiveError {
        HiveError::Arity {
            expected: e.expected,
            got: e.got,
        }
    }
}

impl From<HiveError> for InteractionError {
    fn from(e: HiveError) -> InteractionError {
        let kind = match &e {
            HiveError::UnsupportedType { .. } => ErrorKind::Unsupported,
            HiveError::SerDe { .. } | HiveError::SchemaMismatch { .. } => ErrorKind::Crash,
            HiveError::MetastoreUnavailable(_) => ErrorKind::Unavailable,
            HiveError::MetastoreTimeout { .. } => ErrorKind::Timeout,
            HiveError::MetastoreCorrupt { .. } => ErrorKind::Crash,
            _ => ErrorKind::Rejected,
        };
        InteractionError::new("minihive", kind, e.code(), e.to_string())
    }
}

impl FaultPoint for HiveError {
    const CHANNEL: Channel = Channel::Metastore;

    fn materialize(fault: &InjectedFault) -> HiveError {
        match fault.kind {
            FaultKind::Unavailable => {
                HiveError::MetastoreUnavailable(format!("injected on {}", fault.op))
            }
            FaultKind::Timeout { ms } | FaultKind::Latency { ms } => HiveError::MetastoreTimeout {
                op: fault.op.clone(),
                ms,
            },
            FaultKind::CorruptPayload => HiveError::MetastoreCorrupt {
                op: fault.op.clone(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_errors_surface_as_crashes() {
        let e = HiveError::SerDe {
            format: "avro-sim",
            message: "bad".into(),
        };
        let ie: InteractionError = e.into();
        assert_eq!(ie.kind, ErrorKind::Crash);
    }
}
