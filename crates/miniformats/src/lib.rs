//! `miniformats` — byte-level container formats shared by the simulated
//! systems.
//!
//! ORC, Parquet, and Avro are *specifications*; Spark and Hive each ship
//! their own reader/writer implementations of them. Finding 6 of the paper
//! attributes 25% of data-plane CSI failures to exactly this structure:
//! ad-hoc (de)serialization layers on a common wire format, each with its
//! own conversions and optimizations.
//!
//! This crate implements the *wire* layer only: three self-describing
//! container formats ([`avro`], [`orc`], [`parquet`]) over a common
//! [`physical::PhysicalValue`] model, with per-format physical type
//! constraints (e.g. Avro has no 8/16-bit integers and requires string map
//! keys). The system-specific serde layers — where the studied
//! discrepancies live — are implemented separately by `minihive` and
//! `minispark` on top of this crate.

pub mod avro;
pub mod batch;
pub mod orc;
pub mod parquet;
pub mod physical;
pub mod wire;

pub use batch::{Bitmap, Column, ColumnData, RecordBatch, VarBuffer};
pub use physical::{FileMeta, FileSchema, PhysicalColumn, PhysicalType, PhysicalValue};

use std::fmt;

/// Errors raised while encoding or decoding a container file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The format does not support a physical type.
    UnsupportedType {
        /// The format name.
        format: &'static str,
        /// The offending type.
        ty: PhysicalType,
        /// Where it appeared (e.g. "column c", "map key").
        context: String,
    },
    /// A value did not match the declared column type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Declared type.
        declared: PhysicalType,
        /// What the value actually was.
        found: String,
    },
    /// The byte stream is corrupt or truncated.
    Corrupt(String),
    /// The magic bytes do not match the format.
    WrongMagic {
        /// Expected magic.
        expected: &'static str,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::UnsupportedType {
                format,
                ty,
                context,
            } => write!(f, "{format} does not support {ty:?} ({context})"),
            FormatError::TypeMismatch {
                column,
                declared,
                found,
            } => write!(
                f,
                "column {column}: declared {declared:?} but value is {found}"
            ),
            FormatError::Corrupt(msg) => write!(f, "corrupt file: {msg}"),
            FormatError::WrongMagic { expected } => {
                write!(f, "bad magic bytes: expected {expected}")
            }
        }
    }
}

impl std::error::Error for FormatError {}
