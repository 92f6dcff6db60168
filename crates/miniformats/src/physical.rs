//! The physical data model of the container formats.
//!
//! A file stores a [`FileSchema`] (column names, physical types, optional
//! per-column *logical type annotations*, and file-level metadata) followed
//! by rows of [`PhysicalValue`]s. Logical annotations are where one system's
//! serde layer can record information (e.g. "this INT32 is really a
//! TINYINT") that another system's layer may or may not honor — the raw
//! material of several studied discrepancies.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Physical type of a column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhysicalType {
    /// Boolean.
    Bool,
    /// 8-bit signed integer (not available in Avro).
    Int8,
    /// 16-bit signed integer (not available in Avro).
    Int16,
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer.
    Int64,
    /// 32-bit IEEE float.
    Float32,
    /// 64-bit IEEE float.
    Float64,
    /// Fixed-point decimal (unscaled bytes plus an in-file scale).
    Decimal,
    /// UTF-8 string.
    Utf8,
    /// Raw bytes.
    Bytes,
    /// List of an element type.
    List(Box<PhysicalType>),
    /// Map from keys to values.
    Map(Box<PhysicalType>, Box<PhysicalType>),
    /// Struct of named fields.
    Struct(Vec<(String, PhysicalType)>),
}

/// A physical value as stored in a file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PhysicalValue {
    /// Null.
    Null,
    /// Boolean.
    Bool(bool),
    /// 8-bit integer.
    Int8(i8),
    /// 16-bit integer.
    Int16(i16),
    /// 32-bit integer.
    Int32(i32),
    /// 64-bit integer.
    Int64(i64),
    /// 32-bit float.
    Float32(f32),
    /// 64-bit float.
    Float64(f64),
    /// Decimal: unscaled digits plus the scale this value was stored with.
    Decimal {
        /// Unscaled integer.
        unscaled: i128,
        /// Scale the writer used.
        scale: u8,
    },
    /// UTF-8 string.
    Utf8(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// List.
    List(Vec<PhysicalValue>),
    /// Map, as ordered pairs.
    Map(Vec<(PhysicalValue, PhysicalValue)>),
    /// Struct, as ordered named fields.
    Struct(Vec<(String, PhysicalValue)>),
}

/// One column of a file schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysicalColumn {
    /// Column name, exactly as the writer recorded it.
    pub name: String,
    /// Physical type.
    pub ty: PhysicalType,
    /// Optional logical type annotation (writer-specific, e.g. `"tinyint"`,
    /// `"char(8)"`, `"timestamp"`). Readers may honor or ignore it.
    pub logical: Option<String>,
}

/// File-level metadata: free-form key/value pairs recorded by the writer
/// (e.g. `writer=hive`, `timestamp.rebase=julian`).
pub type FileMeta = BTreeMap<String, String>;

/// The self-describing schema stored in every file.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FileSchema {
    /// Columns, in order.
    pub columns: Vec<PhysicalColumn>,
    /// File-level metadata.
    pub meta: FileMeta,
}

impl FileSchema {
    /// Convenience constructor without annotations or metadata.
    pub fn of(columns: Vec<(&str, PhysicalType)>) -> FileSchema {
        FileSchema {
            columns: columns
                .into_iter()
                .map(|(name, ty)| PhysicalColumn {
                    name: name.to_string(),
                    ty,
                    logical: None,
                })
                .collect(),
            meta: FileMeta::new(),
        }
    }

    /// Looks up a column index case-insensitively.
    pub fn index_of_ci(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// Checks that a value is null or inhabits the declared type (shallow for
/// nested types: containers are checked recursively by element).
pub(crate) fn value_matches(ty: &PhysicalType, value: &PhysicalValue) -> bool {
    match (ty, value) {
        (_, PhysicalValue::Null) => true,
        (PhysicalType::Bool, PhysicalValue::Bool(_)) => true,
        (PhysicalType::Int8, PhysicalValue::Int8(_)) => true,
        (PhysicalType::Int16, PhysicalValue::Int16(_)) => true,
        (PhysicalType::Int32, PhysicalValue::Int32(_)) => true,
        (PhysicalType::Int64, PhysicalValue::Int64(_)) => true,
        (PhysicalType::Float32, PhysicalValue::Float32(_)) => true,
        (PhysicalType::Float64, PhysicalValue::Float64(_)) => true,
        (PhysicalType::Decimal, PhysicalValue::Decimal { .. }) => true,
        (PhysicalType::Utf8, PhysicalValue::Utf8(_)) => true,
        (PhysicalType::Bytes, PhysicalValue::Bytes(_)) => true,
        (PhysicalType::List(et), PhysicalValue::List(items)) => {
            items.iter().all(|v| value_matches(et, v))
        }
        (PhysicalType::Map(kt, vt), PhysicalValue::Map(pairs)) => pairs
            .iter()
            .all(|(k, v)| value_matches(kt, k) && value_matches(vt, v)),
        (PhysicalType::Struct(fields), PhysicalValue::Struct(values)) => {
            fields.len() == values.len()
                && fields
                    .iter()
                    .zip(values)
                    .all(|((fname, fty), (vname, v))| fname == vname && value_matches(fty, v))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_matches_accepts_nulls_everywhere() {
        assert!(value_matches(&PhysicalType::Int8, &PhysicalValue::Null));
        assert!(value_matches(
            &PhysicalType::List(Box::new(PhysicalType::Utf8)),
            &PhysicalValue::List(vec![PhysicalValue::Null, PhysicalValue::Utf8("x".into())])
        ));
    }

    #[test]
    fn value_matches_rejects_mismatches() {
        assert!(!value_matches(
            &PhysicalType::Int8,
            &PhysicalValue::Int32(5)
        ));
        assert!(!value_matches(
            &PhysicalType::Map(Box::new(PhysicalType::Utf8), Box::new(PhysicalType::Int32)),
            &PhysicalValue::Map(vec![(PhysicalValue::Int32(1), PhysicalValue::Int32(2))])
        ));
        let st = PhysicalType::Struct(vec![("a".into(), PhysicalType::Int32)]);
        assert!(!value_matches(
            &st,
            &PhysicalValue::Struct(vec![("b".into(), PhysicalValue::Int32(1))])
        ));
    }

    #[test]
    fn schema_lookup_case_sensitivity() {
        let schema = FileSchema::of(vec![("Camel", PhysicalType::Int32)]);
        assert_eq!(schema.index_of_ci("CAMEL"), Some(0));
        assert_eq!(schema.index_of_ci("camel"), Some(0));
        assert_eq!(schema.index_of_ci("kamel"), None);
    }
}
