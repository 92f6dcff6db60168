//! Hive's column type system.
//!
//! Hive's types largely mirror the harness types, with one deliberate,
//! faithful difference: **Hive has no INTERVAL column type**. Upstreams that
//! try to store intervals in Hive tables must map them somewhere else —
//! the discrepancy family of SPARK-40624 (D10/D11).

use crate::error::HiveError;
use csi_core::value::{DataType, StructField};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A Hive column type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HiveType {
    /// BOOLEAN.
    Boolean,
    /// TINYINT.
    TinyInt,
    /// SMALLINT.
    SmallInt,
    /// INT.
    Int,
    /// BIGINT.
    BigInt,
    /// FLOAT.
    Float,
    /// DOUBLE.
    Double,
    /// DECIMAL(p, s).
    Decimal(u8, u8),
    /// STRING.
    Str,
    /// CHAR(n), blank padded.
    Char(u32),
    /// VARCHAR(n), length-bounded.
    Varchar(u32),
    /// BINARY.
    Binary,
    /// DATE.
    Date,
    /// TIMESTAMP.
    Timestamp,
    /// `ARRAY<t>`.
    Array(Box<HiveType>),
    /// `MAP<k, v>`.
    Map(Box<HiveType>, Box<HiveType>),
    /// `STRUCT<...>`. Field names are stored lower-cased, as Hive does.
    Struct(Vec<(String, HiveType)>),
}

impl HiveType {
    /// Converts a harness [`DataType`] into a Hive type.
    ///
    /// Struct field names are **lower-cased** — Hive's metastore is
    /// case-insensitive and stores the canonical lowercase form. INTERVAL
    /// has no Hive column type and is rejected.
    pub fn from_data_type(dt: &DataType) -> Result<HiveType, HiveError> {
        Ok(match dt {
            DataType::Boolean => HiveType::Boolean,
            DataType::Byte => HiveType::TinyInt,
            DataType::Short => HiveType::SmallInt,
            DataType::Int => HiveType::Int,
            DataType::Long => HiveType::BigInt,
            DataType::Float => HiveType::Float,
            DataType::Double => HiveType::Double,
            DataType::Decimal(p, s) => HiveType::Decimal(*p, *s),
            DataType::String => HiveType::Str,
            DataType::Char(n) => HiveType::Char(*n),
            DataType::Varchar(n) => HiveType::Varchar(*n),
            DataType::Binary => HiveType::Binary,
            DataType::Date => HiveType::Date,
            DataType::Timestamp => HiveType::Timestamp,
            DataType::Interval => {
                return Err(HiveError::UnsupportedType {
                    ty: "INTERVAL".to_string(),
                })
            }
            DataType::Array(e) => HiveType::Array(Box::new(HiveType::from_data_type(e)?)),
            DataType::Map(k, v) => HiveType::Map(
                Box::new(HiveType::from_data_type(k)?),
                Box::new(HiveType::from_data_type(v)?),
            ),
            DataType::Struct(fields) => HiveType::Struct(
                fields
                    .iter()
                    .map(|f| {
                        Ok((
                            f.name.to_ascii_lowercase(),
                            HiveType::from_data_type(&f.data_type)?,
                        ))
                    })
                    .collect::<Result<Vec<_>, HiveError>>()?,
            ),
        })
    }

    /// Converts back to the harness [`DataType`].
    pub fn to_data_type(&self) -> DataType {
        match self {
            HiveType::Boolean => DataType::Boolean,
            HiveType::TinyInt => DataType::Byte,
            HiveType::SmallInt => DataType::Short,
            HiveType::Int => DataType::Int,
            HiveType::BigInt => DataType::Long,
            HiveType::Float => DataType::Float,
            HiveType::Double => DataType::Double,
            HiveType::Decimal(p, s) => DataType::Decimal(*p, *s),
            HiveType::Str => DataType::String,
            HiveType::Char(n) => DataType::Char(*n),
            HiveType::Varchar(n) => DataType::Varchar(*n),
            HiveType::Binary => DataType::Binary,
            HiveType::Date => DataType::Date,
            HiveType::Timestamp => DataType::Timestamp,
            HiveType::Array(e) => DataType::Array(Box::new(e.to_data_type())),
            HiveType::Map(k, v) => {
                DataType::Map(Box::new(k.to_data_type()), Box::new(v.to_data_type()))
            }
            HiveType::Struct(fields) => DataType::Struct(
                fields
                    .iter()
                    .map(|(n, t)| StructField::new(n.clone(), t.to_data_type()))
                    .collect(),
            ),
        }
    }

    /// Hive DDL rendering.
    pub(crate) fn ddl(&self) -> String {
        match self {
            HiveType::Boolean => "boolean".into(),
            HiveType::TinyInt => "tinyint".into(),
            HiveType::SmallInt => "smallint".into(),
            HiveType::Int => "int".into(),
            HiveType::BigInt => "bigint".into(),
            HiveType::Float => "float".into(),
            HiveType::Double => "double".into(),
            HiveType::Decimal(p, s) => format!("decimal({p},{s})"),
            HiveType::Str => "string".into(),
            HiveType::Char(n) => format!("char({n})"),
            HiveType::Varchar(n) => format!("varchar({n})"),
            HiveType::Binary => "binary".into(),
            HiveType::Date => "date".into(),
            HiveType::Timestamp => "timestamp".into(),
            HiveType::Array(e) => format!("array<{}>", e.ddl()),
            HiveType::Map(k, v) => format!("map<{},{}>", k.ddl(), v.ddl()),
            HiveType::Struct(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(n, t)| format!("{n}:{}", t.ddl()))
                    .collect();
                format!("struct<{}>", inner.join(","))
            }
        }
    }
}

impl fmt::Display for HiveType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.ddl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        for dt in DataType::primitives() {
            if dt == DataType::Interval {
                assert!(HiveType::from_data_type(&dt).is_err());
                continue;
            }
            let ht = HiveType::from_data_type(&dt).unwrap();
            assert_eq!(ht.to_data_type(), dt, "{dt}");
        }
    }

    #[test]
    fn struct_field_names_are_lowercased() {
        let dt = DataType::Struct(vec![StructField::new("Inner", DataType::Int)]);
        let ht = HiveType::from_data_type(&dt).unwrap();
        assert_eq!(ht.ddl(), "struct<inner:int>");
        // The round trip is therefore NOT the identity — the case is lost,
        // which is exactly the D14 discrepancy surface.
        assert_ne!(ht.to_data_type(), dt);
    }

    #[test]
    fn interval_is_rejected_even_nested() {
        let dt = DataType::Array(Box::new(DataType::Interval));
        assert!(matches!(
            HiveType::from_data_type(&dt),
            Err(HiveError::UnsupportedType { .. })
        ));
    }

    #[test]
    fn ddl_renders_nested_types() {
        let ht = HiveType::Map(
            Box::new(HiveType::Int),
            Box::new(HiveType::Array(Box::new(HiveType::Varchar(5)))),
        );
        assert_eq!(ht.ddl(), "map<int,array<varchar(5)>>");
    }
}
