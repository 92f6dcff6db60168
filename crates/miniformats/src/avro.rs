//! The Avro-like container format.
//!
//! Per the Avro specification, this format has **no 8- or 16-bit integer
//! types** (writers must widen to `int`) and **map keys are always
//! strings**. Both constraints are enforced at encode time; they are the
//! format-level facts behind SPARK-39075 and HIVE-26531.

use crate::physical::{FileSchema, PhysicalValue};
use crate::wire::{self, FormatRules};
use crate::FormatError;

/// Avro format rules.
pub const RULES: FormatRules = FormatRules {
    name: "avro-sim",
    magic: b"AVR1",
    allows_small_ints: false,
    allows_non_string_map_keys: false,
};

/// Encodes an Avro file.
pub fn encode(schema: &FileSchema, rows: &[Vec<PhysicalValue>]) -> Result<Vec<u8>, FormatError> {
    wire::encode(&RULES, schema, rows)
}

/// Decodes an Avro file.
pub fn decode(data: &[u8]) -> Result<(FileSchema, Vec<Vec<PhysicalValue>>), FormatError> {
    wire::decode(&RULES, data)
}

/// Encodes an Avro file from a columnar batch (byte-identical to [`encode`]).
pub fn encode_batch(batch: &crate::batch::RecordBatch) -> Result<Vec<u8>, FormatError> {
    crate::batch::encode(&RULES, batch)
}

/// Decodes an Avro file into a columnar batch.
pub fn decode_batch(data: &[u8]) -> Result<crate::batch::RecordBatch, FormatError> {
    crate::batch::decode(&RULES, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::PhysicalType;

    #[test]
    fn avro_rejects_small_ints() {
        let schema = FileSchema::of(vec![("b", PhysicalType::Int8)]);
        assert!(matches!(
            encode(&schema, &[]),
            Err(FormatError::UnsupportedType { .. })
        ));
    }

    #[test]
    fn avro_rejects_non_string_map_keys() {
        let schema = FileSchema::of(vec![(
            "m",
            PhysicalType::Map(Box::new(PhysicalType::Int32), Box::new(PhysicalType::Utf8)),
        )]);
        assert!(encode(&schema, &[]).is_err());
        // String keys are fine.
        let ok = FileSchema::of(vec![(
            "m",
            PhysicalType::Map(Box::new(PhysicalType::Utf8), Box::new(PhysicalType::Int32)),
        )]);
        assert!(encode(&ok, &[]).is_ok());
    }

    /// The context an error names is rendered only for the error, and
    /// reads as it always has, from either encoder.
    #[test]
    fn avro_type_errors_keep_their_text() {
        let cases = [
            (
                PhysicalType::Int8,
                "avro-sim does not support Int8 (column c)",
            ),
            (
                PhysicalType::Map(Box::new(PhysicalType::Int32), Box::new(PhysicalType::Utf8)),
                "avro-sim does not support Int32 (column c: map keys must be strings)",
            ),
            (
                PhysicalType::Struct(vec![(
                    "f".into(),
                    PhysicalType::List(Box::new(PhysicalType::Int16)),
                )]),
                "avro-sim does not support Int16 (column c.f)",
            ),
        ];
        for (ty, text) in cases {
            let schema = FileSchema::of(vec![("c", ty)]);
            assert_eq!(encode(&schema, &[]).unwrap_err().to_string(), text);
            let batch = crate::batch::RecordBatch::new(schema);
            assert_eq!(encode_batch(&batch).unwrap_err().to_string(), text);
        }
    }

    #[test]
    fn avro_round_trip() {
        let schema = FileSchema::of(vec![("x", PhysicalType::Int32)]);
        let rows = vec![vec![PhysicalValue::Int32(42)]];
        let bytes = encode(&schema, &rows).unwrap();
        let (s, r) = decode(&bytes).unwrap();
        assert_eq!(s, schema);
        assert_eq!(r, rows);
    }
}
