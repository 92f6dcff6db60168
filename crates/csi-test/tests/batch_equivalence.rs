//! Row-path vs columnar-path equivalence.
//!
//! The columnar data plane replaced the row-at-a-time serializers; rows
//! now stop at the statement edge, where `csi_core::column` transposes
//! them once. These tests pin the contract that made that swap safe:
//!
//! - written **bytes** are identical between the retained row serializers
//!   (`write_file_rows`) and the production path (`write_columns` after
//!   `columns_from_rows`), for every catalogue input, both engines, all
//!   three formats;
//! - **reads** decode to the same rows (or the same error) either way
//!   (`read_file_rows` vs `rows_from_columns` after `read_columns`);
//! - [`ValueColumn`] round-trips every `Value` shape losslessly, so the
//!   statement edges and the differential oracle's fingerprints never see
//!   a transposition artifact.

use csi_core::column::{columns_from_rows, rows_from_columns, ValueColumn};
use csi_core::diag::DiagSink;
use csi_core::value::{DataType, Decimal, Value};
use csi_test::generator::{bulk_schema, generate_bulk_columns, generate_inputs};
use minihive::metastore::{ColumnDef, StorageFormat};
use minihive::HiveType;
use minispark::SparkConfig;
use proptest::prelude::*;

fn formats() -> [StorageFormat; 3] {
    StorageFormat::ALL
}

/// Spark: for every catalogue input and format, the columnar path and
/// the retained row serializer must emit identical bytes (or identical
/// errors), and the two read paths must agree on the decoded rows.
#[test]
fn spark_serde_rows_and_columns_agree_on_catalogue() {
    let config = SparkConfig::default();
    for input in generate_inputs() {
        let schema = vec![csi_core::value::StructField::new(
            "c",
            input.column_type.clone(),
        )];
        let rows = vec![vec![input.value.clone()]];
        for format in formats() {
            let fname = format.name();
            let via_rows = minispark::serde_layer::write_file_rows(format, &schema, &rows, &config);
            let cols = columns_from_rows(std::slice::from_ref(&input.column_type), &rows)
                .expect("one cell per row");
            let via_cols = minispark::serde_layer::write_columns(format, &schema, &cols, &config);
            match (&via_rows, &via_cols) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a, b,
                    "write bytes diverge for input {} ({}) via {}",
                    input.id, input.label, fname
                ),
                (Err(a), Err(b)) => assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "write errors diverge for input {} via {fname}",
                    input.id
                ),
                _ => panic!(
                    "write outcome diverges for input {} via {fname}: rows={via_rows:?} cols={via_cols:?}",
                    input.id
                ),
            }
            if let Ok(bytes) = via_cols {
                let read_rows =
                    minispark::serde_layer::read_file_rows(format, &schema, &bytes, &config);
                let read_cols =
                    minispark::serde_layer::read_columns(format, &schema, &bytes, &config)
                        .map(|cols| rows_from_columns(&cols));
                match (read_rows, read_cols) {
                    (Ok(a), Ok(b)) => assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "reads diverge for input {} via {fname}",
                        input.id
                    ),
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => panic!(
                        "read outcome diverges for input {} via {fname}: rows={a:?} cols={b:?}",
                        input.id
                    ),
                }
            }
        }
    }
}

/// Hive: same contract, including the lenient-coercion diagnostics the
/// Hive serde emits while writing.
#[test]
fn hive_serde_rows_and_columns_agree_on_catalogue() {
    let sink = DiagSink::new();
    let diag = sink.handle("minihive");
    for input in generate_inputs() {
        let Ok(hive_type) = HiveType::from_data_type(&input.column_type) else {
            continue; // e.g. INTERVAL columns don't exist in Hive DDL
        };
        let columns = vec![ColumnDef {
            name: "c".into(),
            hive_type,
        }];
        // The engines only hand the serde values that already passed
        // `coerce`; replay that here so both serializers see valid input.
        let coerced = match minihive::value::coerce(&input.value, &columns[0].hive_type, &diag) {
            Ok(v) => v,
            Err(_) => continue,
        };
        let rows = vec![vec![coerced]];
        for format in formats() {
            let fname = format.name();
            sink.drain();
            let via_rows = minihive::serde_layer::write_file_rows(format, &columns, &rows, &diag);
            let row_diags = sink.drain();
            let cols = columns_from_rows(&[columns[0].hive_type.to_data_type()], &rows)
                .expect("one cell per row");
            let via_cols = minihive::serde_layer::write_columns(format, &columns, &cols, &diag);
            let col_diags = sink.drain();
            assert_eq!(
                format!("{row_diags:?}"),
                format!("{col_diags:?}"),
                "write diagnostics diverge for input {} via {fname}",
                input.id
            );
            match (&via_rows, &via_cols) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a, b,
                    "write bytes diverge for input {} ({}) via {}",
                    input.id, input.label, fname
                ),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                _ => panic!(
                    "write outcome diverges for input {} via {fname}: rows={via_rows:?} cols={via_cols:?}",
                    input.id
                ),
            }
            if let Ok(bytes) = via_cols {
                sink.drain();
                let read_rows =
                    minihive::serde_layer::read_file_rows(format, &columns, &bytes, &diag);
                sink.drain();
                let read_cols =
                    minihive::serde_layer::read_columns(format, &columns, &bytes, &diag)
                        .map(|cols| rows_from_columns(&cols));
                sink.drain();
                match (read_rows, read_cols) {
                    (Ok(a), Ok(b)) => assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "reads diverge for input {} via {fname}",
                        input.id
                    ),
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => panic!(
                        "read outcome diverges for input {} via {fname}: rows={a:?} cols={b:?}",
                        input.id
                    ),
                }
            }
        }
    }
}

/// The bulk generator's wide table survives the columnar serde stack
/// byte-faithfully in every format: write columns, read columns, compare
/// canonically against the originals.
#[test]
fn bulk_columns_round_trip_through_every_format() {
    let schema = bulk_schema();
    let cols = generate_bulk_columns(512, 7);
    let config = SparkConfig::default();
    for format in formats() {
        let fname = format.name();
        let bytes = minispark::serde_layer::write_columns(format, &schema, &cols, &config)
            .expect("bulk write");
        let back = minispark::serde_layer::read_columns(format, &schema, &bytes, &config)
            .expect("bulk read");
        for ((field, exp), act) in schema.iter().zip(&cols).zip(&back) {
            assert!(
                exp.canonical_eq(act),
                "column {} diverged via {fname}",
                field.name
            );
            assert_eq!(exp.fingerprint(), act.fingerprint());
        }
    }
}

fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u8>().prop_map(|_| Value::Null),
        any::<bool>().prop_map(Value::Boolean),
        any::<i8>().prop_map(Value::Byte),
        any::<i16>().prop_map(Value::Short),
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        any::<f32>().prop_map(Value::Float),
        any::<f64>().prop_map(Value::Double),
        // Decimal edges: max precision, zero, negative, trailing zeros.
        (any::<i64>(), 0u8..=18).prop_map(|(u, s)| {
            Value::Decimal(Decimal::new(u as i128, 38, s).expect("within bounds"))
        }),
        "\\PC{0,12}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Binary),
        (-719_162i32..=2_932_896).prop_map(Value::Date),
        any::<i64>().prop_map(Value::Timestamp),
        (any::<i32>(), any::<i64>())
            .prop_map(|(months, micros)| Value::Interval { months, micros }),
    ]
}

fn lane_type(v: &Value) -> DataType {
    v.natural_type().unwrap_or(DataType::String)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transposing rows into a [`ValueColumn`] and back is lossless for
    /// every cell shape — homogeneous columns stay in their typed lane,
    /// mixed ones demote, and both round-trip canonically.
    #[test]
    fn value_column_round_trips_any_cells(cells in proptest::collection::vec(arb_cell(), 0..40)) {
        let ty = cells
            .iter()
            .find(|v| !v.is_null())
            .map(lane_type)
            .unwrap_or(DataType::String);
        let col = ValueColumn::from_values(&ty, &cells);
        let back = col.to_values();
        prop_assert_eq!(cells.len(), back.len());
        for (a, b) in cells.iter().zip(&back) {
            prop_assert!(
                a.canonical_eq(b),
                "cell diverged: {:?} vs {:?}", a, b
            );
        }
        // A fresh transposition of the same data fingerprints identically.
        let again = ValueColumn::from_values(&ty, &back);
        prop_assert_eq!(col.fingerprint(), again.fingerprint());
        prop_assert!(col.canonical_eq(&again));
    }

    /// Typed single-type columns (the bulk fast path) round-trip through
    /// the full Spark columnar serde in every format.
    #[test]
    fn typed_columns_round_trip_spark_serde(
        cells in proptest::collection::vec(
            prop_oneof![
                any::<u8>().prop_map(|_| Value::Null),
                any::<i64>().prop_map(Value::Long),
            ],
            1..64,
        ),
    ) {
        let schema = vec![csi_core::value::StructField::new("c", DataType::Long)];
        let col = ValueColumn::from_values(&DataType::Long, &cells);
        let config = SparkConfig::default();
        for format in formats() {
            let fname = format.name();
            let bytes = minispark::serde_layer::write_columns(format, &schema, std::slice::from_ref(&col), &config)
                .expect("write");
            let back = minispark::serde_layer::read_columns(format, &schema, &bytes, &config)
                .expect("read");
            prop_assert!(col.canonical_eq(&back[0]), "diverged via {fname}");
        }
    }
}
