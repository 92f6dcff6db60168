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
//!   a transposition artifact;
//! - every **fast lane** agrees with the path it skips: the decimal
//!   identity lanes with the per-cell casts and the row serializers, the
//!   moving `read_columns` with `read_file_rows`, the typed batch codec
//!   with the row codec on edge values and on every truncation of a file,
//!   and the 64-bit decimal fingerprint with committed values.

use csi_core::column::{columns_from_rows, rows_from_columns, ValueColumn};
use csi_core::diag::DiagSink;
use csi_core::value::{DataType, Decimal, StructField, Value};
use csi_test::generator::{bulk_schema, generate_bulk_columns, generate_inputs};
use miniformats::physical::{FileSchema, PhysicalType, PhysicalValue};
use miniformats::RecordBatch;
use minihdfs::MiniHdfs;
use minihive::metastore::{ColumnDef, Metastore, StorageFormat};
use minihive::{HiveQl, HiveType};
use minispark::config::{StoreAssignmentPolicy, STORE_ASSIGNMENT_POLICY};
use minispark::types::{store_assign, CastOptions};
use minispark::{SparkConfig, SparkSession};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

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

/// The declarations the decimal differentials run against: the bulk
/// table's, an integral one, the widest, and one that is all fraction.
const DECLARED: [(u8, u8); 4] = [(18, 2), (10, 0), (38, 10), (5, 5)];

/// A decimal cell for a `decimal(p,s)` column, drawn to land on both sides
/// of every line the identity lanes draw: NULL, declared exactly and
/// fitting, another scale, another declared precision, more digits than
/// `p`, and beyond `i64`.
fn arb_decimal_cell(p: u8, s: u8) -> impl Strategy<Value = Value> {
    let fitting = move |hi: u64, lo: u64| {
        let bound = 10i128.pow(p as u32);
        ((hi as i128) << 64 | lo as i128) % bound
    };
    prop_oneof![
        any::<u8>().prop_map(|_| Value::Null),
        (any::<u64>(), any::<u64>()).prop_map(move |(hi, lo)| {
            Value::Decimal(Decimal::new(fitting(hi, lo), p, s).expect("fits p digits"))
        }),
        (any::<u64>(), any::<u64>()).prop_map(move |(hi, lo)| {
            Value::Decimal(Decimal::new(fitting(hi, lo), p, s).expect("fits p digits"))
        }),
        (any::<i32>(), 0u8..=12).prop_map(|(u, scale)| Value::Decimal(Decimal {
            unscaled: u as i128,
            precision: 38,
            scale,
        })),
        any::<i16>().prop_map(move |u| Value::Decimal(Decimal {
            unscaled: u as i128,
            precision: p.max(6) - 1,
            scale: s.min(p.max(6) - 1),
        })),
        (any::<u64>(), 0u32..=4).prop_map(move |(u, extra)| Value::Decimal(Decimal {
            unscaled: 10i128.pow((p as u32 + extra).min(38)) + u as i128,
            precision: p,
            scale: s,
        })),
        any::<i64>().prop_map(move |u| Value::Decimal(Decimal {
            unscaled: (u as i128) << 40,
            precision: 38,
            scale: s,
        })),
    ]
}

fn spark_session(
    policy: &str,
) -> (
    SparkSession,
    Arc<Mutex<Metastore>>,
    Arc<Mutex<MiniHdfs>>,
    DiagSink,
) {
    let sink = DiagSink::new();
    let metastore = Arc::new(Mutex::new(Metastore::new()));
    let fs = Arc::new(Mutex::new(MiniHdfs::with_datanodes(3)));
    let mut s = SparkSession::connect(metastore.clone(), fs.clone(), sink.handle("minispark"));
    s.config.set(STORE_ASSIGNMENT_POLICY, policy);
    (s, metastore, fs, sink)
}

/// The bytes of a table's data files, oldest first.
fn table_files(metastore: &Mutex<Metastore>, fs: &Mutex<MiniHdfs>, table: &str) -> Vec<Vec<u8>> {
    let ms = metastore.lock();
    let fs = fs.lock();
    let def = ms
        .get_table("default", table)
        .expect("table exists")
        .clone();
    ms.table_data_files(&def, &fs)
        .expect("listing")
        .iter()
        .map(|p| fs.read(p).expect("data file").to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A cell the identity predicate accepts is returned unchanged by
    /// Spark's cast under all three store-assignment policies and by
    /// Hive's `coerce`, silently.
    #[test]
    fn identity_decimals_are_fixed_points_of_every_cast(
        which in 0usize..DECLARED.len(),
        seed in any::<u64>(),
        len in 1usize..24,
    ) {
        let (p, s) = DECLARED[which];
        let ty = DataType::Decimal(p, s);
        for cell in decimal_cells(p, s, seed, len, true) {
            if cell.is_null() {
                continue;
            }
            for policy in [
                StoreAssignmentPolicy::Ansi,
                StoreAssignmentPolicy::Legacy,
                StoreAssignmentPolicy::Strict,
            ] {
                let opts = CastOptions { policy, char_varchar_as_string: false, date_range_check: false };
                prop_assert_eq!(store_assign(&cell, &ty, opts).expect("identity cell casts"), cell.clone());
            }
            let sink = DiagSink::new();
            let coerced = minihive::value::coerce(&cell, &HiveType::Decimal(p, s), &sink.handle("h"));
            prop_assert_eq!(coerced.expect("identity cell coerces"), cell);
            prop_assert!(sink.drain().is_empty());
        }
    }

    /// DataFrame: `insert_columns` over a decimal lane — identity or not —
    /// leaves the file the per-cell cast plus the row serializer would,
    /// the file `insert_into` of the same cells leaves, with the same
    /// diagnostics and the same error, whatever the session's policy says
    /// (the DataFrame writer follows the legacy cast regardless).
    #[test]
    fn spark_decimal_lanes_match_the_per_cell_cast_and_row_serializer(
        which in 0usize..DECLARED.len(),
        seed in any::<u64>(),
        len in 1usize..24,
        all_identity in any::<bool>(),
    ) {
        let (p, s) = DECLARED[which];
        let cells = decimal_cells(p, s, seed, len, all_identity);
        let ty = DataType::Decimal(p, s);
        let schema = vec![StructField::new("d", ty.clone())];
        let col = ValueColumn::from_values(&ty, &cells);
        let rows: Vec<Vec<Value>> = cells.iter().map(|c| vec![c.clone()]).collect();
        for policy in ["ANSI", "LEGACY", "STRICT"] {
            for format in formats() {
                // One deployment per insert, so both name their table alike.
                let insert = |by_columns: bool| {
                    let (spark, metastore, fs, sink) = spark_session(policy);
                    let df = spark.dataframe();
                    df.create_table("t", &schema, format).expect("create");
                    sink.drain();
                    let outcome = if by_columns {
                        df.insert_columns("t", std::slice::from_ref(&col))
                    } else {
                        df.insert_into("t", &rows)
                    };
                    let diags = format!("{:?}", sink.drain());
                    (outcome.map_err(|e| e.to_string()), diags, table_files(&metastore, &fs, "t"))
                };
                let (via_cols, col_diags, written) = insert(true);
                let (via_rows, row_diags, row_written) = insert(false);
                prop_assert_eq!(&via_cols, &via_rows);
                prop_assert_eq!(col_diags, row_diags);
                prop_assert_eq!(&written, &row_written);
                // The path both skip: cast cell by cell, serialize row by row.
                let opts = CastOptions {
                    policy: StoreAssignmentPolicy::Legacy,
                    char_varchar_as_string: false,
                    date_range_check: false,
                };
                let cast: Vec<Vec<Value>> = cells
                    .iter()
                    .map(|c| vec![store_assign(c, &ty, opts).expect("legacy never raises")])
                    .collect();
                let reference =
                    minispark::serde_layer::write_file_rows(format, &schema, &cast, &SparkConfig::default())
                        .map_err(|e| e.to_string());
                match (via_cols, reference) {
                    (Ok(()), Ok(bytes)) => prop_assert_eq!(written, vec![bytes]),
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (a, b) => prop_assert!(false, "insert {:?} vs reference {:?}", a, b.map(|b| b.len())),
                }
            }
        }
    }

    /// HiveQL: the same contract against `coerce` cell by cell and Hive's
    /// row serializer — bytes, warnings in order, errors.
    #[test]
    fn hive_decimal_lanes_match_per_cell_coerce_and_row_serializer(
        which in 0usize..DECLARED.len(),
        seed in any::<u64>(),
        len in 1usize..24,
        all_identity in any::<bool>(),
    ) {
        let (p, s) = DECLARED[which];
        let cells = decimal_cells(p, s, seed, len, all_identity);
        let ty = DataType::Decimal(p, s);
        let col = ValueColumn::from_values(&ty, &cells);
        let columns = vec![ColumnDef { name: "d".into(), hive_type: HiveType::Decimal(p, s) }];
        for format in formats() {
            let sink = DiagSink::new();
            let metastore = Arc::new(Mutex::new(Metastore::new()));
            let fs = Arc::new(Mutex::new(MiniHdfs::with_datanodes(3)));
            let hive = HiveQl::new(metastore.clone(), fs.clone(), sink.handle("minihive"));
            hive.execute(&format!("CREATE TABLE t (d DECIMAL({p},{s})) STORED AS {}", format.name()))
                .expect("create");
            sink.drain();
            let via_cols = hive.insert_columns("t", std::slice::from_ref(&col)).map_err(|e| e.to_string());
            let col_diags = format!("{:?}", sink.drain());
            let diag = sink.handle("minihive");
            let reference = cells
                .iter()
                .map(|c| minihive::value::coerce(c, &columns[0].hive_type, &diag).map(|v| vec![v]))
                .collect::<Result<Vec<_>, _>>()
                .and_then(|rows| minihive::serde_layer::write_file_rows(format, &columns, &rows, &diag))
                .map_err(|e| e.to_string());
            prop_assert_eq!(col_diags, format!("{:?}", sink.drain()));
            match (via_cols, reference) {
                (Ok(()), Ok(bytes)) => prop_assert_eq!(table_files(&metastore, &fs, "t"), vec![bytes]),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "insert {:?} vs reference {:?}", a, b.map(|b| b.len())),
            }
        }
    }

    /// Hive's serde writer alone, on lanes that never met `coerce` (what
    /// `write_columns` is handed by a caller other than the engine): the
    /// no-rescale lane and the rescaling one both match the row writer.
    #[test]
    fn hive_serde_decimal_lanes_match_the_row_writer(
        which in 0usize..DECLARED.len(),
        seed in any::<u64>(),
        len in 1usize..24,
        all_identity in any::<bool>(),
    ) {
        let (p, s) = DECLARED[which];
        let cells = decimal_cells(p, s, seed, len, all_identity);
        let col = ValueColumn::from_values(&DataType::Decimal(p, s), &cells);
        let rows: Vec<Vec<Value>> = cells.iter().map(|c| vec![c.clone()]).collect();
        let columns = vec![ColumnDef { name: "d".into(), hive_type: HiveType::Decimal(p, s) }];
        let sink = DiagSink::new();
        let diag = sink.handle("minihive");
        for format in formats() {
            let via_cols = minihive::serde_layer::write_columns(format, &columns, std::slice::from_ref(&col), &diag)
                .map_err(|e| e.to_string());
            let col_diags = format!("{:?}", sink.drain());
            let via_rows = minihive::serde_layer::write_file_rows(format, &columns, &rows, &diag)
                .map_err(|e| e.to_string());
            prop_assert_eq!(col_diags, format!("{:?}", sink.drain()));
            prop_assert_eq!(via_cols, via_rows);
        }
    }
}

/// `len` cells for a `decimal(p,s)` column from a private stream; with
/// `all_identity`, only NULLs and exactly-declared fitting cells, so the
/// whole lane takes the identity path.
fn decimal_cells(p: u8, s: u8, seed: u64, len: usize, all_identity: bool) -> Vec<Value> {
    let strategy = arb_decimal_cell(p, s);
    let mut rng = proptest::test_runner::TestRng::deterministic();
    for _ in 0..seed % 101 {
        rng.next_u64();
    }
    let ty = DataType::Decimal(p, s);
    let mut cells = Vec::with_capacity(len);
    while cells.len() < len {
        let cell = strategy.generate(&mut rng);
        let identity = cell.is_null()
            || ValueColumn::from_values(&ty, std::slice::from_ref(&cell))
                .decimals_are_exactly(p, s);
        if identity || !all_identity {
            cells.push(cell);
        }
    }
    cells
}

/// A file of every flat lane (and one nested) whose read schema names a
/// physical column twice by case, skips one, and names one the file does
/// not have: the moving `read_columns` and `read_file_rows` agree on the
/// rows, engine by engine, format by format.
#[test]
fn moving_reads_agree_with_row_reads_on_repeated_and_missing_columns() {
    let write_schema = vec![
        StructField::new("n", DataType::Long),
        StructField::new("Text", DataType::String),
        StructField::new("d", DataType::Decimal(18, 2)),
        StructField::new("bin", DataType::Binary),
        StructField::new("ts", DataType::Timestamp),
        StructField::new("skipped", DataType::Double),
        StructField::new("xs", DataType::Array(Box::new(DataType::Int))),
    ];
    let rows: Vec<Vec<Value>> = (0..70i64)
        .map(|i| {
            if i % 9 == 4 {
                return vec![Value::Null; 7];
            }
            vec![
                Value::Long(i << 57),
                Value::Str(format!("r{i}-\u{e9}\u{4e16}")),
                Value::Decimal(Decimal::new(i as i128 * 12_345 - 400_000, 18, 2).unwrap()),
                Value::Binary(vec![i as u8; (i % 5) as usize]),
                Value::Timestamp(i * 86_400_000_000 + 1_000_000_000_000_000),
                Value::Double(i as f64 / 8.0),
                Value::Array(vec![Value::Int(i as i32), Value::Null]),
            ]
        })
        .collect();
    let cols = columns_from_rows(write_schema.iter().map(|f| &f.data_type), &rows).unwrap();
    let read_names = [
        "text", "n", "TEXT", "absent", "D", "ts", "xs", "bin", "N", "d",
    ];
    let by_name = |name: &str| {
        write_schema
            .iter()
            .find(|f| f.name.eq_ignore_ascii_case(name))
            .map_or(DataType::Int, |f| f.data_type.clone())
    };
    let config = SparkConfig::default();
    let sink = DiagSink::new();
    let diag = sink.handle("minihive");
    for format in formats() {
        let spark_bytes =
            minispark::serde_layer::write_columns(format, &write_schema, &cols, &config).unwrap();
        let read_schema: Vec<StructField> = read_names
            .iter()
            .map(|n| StructField::new(*n, by_name(n)))
            .collect();
        let via_rows =
            minispark::serde_layer::read_file_rows(format, &read_schema, &spark_bytes, &config)
                .unwrap();
        let via_cols =
            minispark::serde_layer::read_columns(format, &read_schema, &spark_bytes, &config)
                .unwrap();
        assert_eq!(
            rows_from_columns(&via_cols),
            via_rows,
            "spark via {}",
            format.name()
        );
        // Both readers of a repeated column see all of it, not a moved-out husk.
        assert_eq!(via_cols[0].to_values(), via_cols[2].to_values());
        assert_eq!(via_cols[0].null_count(), 8);

        let write_defs: Vec<ColumnDef> = write_schema
            .iter()
            .map(|f| ColumnDef {
                name: f.name.clone(),
                hive_type: HiveType::from_data_type(&f.data_type).unwrap(),
            })
            .collect();
        let hive_bytes =
            minihive::serde_layer::write_columns(format, &write_defs, &cols, &diag).unwrap();
        let read_defs: Vec<ColumnDef> = read_names
            .iter()
            .map(|n| ColumnDef {
                name: n.to_string(),
                hive_type: HiveType::from_data_type(&by_name(n)).unwrap(),
            })
            .collect();
        sink.drain();
        let via_rows =
            minihive::serde_layer::read_file_rows(format, &read_defs, &hive_bytes, &diag).unwrap();
        sink.drain();
        let via_cols =
            minihive::serde_layer::read_columns(format, &read_defs, &hive_bytes, &diag).unwrap();
        assert_eq!(
            rows_from_columns(&via_cols),
            via_rows,
            "hive via {}",
            format.name()
        );
        let warned = sink.drain();
        assert_eq!(
            warned.len(),
            1,
            "one warning per file for the missing column: {warned:?}"
        );
        assert_eq!(warned[0].code, "HIVE_MISSING_COLUMN");
    }
}

/// Every LEB128 length 1–10 of an `i64`, both signs and both extremes.
fn varint_edges() -> Vec<i64> {
    let mut out = vec![0, -1, 1, i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1];
    for bytes in 1..=9u32 {
        // The zig-zagged value crosses into `bytes + 1` bytes at 2^(7·bytes).
        let edge = 1i64 << (7 * bytes - 1);
        out.extend([edge - 1, edge, -edge, -edge - 1]);
    }
    out
}

fn edge_schema() -> FileSchema {
    FileSchema::of(vec![
        ("l", PhysicalType::Int64),
        ("i", PhysicalType::Int32),
        ("dec", PhysicalType::Decimal),
        ("s", PhysicalType::Utf8),
        ("bin", PhysicalType::Bytes),
        ("f", PhysicalType::Float64),
        ("b", PhysicalType::Bool),
    ])
}

fn edge_rows() -> Vec<Vec<PhysicalValue>> {
    let strings = [0usize, 1, 31, 32, 33, 200].map(|n| "x".repeat(n));
    let decimals = [
        0i128,
        i64::MAX as i128,
        i64::MIN as i128,
        i64::MAX as i128 + 1,
        i64::MIN as i128 - 1,
        i128::MAX / 2,
        i128::MIN / 2,
        10i128.pow(37),
    ];
    varint_edges()
        .into_iter()
        .enumerate()
        .map(|(k, v)| {
            if k % 11 == 5 {
                return vec![PhysicalValue::Null; 7];
            }
            vec![
                PhysicalValue::Int64(v),
                PhysicalValue::Int32(v as i32),
                PhysicalValue::Decimal {
                    unscaled: decimals[k % decimals.len()],
                    scale: (k % 39) as u8,
                },
                PhysicalValue::Utf8(format!("{}\u{4e16}", strings[k % strings.len()])),
                PhysicalValue::Bytes(strings[(k + 1) % strings.len()].as_bytes().to_vec()),
                PhysicalValue::Float64(f64::from_bits(v as u64)),
                PhysicalValue::Bool(v & 1 == 1),
            ]
        })
        .collect()
}

type RowCodec = (
    fn(&FileSchema, &[Vec<PhysicalValue>]) -> Result<Vec<u8>, miniformats::FormatError>,
    fn(&[u8]) -> Result<(FileSchema, Vec<Vec<PhysicalValue>>), miniformats::FormatError>,
);
type BatchCodec = (
    fn(&RecordBatch) -> Result<Vec<u8>, miniformats::FormatError>,
    fn(&[u8]) -> Result<RecordBatch, miniformats::FormatError>,
);

const CODECS: [(RowCodec, BatchCodec); 3] = [
    (
        (miniformats::orc::encode, miniformats::orc::decode),
        (
            miniformats::orc::encode_batch,
            miniformats::orc::decode_batch,
        ),
    ),
    (
        (miniformats::parquet::encode, miniformats::parquet::decode),
        (
            miniformats::parquet::encode_batch,
            miniformats::parquet::decode_batch,
        ),
    ),
    (
        (miniformats::avro::encode, miniformats::avro::decode),
        (
            miniformats::avro::encode_batch,
            miniformats::avro::decode_batch,
        ),
    ),
];

/// `decode_batch` and `decode` agree on `bytes`: the same rows (NaN-proof,
/// via `Debug`) or the same `FormatError`.
fn assert_decoders_agree(codec: &(RowCodec, BatchCodec), bytes: &[u8], what: &str) {
    let rows = (codec.0 .1)(bytes).map(|(schema, rows)| format!("{schema:?} {rows:?}"));
    let batch = (codec.1 .1)(bytes).map(|b| format!("{:?} {:?}", b.schema, b.to_rows()));
    assert_eq!(batch, rows, "{what}");
}

/// Rows of the edge file whose every single-byte edit is decoded: the
/// varint extremes, both decimals whose tenth byte is 2, and strings and
/// binaries on both sides of the 32-byte window and past it.
const HOSTILE_ROWS: usize = 5;

/// Every single-bit flip and every single-byte deletion of `bytes`.
fn single_byte_edits(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let flips = (0..bytes.len() * 8).map(move |bit| {
        let mut v = bytes.to_vec();
        v[bit / 8] ^= 1 << (bit % 8);
        (format!("bit {bit} flipped"), v)
    });
    let deletions = (0..bytes.len()).map(move |at| {
        let v = [&bytes[..at], &bytes[at + 1..]].concat();
        (format!("byte {at} deleted"), v)
    });
    flips.chain(deletions)
}

/// The batch codec is the row codec on the values where their kernels
/// differ most: every varint length, both `i64` extremes, decimals on both
/// sides of `i64`, strings around the 32-byte copy window, NaN bit
/// patterns — on every truncation of the file those make, and on every
/// single-bit flip and single-byte deletion of its first rows.
#[test]
fn batch_codec_is_the_row_codec_on_edge_values_and_every_truncation() {
    let (schema, rows) = (edge_schema(), edge_rows());
    for codec in &CODECS {
        let bytes = (codec.0 .0)(&schema, &rows).expect("row encode");
        let batch = RecordBatch::from_rows(&schema, &rows).expect("batch");
        assert_eq!((codec.1 .0)(&batch).expect("batch encode"), bytes);
        assert_decoders_agree(codec, &bytes, "the whole file");
        let decoded = (codec.1 .1)(&bytes).expect("batch decode");
        assert_eq!(format!("{:?}", decoded.to_rows()), format!("{rows:?}"));
        let footer = &bytes[bytes.len() - 4..];
        for cut in 0..bytes.len() {
            assert_decoders_agree(codec, &bytes[..cut], &format!("cut at {cut}"));
            // The body cut short under an intact footer: the error comes
            // from inside the cells, not from the missing magic.
            let resealed = [&bytes[..cut], footer].concat();
            assert_decoders_agree(codec, &resealed, &format!("cut at {cut}, resealed"));
        }
        // Hostile bytes: each edit as written, and with its last four
        // bytes resealed to the footer where the edit broke them, so a
        // flip in the footer or a deletion that shifts it still reaches
        // the cells.
        let head = (codec.0 .0)(&schema, &rows[..HOSTILE_ROWS]).expect("row encode");
        for (what, edited) in single_byte_edits(&head) {
            assert_decoders_agree(codec, &edited, &what);
            let body = &edited[..edited.len() - 4];
            if &edited[body.len()..] != footer {
                let resealed = [body, footer].concat();
                assert_decoders_agree(codec, &resealed, &format!("{what}, resealed"));
            }
        }
    }
}

const FLAT: [PhysicalType; 10] = [
    PhysicalType::Bool,
    PhysicalType::Int8,
    PhysicalType::Int16,
    PhysicalType::Int32,
    PhysicalType::Int64,
    PhysicalType::Float32,
    PhysicalType::Float64,
    PhysicalType::Decimal,
    PhysicalType::Utf8,
    PhysicalType::Bytes,
];

/// An integer of a random width, so every varint length turns up, of
/// either sign; `i64::MIN` and `i64::MAX` one time in eight.
fn any_width(next: &mut dyn FnMut() -> u64) -> i64 {
    let r = next();
    match r % 16 {
        0 => i64::MIN,
        1 => i64::MAX,
        _ => (next() >> ((r >> 8) % 64)) as i64 ^ -((r >> 16) as i64 & 1),
    }
}

/// A cell of a flat type: integers of every varint length and both signs
/// (and both `i64` extremes), decimals past `i64` both ways, strings and
/// binaries of 0–40 bytes, any float bits. `worst` draws the cell that
/// advances the batch encoder the most.
fn flat_cell(ty: &PhysicalType, next: &mut dyn FnMut() -> u64, worst: bool) -> PhysicalValue {
    match ty {
        PhysicalType::Bool => PhysicalValue::Bool(next() & 1 == 1),
        PhysicalType::Int8 if worst => PhysicalValue::Int8(i8::MIN),
        PhysicalType::Int16 if worst => PhysicalValue::Int16(i16::MIN),
        PhysicalType::Int32 if worst => PhysicalValue::Int32(i32::MIN),
        PhysicalType::Int64 if worst => PhysicalValue::Int64(i64::MIN),
        PhysicalType::Int8 => PhysicalValue::Int8(any_width(next) as i8),
        PhysicalType::Int16 => PhysicalValue::Int16(any_width(next) as i16),
        PhysicalType::Int32 => PhysicalValue::Int32(any_width(next) as i32),
        PhysicalType::Int64 => PhysicalValue::Int64(any_width(next)),
        PhysicalType::Float32 => PhysicalValue::Float32(f32::from_bits(next() as u32)),
        PhysicalType::Float64 => PhysicalValue::Float64(f64::from_bits(next())),
        PhysicalType::Decimal => {
            let unscaled = match next() % 4 {
                _ if worst => i64::MIN.into(),
                // Past `i64` on either side, by up to 64 bits.
                0 => i128::from(any_width(next)) << (1 + next() % 64),
                _ => any_width(next).into(),
            };
            PhysicalValue::Decimal {
                unscaled,
                scale: (next() % 39) as u8,
            }
        }
        PhysicalType::Utf8 | PhysicalType::Bytes => {
            let len = if worst { 32 } else { (next() % 41) as usize };
            let b: Vec<u8> = (0..len).map(|_| b'a' + (next() % 26) as u8).collect();
            if *ty == PhysicalType::Utf8 {
                PhysicalValue::Utf8(String::from_utf8(b).expect("ascii"))
            } else {
                PhysicalValue::Bytes(b)
            }
        }
        nested => unreachable!("{nested:?} is not flat"),
    }
}

/// A table of `nrows` × `ncols` flat cells: small ints only when
/// `small_ints` (Avro rejects them), a run of NULLs in each column, one
/// row of every cell at its widest, and each variable-width column's
/// longest cell last, ending its arena.
fn flat_table(
    seed: u64,
    nrows: usize,
    ncols: usize,
    small_ints: bool,
) -> (FileSchema, Vec<Vec<PhysicalValue>>) {
    let mut state = seed;
    let mut next = || csi_core::rng::splitmix64(&mut state);
    let types: Vec<PhysicalType> = (0..ncols)
        .map(|_| loop {
            let ty = &FLAT[(next() % FLAT.len() as u64) as usize];
            if small_ints || !matches!(ty, PhysicalType::Int8 | PhysicalType::Int16) {
                break ty.clone();
            }
        })
        .collect();
    let worst = (next() % nrows as u64) as usize;
    let mut rows: Vec<Vec<PhysicalValue>> = (0..nrows)
        .map(|r| {
            types
                .iter()
                .map(|ty| flat_cell(ty, &mut next, r == worst))
                .collect()
        })
        .collect();
    for (c, ty) in types.iter().enumerate() {
        let from = (next() % nrows as u64) as usize;
        let to = from + (next() % (nrows - from) as u64) as usize;
        for row in &mut rows[from..to] {
            row[c] = PhysicalValue::Null;
        }
        if matches!(ty, PhysicalType::Utf8 | PhysicalType::Bytes) {
            let len = |v: &PhysicalValue| match v {
                PhysicalValue::Utf8(s) => s.len(),
                PhysicalValue::Bytes(b) => b.len(),
                _ => 0,
            };
            let longest = (0..nrows).max_by_key(|&r| len(&rows[r][c])).expect("rows");
            let cell = std::mem::replace(&mut rows[longest][c], PhysicalValue::Null);
            let last = std::mem::replace(&mut rows[nrows - 1][c], cell);
            rows[longest][c] = last;
        }
    }
    let names: Vec<String> = (0..ncols).map(|c| format!("c{c}")).collect();
    let schema = FileSchema::of(names.iter().map(String::as_str).zip(types).collect());
    (schema, rows)
}

/// Both encoders on one table, every format: the same bytes or the same
/// error.
fn assert_encoders_agree(schema: &FileSchema, rows: &[Vec<PhysicalValue>], what: &str) {
    let batch = RecordBatch::from_rows(schema, rows).expect("flat cells fit their lanes");
    for codec in &CODECS {
        assert_eq!((codec.1 .0)(&batch), (codec.0 .0)(schema, rows), "{what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `encode_batch` is the row `encode`, byte for byte, on random flat
    /// tables: the batch encoder's one-store-per-cell window against the
    /// reference that appends byte runs.
    #[test]
    fn batch_encoder_is_the_row_encoder_on_random_flat_tables(
        seed in any::<u64>(),
        nrows in 1usize..71,
        ncols in 1usize..13,
        small_ints in any::<bool>(),
    ) {
        let (schema, rows) = flat_table(seed, nrows, ncols, small_ints);
        assert_encoders_agree(&schema, &rows, &format!("seed {seed}, {nrows} x {ncols}"));
    }
}

/// Cells far past the batch encoder's per-cell bounds — 19-byte decimals
/// and 4 KB strings and binaries — outgrow any size it guesses up front.
#[test]
fn batch_encoder_is_the_row_encoder_past_every_bound() {
    let schema = FileSchema::of(vec![
        ("dec", PhysicalType::Decimal),
        ("s", PhysicalType::Utf8),
        ("l", PhysicalType::Int64),
        ("bin", PhysicalType::Bytes),
    ]);
    let rows: Vec<Vec<PhysicalValue>> = (0..70u8)
        .map(|k| {
            vec![
                PhysicalValue::Decimal {
                    unscaled: if k % 2 == 0 { i128::MAX } else { i128::MIN },
                    scale: k % 39,
                },
                PhysicalValue::Utf8(char::from(b'a' + k % 26).to_string().repeat(4096)),
                PhysicalValue::Int64(i64::MIN + i64::from(k)),
                PhysicalValue::Bytes(vec![k; 4096 + usize::from(k)]),
            ]
        })
        .collect();
    assert_encoders_agree(&schema, &rows, "19-byte decimals and 4 KB strings");
}

/// A one-column file of `rows` rows whose cells are `cells` verbatim
/// (lengths and integers zig-zagged, as on the wire).
fn one_cell_file(
    codec: &(RowCodec, BatchCodec),
    ty: PhysicalType,
    rows: usize,
    cells: &[u8],
) -> Vec<u8> {
    let schema = FileSchema::of(vec![("c", ty)]);
    let empty = (codec.0 .0)(&schema, &[]).expect("empty file");
    // header ++ row count (one byte for < 64 rows) ++ cells ++ footer
    let (head, footer) = empty.split_at(empty.len() - 4);
    assert_eq!(head[head.len() - 1], 0, "zero rows is one byte");
    assert!(rows < 64);
    [&head[..head.len() - 1], &[(rows as u8) << 1], cells, footer].concat()
}

/// Hand-made cells no encoder emits: an eleven-byte varint that still
/// fits `i64`, a tenth byte carrying bits past the 64th, a varint that
/// never ends, a tag the column does not declare, and one multi-byte
/// character split across two adjacent string cells (each cell invalid,
/// their concatenation valid).
#[test]
fn batch_decoder_is_the_row_decoder_on_hand_made_cells() {
    let nine = [0xffu8; 9];
    let cases: Vec<(&str, PhysicalType, usize, Vec<u8>)> = vec![
        (
            "i64::MIN in ten bytes",
            PhysicalType::Int64,
            1,
            [&[5][..], &nine, &[0x01]].concat(),
        ),
        (
            "an eleven-byte varint",
            PhysicalType::Int64,
            1,
            [&[5][..], &nine, &[0x81, 0x00]].concat(),
        ),
        (
            "a tenth byte past bit 63",
            PhysicalType::Int64,
            1,
            [&[5][..], &nine, &[0x03]].concat(),
        ),
        (
            "a tenth byte of 0x7f",
            PhysicalType::Int64,
            1,
            [&[5][..], &nine, &[0x7f]].concat(),
        ),
        (
            "a twenty-byte varint",
            PhysicalType::Int64,
            1,
            [&[5][..], &[0xff; 19], &[0x01]].concat(),
        ),
        (
            "a decimal past i64 by its tenth byte",
            PhysicalType::Decimal,
            1,
            [&[8][..], &nine, &[0x03, 2]].concat(),
        ),
        (
            "an int32 that needs 33 bits",
            PhysicalType::Int32,
            1,
            vec![4, 0x80, 0x80, 0x80, 0x80, 0x20],
        ),
        (
            "an int64 cell in an int32 column",
            PhysicalType::Int32,
            2,
            vec![4, 2, 5, 0x80, 0x80, 0x80, 0x80, 0x20],
        ),
        (
            "a string cell in a bytes column",
            PhysicalType::Bytes,
            2,
            vec![10, 2, b'a', 9, 2, b'b'],
        ),
        (
            "one character split across two string cells",
            PhysicalType::Utf8,
            2,
            vec![9, 4, b'a', 0xe4, 9, 6, 0xb8, 0x96, b'b'],
        ),
        (
            "a string cell cut inside a character",
            PhysicalType::Utf8,
            1,
            vec![9, 4, 0xe4, 0xb8],
        ),
        (
            "a string of valid characters",
            PhysicalType::Utf8,
            2,
            vec![9, 6, 0xe4, 0xb8, 0x96, 0],
        ),
    ];
    for codec in &CODECS {
        for (what, ty, rows, cells) in &cases {
            let bytes = one_cell_file(codec, ty.clone(), *rows, cells);
            assert_decoders_agree(codec, &bytes, what);
        }
        // The split character is an error, not a silently merged string.
        let split = one_cell_file(codec, PhysicalType::Utf8, 2, &cases[9].3);
        assert!((codec.1 .1)(&split).is_err());
        let whole = one_cell_file(codec, PhysicalType::Utf8, 2, &cases[11].3);
        assert!((codec.1 .1)(&whole).is_ok());
    }
}

/// `ValueColumn::fingerprint` of decimal lanes, pinned to the values the
/// 128-bit arithmetic produced: trailing zeros stripped to several depths,
/// negatives, NULLs, and cells only `i128` holds.
#[test]
fn decimal_fingerprints_hold_their_committed_values() {
    let dec = |unscaled: i128, scale: u8| {
        Value::Decimal(Decimal {
            unscaled,
            precision: 38,
            scale,
        })
    };
    let vectors: [(&[Value], u64); 4] = [
        (
            &[
                dec(120, 2),
                Value::Null,
                dec(-4_500, 3),
                dec(0, 5),
                dec(7, 0),
            ],
            FINGERPRINTS[0],
        ),
        (
            &[
                dec(i64::MAX as i128, 4),
                dec(i64::MIN as i128, 0),
                dec(-1, 1),
            ],
            FINGERPRINTS[1],
        ),
        (
            &[
                dec(i64::MAX as i128 + 1, 2),
                dec(-(1i128 << 100), 10),
                dec(10i128.pow(30), 30),
                dec(-(10i128.pow(20)) * 3, 7),
                Value::Null,
            ],
            FINGERPRINTS[2],
        ),
        (
            &[
                dec(9_223_372_036_854_775_800, 2),
                dec(-9_223_372_036_854_775_800, 18),
            ],
            FINGERPRINTS[3],
        ),
    ];
    for (cells, expected) in vectors {
        let col = ValueColumn::from_values(&DataType::Decimal(38, 2), cells);
        assert_eq!(col.fingerprint(), expected, "{cells:?}");
    }
}

/// Computed at the commit before decimals were fingerprinted in 64 bits.
const FINGERPRINTS: [u64; 4] = [
    0x47fd_b471_f434_491f,
    0x45c2_4aeb_2a5a_614e,
    0x784e_61b9_73de_e24e,
    0xe5d5_4acc_5d1e_aed5,
];

/// Everything the bulk data plane writes, as `(what, FNV-1a)` pairs: the
/// generator's columns (their `Debug`, so NULL placeholders count too);
/// every file both engines' `write_columns` make of them in each format,
/// with the `table_digest` of that file read back by each engine; and
/// `run_bulk`'s rendered report and report JSON at row counts around a
/// validity word.
fn bulk_digests() -> Vec<(String, u64)> {
    let schema = bulk_schema();
    let defs: Vec<ColumnDef> = schema
        .iter()
        .map(|f| ColumnDef {
            name: f.name.clone(),
            hive_type: HiveType::from_data_type(&f.data_type).expect("bulk types exist in Hive"),
        })
        .collect();
    let config = SparkConfig::default();
    let sink = DiagSink::new();
    let diag = sink.handle("minihive");
    let mut out = Vec::new();
    for seed in [42u64, 7] {
        let cols = generate_bulk_columns(4096, seed);
        out.push((
            format!("generator seed {seed}"),
            csi_core::hash::fnv1a(format!("{cols:?}").as_bytes()),
        ));
        for format in formats() {
            let written = [
                (
                    "spark",
                    minispark::serde_layer::write_columns(format, &schema, &cols, &config)
                        .expect("spark bulk write"),
                ),
                (
                    "hive",
                    minihive::serde_layer::write_columns(format, &defs, &cols, &diag)
                        .expect("hive bulk write"),
                ),
            ];
            for (writer, bytes) in written {
                let mut h = csi_core::hash::Fnv1a::new();
                h.bytes(&bytes);
                let spark = minispark::serde_layer::read_columns(format, &schema, &bytes, &config)
                    .expect("spark bulk read");
                h.bytes(&csi_test::bulk::table_digest(&spark).to_le_bytes());
                let hive = minihive::serde_layer::read_columns(format, &defs, &bytes, &diag)
                    .expect("hive bulk read");
                h.bytes(&csi_test::bulk::table_digest(&hive).to_le_bytes());
                out.push((
                    format!("seed {seed} {writer} {}", format.name()),
                    h.finish(),
                ));
            }
        }
    }
    for rows in [1usize, 63, 64, 65, 4096] {
        let report = csi_test::Campaign::new(&[]).run_bulk(rows);
        let mut h = csi_core::hash::Fnv1a::new();
        h.bytes(report.render().as_bytes());
        h.bytes(
            serde_json::to_string(&report)
                .expect("bulk reports serialize")
                .as_bytes(),
        );
        out.push((format!("run_bulk rows {rows}"), h.finish()));
    }
    assert!(sink.drain().is_empty(), "clean bulk data draws no warning");
    out
}

/// The bulk generator, both serde stacks' columnar writers and readers in
/// every format, and the bulk report, pinned byte for byte to what they
/// produced before the codec's per-cell loops were last rewritten.
#[test]
fn bulk_bytes_hold_their_committed_digests() {
    let actual = bulk_digests();
    let now: String = actual
        .iter()
        .map(|(what, d)| format!("    ({what:?}, {d:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = BULK_DIGESTS
        .iter()
        .map(|(what, d)| (what.to_string(), *d))
        .collect();
    assert!(actual == want, "the digests now:\n{now}");
}

/// Computed at the commit before the codec's fast paths took `Option`
/// primitives and a one-store-per-cell writer.
const BULK_DIGESTS: [(&str, u64); 19] = [
    ("generator seed 42", 0xf4fba8f7deda67de),
    ("seed 42 spark ORC", 0x10aa2830ecb247b5),
    ("seed 42 hive ORC", 0xdac816de18df42fc),
    ("seed 42 spark PARQUET", 0x9d3803d6a935fe53),
    ("seed 42 hive PARQUET", 0x8c3913a351ca6e53),
    ("seed 42 spark AVRO", 0x3cdb58e84aeb6491),
    ("seed 42 hive AVRO", 0x541d26f4ba85d164),
    ("generator seed 7", 0x8d07837a5077156c),
    ("seed 7 spark ORC", 0x8f29779dab35a66c),
    ("seed 7 hive ORC", 0x8578e9cd5d339ceb),
    ("seed 7 spark PARQUET", 0x49d8b80cd8e9bfb0),
    ("seed 7 hive PARQUET", 0x4c98ea449da20fb0),
    ("seed 7 spark AVRO", 0xf0fd2ebec2edf97a),
    ("seed 7 hive AVRO", 0xc4b933a34767e59d),
    ("run_bulk rows 1", 0x13219d0181fbe606),
    ("run_bulk rows 63", 0x791778de58adf990),
    ("run_bulk rows 64", 0x0ad8e01536e8e8f4),
    ("run_bulk rows 65", 0x667299e140607a0c),
    ("run_bulk rows 4096", 0x38a59bd8b82ac0f6),
];

/// A bulk table of 65,536 rows, twice the rows from which the codec splits
/// a file between two threads: every file both engines' `write_columns`
/// make of it in each format, with the `table_digest` of that file read
/// back by each engine, as `(what, FNV-1a)` pairs.
fn split_file_digests() -> Vec<(String, u64)> {
    let schema = bulk_schema();
    let defs: Vec<ColumnDef> = schema
        .iter()
        .map(|f| ColumnDef {
            name: f.name.clone(),
            hive_type: HiveType::from_data_type(&f.data_type).expect("bulk types exist in Hive"),
        })
        .collect();
    let config = SparkConfig::default();
    let sink = DiagSink::new();
    let diag = sink.handle("minihive");
    let cols = generate_bulk_columns(65_536, 42);
    let mut out = Vec::new();
    for format in formats() {
        let spark = minispark::serde_layer::write_columns(format, &schema, &cols, &config)
            .expect("spark bulk write");
        let hive = minihive::serde_layer::write_columns(format, &defs, &cols, &diag)
            .expect("hive bulk write");
        for (writer, bytes) in [("spark", spark), ("hive", hive)] {
            out.push((
                format!("{writer} {} bytes", format.name()),
                csi_core::hash::fnv1a(&bytes),
            ));
            let spark = minispark::serde_layer::read_columns(format, &schema, &bytes, &config)
                .expect("spark bulk read");
            let hive = minihive::serde_layer::read_columns(format, &defs, &bytes, &diag)
                .expect("hive bulk read");
            for (reader, table) in [("spark", spark), ("hive", hive)] {
                out.push((
                    format!("{writer} {} read by {reader}", format.name()),
                    csi_test::bulk::table_digest(&table),
                ));
            }
        }
    }
    assert!(sink.drain().is_empty(), "clean bulk data draws no warning");
    out
}

/// Files long enough for the codec to encode and decode them on two
/// threads hold the bytes and the read-back tables of the one-thread codec.
#[test]
fn files_above_the_split_threshold_hold_their_committed_digests() {
    let actual = split_file_digests();
    let now: String = actual
        .iter()
        .map(|(what, d)| format!("    ({what:?}, {d:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = SPLIT_FILE_DIGESTS
        .iter()
        .map(|(what, d)| (what.to_string(), *d))
        .collect();
    assert!(actual == want, "the digests now:\n{now}");
}

/// Computed by the one-thread codec.
const SPLIT_FILE_DIGESTS: [(&str, u64); 18] = [
    ("spark ORC bytes", 0x40eef6ade3617f89),
    ("spark ORC read by spark", 0x84d8858c3310d62f),
    ("spark ORC read by hive", 0x84d8858c3310d62f),
    ("hive ORC bytes", 0x20f23da7f0eb9298),
    ("hive ORC read by spark", 0x84d8858c3310d62f),
    ("hive ORC read by hive", 0x84d8858c3310d62f),
    ("spark PARQUET bytes", 0xbd04f67a84a3c5ef),
    ("spark PARQUET read by spark", 0x84d8858c3310d62f),
    ("spark PARQUET read by hive", 0x84d8858c3310d62f),
    ("hive PARQUET bytes", 0x59d546b0fde1b5ef),
    ("hive PARQUET read by spark", 0x84d8858c3310d62f),
    ("hive PARQUET read by hive", 0x84d8858c3310d62f),
    ("spark AVRO bytes", 0x0d3e4ee1153256d1),
    ("spark AVRO read by spark", 0x84d8858c3310d62f),
    ("spark AVRO read by hive", 0x84d8858c3310d62f),
    ("hive AVRO bytes", 0xcd91eaacd5d6bff4),
    ("hive AVRO read by spark", 0x84d8858c3310d62f),
    ("hive AVRO read by hive", 0x84d8858c3310d62f),
];
