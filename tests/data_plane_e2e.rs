//! Integration tests: data-plane failures end to end through the real
//! substrate stacks (Figure 2/4 and the serde-level discrepancies).

use csi::core::boundary::CrossingContext;
use csi::core::column::{columns_from_rows, rows_from_columns};
use csi::core::diag::DiagSink;
use csi::core::value::{parse_timestamp, DataType, Decimal, StructField, Value};
use csi::hdfs::{HdfsPath, MiniHdfs};
use csi::hive::hiveql::HiveQl;
use csi::hive::metastore::{Metastore, StorageFormat};
use csi::spark::connectors::hdfs::{read_file, LengthCheck};
use csi::spark::SparkSession;
use parking_lot::Mutex;
use std::sync::Arc;

type SharedFs = Arc<Mutex<MiniHdfs>>;

fn deployment() -> (SparkSession, HiveQl, DiagSink, SharedFs) {
    let sink = DiagSink::new();
    let metastore = Arc::new(Mutex::new(Metastore::new()));
    let fs: SharedFs = Arc::new(Mutex::new(MiniHdfs::with_datanodes(3)));
    let spark = SparkSession::connect(metastore.clone(), fs.clone(), sink.handle("minispark"));
    let hive = HiveQl::new(metastore, fs.clone(), sink.handle("minihive"));
    (spark, hive, sink, fs)
}

#[test]
fn figure_2_and_4_compressed_file_length() {
    let mut fs = MiniHdfs::with_datanodes(1);
    let path = HdfsPath::parse("/data/part.gz").unwrap();
    fs.create_compressed(&path, b"payload").unwrap();
    assert_eq!(fs.get_file_status(&path).unwrap().len, -1);
    let err = read_file(
        &fs,
        &path,
        LengthCheck::Shipped,
        &CrossingContext::disabled(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("length (-1) cannot be negative"));
    assert_eq!(
        read_file(&fs, &path, LengthCheck::Fixed, &CrossingContext::disabled())
            .unwrap()
            .as_ref(),
        b"payload"
    );
}

#[test]
fn spark_and_hive_share_one_warehouse() {
    // A plain interoperable table: written by SparkSQL, read by HiveQL.
    let (spark, hive, _, _) = deployment();
    spark
        .sql("CREATE TABLE shared (a INT, b STRING) STORED AS ORC")
        .unwrap();
    spark
        .sql("INSERT INTO shared VALUES (1, 'from spark')")
        .unwrap();
    hive.execute("INSERT INTO shared VALUES (2, 'from hive')")
        .unwrap();
    let spark_view = spark.sql("SELECT * FROM shared").unwrap();
    let hive_view = hive.execute("SELECT * FROM shared").unwrap();
    assert_eq!(spark_view.rows.len(), 2);
    assert_eq!(spark_view.rows, hive_view.rows);
}

#[test]
fn d01_spark_avro_byte_round_trip_fails_but_hive_reads_it() {
    let (spark, hive, _, _) = deployment();
    let df = spark.dataframe();
    df.create_table(
        "b",
        &[StructField::new("c", DataType::Byte)],
        StorageFormat::Avro,
    )
    .unwrap();
    df.insert_into("b", &[vec![Value::Byte(5)]]).unwrap();
    // Spark cannot read its own file back (SPARK-39075)...
    let err = df.read_table("b").unwrap_err();
    assert!(err.to_string().contains("IncompatibleSchema"), "{err}");
    // ... while Hive narrows the widened int happily.
    let r = hive.execute("SELECT * FROM b").unwrap();
    assert_eq!(r.rows[0][0], Value::Byte(5));
}

#[test]
fn d02_dataframe_decimal_unreadable_from_hiveql() {
    let (spark, hive, _, _) = deployment();
    let df = spark.dataframe();
    df.create_table(
        "d",
        &[StructField::new("c", DataType::Decimal(10, 2))],
        StorageFormat::Orc,
    )
    .unwrap();
    df.insert_into("d", &[vec![Value::Decimal(Decimal::parse("1.5").unwrap())]])
        .unwrap();
    // Spark reads its own runtime-scaled decimal back fine...
    let (_, rows) = df.read_table("d").unwrap();
    assert!(rows[0][0].canonical_eq(&Value::Decimal(Decimal::parse("1.5").unwrap())));
    // ... but HiveQL validates the declared scale and fails (SPARK-39158).
    let err = hive.execute("SELECT * FROM d").unwrap_err();
    assert!(err.to_string().contains("scale"), "{err}");
    // SparkSQL's ANSI path rescales on write, which Hive reads fine.
    spark.sql("INSERT INTO d VALUES (2.5)").unwrap();
    let err2 = hive.execute("SELECT * FROM d").unwrap_err();
    // (Still fails on the first file, demonstrating the poisoned table.)
    assert!(err2.to_string().contains("scale"));
}

#[test]
fn d07_julian_rebase_shift_through_parquet() {
    let (spark, hive, _, _) = deployment();
    hive.execute("CREATE TABLE ancient (ts TIMESTAMP) STORED AS PARQUET")
        .unwrap();
    hive.execute("INSERT INTO ancient VALUES (TIMESTAMP '1500-06-01 00:00:00')")
        .unwrap();
    // Hive round-trips its own rebase.
    let hv = hive.execute("SELECT * FROM ancient").unwrap();
    let want = parse_timestamp("1500-06-01 00:00:00").unwrap();
    assert_eq!(hv.rows[0][0], Value::Timestamp(want));
    // Spark (CORRECTED mode) reads the raw Julian value: 10 days off.
    let sv = spark.sql("SELECT * FROM ancient").unwrap();
    assert_eq!(sv.rows[0][0], Value::Timestamp(want - 10 * 86_400_000_000));
    // The LEGACY rebase mode closes the gap for the same session.
    let mut legacy = spark;
    legacy
        .config
        .set(csi::spark::config::PARQUET_REBASE_MODE, "LEGACY");
    let lv = legacy.sql("SELECT * FROM ancient").unwrap();
    assert_eq!(lv.rows[0][0], Value::Timestamp(want));
}

#[test]
fn d14_struct_case_fold_between_interfaces() {
    let (spark, hive, _, _) = deployment();
    let df = spark.dataframe();
    let ty = DataType::Struct(vec![StructField::new("Inner", DataType::Int)]);
    df.create_table("s", &[StructField::new("c", ty)], StorageFormat::Orc)
        .unwrap();
    df.insert_into(
        "s",
        &[vec![Value::Struct(vec![("Inner".into(), Value::Int(3))])]],
    )
    .unwrap();
    // DataFrame sees its case-preserved field...
    let (_, rows) = df.read_table("s").unwrap();
    assert_eq!(
        rows[0][0],
        Value::Struct(vec![("Inner".into(), Value::Int(3))])
    );
    // ... HiveQL reports its lowercase schema.
    let r = hive.execute("SELECT * FROM s").unwrap();
    assert_eq!(
        r.rows[0][0],
        Value::Struct(vec![("inner".into(), Value::Int(3))])
    );
}

#[test]
fn inconsistent_error_behavior_d05_at_the_api_level() {
    let (spark, _, sink, _) = deployment();
    spark
        .sql("CREATE TABLE t (c DECIMAL(10,2)) STORED AS ORC")
        .unwrap();
    // SparkSQL raises...
    let err = spark.sql("INSERT INTO t VALUES (123.456)").unwrap_err();
    assert_eq!(err.code(), "CAST_OVERFLOW");
    // ... the DataFrame writer silently writes NULL.
    sink.drain();
    spark
        .dataframe()
        .insert_into(
            "t",
            &[vec![Value::Decimal(Decimal::parse("123.456").unwrap())]],
        )
        .unwrap();
    // The legacy coercion is silent: the only diagnostics are the schema
    // fallback warnings, never a word about the value written as NULL.
    let diags = sink.drain();
    assert!(
        diags.iter().all(|d| d.code == "NOT_CASE_PRESERVING"),
        "{diags:?}"
    );
    let r = spark.sql("SELECT * FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Null);
}

#[test]
fn schema_evolution_goes_stale_in_the_cached_spark_schema() {
    // Software-evolution hazard (Section 10 "change analysis"): Hive adds
    // a column; Spark's cached case-preserving schema predates it.
    let (spark, hive, _, _) = deployment();
    let df = spark.dataframe();
    df.create_table(
        "e",
        &[StructField::new("a", DataType::Int)],
        StorageFormat::Orc,
    )
    .unwrap();
    df.insert_into("e", &[vec![Value::Int(1)]]).unwrap();
    spark
        .metastore()
        .lock()
        .add_column("default", "e", "b", csi::hive::HiveType::Str)
        .unwrap();
    hive.execute("INSERT INTO e VALUES (2, 'two')").unwrap();
    // Hive sees both columns; old files fill the new one with NULL.
    let hv = hive.execute("SELECT * FROM e").unwrap();
    assert_eq!(hv.columns, vec!["a", "b"]);
    assert_eq!(hv.rows[0], vec![Value::Int(1), Value::Null]);
    assert_eq!(hv.rows[1], vec![Value::Int(2), Value::Str("two".into())]);
    // Spark still resolves through its *stale* cached property schema and
    // does not see the new column at all — neither side is buggy, but
    // their views of the same table have diverged.
    let sv = spark.sql("SELECT * FROM e").unwrap();
    assert_eq!(sv.columns, vec!["a"]);
    assert_eq!(sv.rows.len(), 2);
}

#[test]
fn where_clause_literal_casting_diverges_between_engines() {
    // The same query, two engines: Hive's lenient literal coercion matches
    // nothing on garbage, Spark's ANSI cast raises — the inconsistent-error
    // pattern extends to the query path, not just inserts.
    let (spark, hive, _, _) = deployment();
    spark.sql("CREATE TABLE q (a INT)").unwrap();
    spark.sql("INSERT INTO q VALUES (1), (2), (3)").unwrap();
    let same = "SELECT * FROM q WHERE a > 1";
    assert_eq!(spark.sql(same).unwrap().rows.len(), 2);
    assert_eq!(hive.execute(same).unwrap().rows.len(), 2);
    let garbage = "SELECT * FROM q WHERE a = 'junk'";
    assert!(hive.execute(garbage).unwrap().rows.is_empty()); // Lenient.
    assert!(spark.sql(garbage).is_err()); // ANSI raises.
}

#[test]
fn safe_mode_blocks_both_engines_writes_but_not_reads() {
    // A cross-cutting scenario: the shared filesystem enters safe mode;
    // both engines' writes fail while their reads keep working.
    let (spark, hive, _, fs) = deployment();
    spark.sql("CREATE TABLE t (a INT)").unwrap();
    spark.sql("INSERT INTO t VALUES (1)").unwrap();
    fs.lock().set_safe_mode(true);
    assert!(spark.sql("INSERT INTO t VALUES (2)").is_err());
    assert!(hive.execute("INSERT INTO t VALUES (3)").is_err());
    assert_eq!(spark.sql("SELECT * FROM t").unwrap().rows.len(), 1);
    assert_eq!(hive.execute("SELECT * FROM t").unwrap().rows.len(), 1);
    fs.lock().set_safe_mode(false);
    spark.sql("INSERT INTO t VALUES (2)").unwrap();
    assert_eq!(hive.execute("SELECT * FROM t").unwrap().rows.len(), 2);
}

#[test]
fn sql_inserts_speak_in_statement_order() {
    // The edge contract: a 2x2 INSERT whose offending literals sit at
    // (row 0, col 1) and (row 1, col 0) is cast row-major in both dialects,
    // so row 0 speaks first — column-major would put row 1's cell first.
    let (spark, hive, sink, _) = deployment();
    spark.sql("CREATE TABLE s (a INT, b INT)").unwrap();
    let err = spark
        .sql("INSERT INTO s VALUES (1, 99999999999), ('junk', 2)")
        .unwrap_err();
    assert_eq!(err.code(), "CAST_OVERFLOW"); // Not row 1's CAST_INVALID_INPUT.
    assert!(spark.sql("SELECT * FROM s").unwrap().rows.is_empty());

    hive.execute("CREATE TABLE h (a TINYINT, b TINYINT)")
        .unwrap();
    sink.drain();
    hive.execute("INSERT INTO h VALUES (1, 300), (400, 2)")
        .unwrap();
    let warned: Vec<String> = sink.drain().into_iter().map(|d| d.message).collect();
    assert_eq!(warned.len(), 2, "{warned:?}");
    assert!(warned[0].contains("300") && warned[1].contains("400"));
    let err = hive
        .execute("INSERT INTO h VALUES (1, -'first'), (-'second', 2)")
        .unwrap_err();
    assert!(err.to_string().contains("first"), "{err}");
    assert_eq!(hive.execute("SELECT * FROM h").unwrap().rows.len(), 2);
}

#[test]
fn dataframe_row_insert_is_the_column_insert_of_its_transpose() {
    // Same 2x2 shape through the DataFrame API: `insert_into(rows)` equals
    // `insert_columns` on the transposed input in stored values, in error,
    // and in drained diagnostics (column-major: d1's warning before d2's).
    let (mut spark, _, sink, _) = deployment();
    spark
        .config
        .set(csi::spark::config::DATAFRAME_DATE_RANGE_CHECK, "true");
    let df = spark.dataframe();
    let far = Value::Date(csi::spark::types::MAX_DATE_DAYS + 100);
    let old = Value::Timestamp(parse_timestamp("1899-01-01 00:00:00").unwrap());
    let cases = [
        (
            DataType::Date,
            vec![
                vec![Value::Date(1), far.clone()],
                vec![far.clone(), Value::Date(2)],
            ],
        ),
        // Two cells Spark's ORC writer refuses: the insert fails.
        (
            DataType::Timestamp,
            vec![
                vec![Value::Timestamp(0), old.clone()],
                vec![old, Value::Timestamp(0)],
            ],
        ),
    ];
    for (i, (ty, rows)) in cases.iter().enumerate() {
        let schema = [
            StructField::new("d1", ty.clone()),
            StructField::new("d2", ty.clone()),
        ];
        let cols = columns_from_rows(&[ty.clone(), ty.clone()], rows).unwrap();
        let (by_rows, by_cols) = (format!("rows{i}"), format!("cols{i}"));
        for table in [&by_rows, &by_cols] {
            df.create_table(table, &schema, StorageFormat::Orc).unwrap();
        }
        sink.drain();
        let row_result = df.insert_into(&by_rows, rows).map_err(|e| e.to_string());
        let row_diags: Vec<String> = sink.drain().into_iter().map(|d| d.message).collect();
        let col_result = df
            .insert_columns(&by_cols, &cols)
            .map_err(|e| e.to_string());
        let col_diags: Vec<String> = sink.drain().into_iter().map(|d| d.message).collect();
        assert_eq!(row_result, col_result);
        assert_eq!(row_diags, col_diags);
        assert_eq!(
            df.read_table(&by_rows).unwrap().1,
            rows_from_columns(&df.read_table_columns(&by_cols).unwrap().1)
        );
        if i == 0 {
            assert!(row_diags[0].contains("d1") && row_diags[1].contains("d2"));
            let stored = df.read_table(&by_rows).unwrap().1;
            assert_eq!(stored[0], [Value::Date(1), Value::Null]);
        } else {
            assert!(row_result.unwrap_err().contains("ORC_TIMESTAMP_RANGE"));
        }
    }
    // A ragged row is refused before anything is cast or warned about.
    let err = df
        .insert_into("rows0", &[vec![far.clone(), far.clone()], vec![far]])
        .unwrap_err();
    assert_eq!(err.code(), "ARITY_MISMATCH");
    assert!(sink.drain().iter().all(|d| d.code != "DATE_RANGE_COERCED"));
}
