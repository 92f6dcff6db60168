//! Property-based tests over the core data structures and the
//! cross-system invariants.

use csi::core::column::{columns_from_rows, rows_from_columns};
use csi::core::config::{ConfigMap, MergePolicy};
use csi::core::value::{
    format_date, format_timestamp, parse_date, parse_timestamp, DataType, Decimal, StructField,
    Value,
};
use csi::hdfs::{HdfsPath, MiniHdfs};
use csi::kafka::{MiniKafka, PartitionId};
use miniformats::physical::{FileSchema, PhysicalType, PhysicalValue};
use minihive::metastore::StorageFormat;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

// --- Strategies -----------------------------------------------------------

/// Values that every system and format represent identically ("portable").
fn portable_value() -> impl Strategy<Value = (DataType, Value)> {
    prop_oneof![
        any::<bool>().prop_map(|b| (DataType::Boolean, Value::Boolean(b))),
        any::<i32>().prop_map(|v| (DataType::Int, Value::Int(v))),
        any::<i64>().prop_map(|v| (DataType::Long, Value::Long(v))),
        any::<f64>().prop_map(|v| (DataType::Double, Value::Double(v))),
        "[a-zA-Z0-9 _.-]{0,24}".prop_map(|s| (DataType::String, Value::Str(s))),
        proptest::collection::vec(any::<u8>(), 0..48)
            .prop_map(|b| (DataType::Binary, Value::Binary(b))),
        (-100_000i32..100_000).prop_map(|d| (DataType::Date, Value::Date(d))),
    ]
}

fn physical_value() -> impl Strategy<Value = (PhysicalType, PhysicalValue)> {
    prop_oneof![
        any::<bool>().prop_map(|b| (PhysicalType::Bool, PhysicalValue::Bool(b))),
        any::<i8>().prop_map(|v| (PhysicalType::Int8, PhysicalValue::Int8(v))),
        any::<i16>().prop_map(|v| (PhysicalType::Int16, PhysicalValue::Int16(v))),
        any::<i32>().prop_map(|v| (PhysicalType::Int32, PhysicalValue::Int32(v))),
        any::<i64>().prop_map(|v| (PhysicalType::Int64, PhysicalValue::Int64(v))),
        any::<f32>().prop_map(|v| (PhysicalType::Float32, PhysicalValue::Float32(v))),
        any::<f64>().prop_map(|v| (PhysicalType::Float64, PhysicalValue::Float64(v))),
        "[\\PC]{0,16}".prop_map(|s| (PhysicalType::Utf8, PhysicalValue::Utf8(s))),
        proptest::collection::vec(any::<u8>(), 0..32)
            .prop_map(|b| (PhysicalType::Bytes, PhysicalValue::Bytes(b))),
        (any::<i64>(), 0u8..38).prop_map(|(u, s)| (
            PhysicalType::Decimal,
            PhysicalValue::Decimal {
                unscaled: u as i128,
                scale: s
            }
        )),
    ]
}

fn float_eq(a: &PhysicalValue, b: &PhysicalValue) -> bool {
    match (a, b) {
        (PhysicalValue::Float32(x), PhysicalValue::Float32(y)) => x.to_bits() == y.to_bits(),
        (PhysicalValue::Float64(x), PhysicalValue::Float64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

// --- Wire formats ----------------------------------------------------------

proptest! {
    #[test]
    fn wire_round_trip_preserves_rows(values in proptest::collection::vec(physical_value(), 1..12)) {
        let schema = FileSchema {
            columns: values
                .iter()
                .enumerate()
                .map(|(i, (ty, _))| miniformats::physical::PhysicalColumn {
                    name: format!("c{i}"),
                    ty: ty.clone(),
                    logical: None,
                })
                .collect(),
            meta: Default::default(),
        };
        let row: Vec<PhysicalValue> = values.into_iter().map(|(_, v)| v).collect();
        let bytes = miniformats::orc::encode(&schema, std::slice::from_ref(&row)).unwrap();
        let (back_schema, back_rows) = miniformats::orc::decode(&bytes).unwrap();
        prop_assert_eq!(back_schema, schema);
        prop_assert_eq!(back_rows.len(), 1);
        for (a, b) in back_rows[0].iter().zip(&row) {
            prop_assert!(float_eq(a, b), "{:?} != {:?}", a, b);
        }
    }

    #[test]
    fn decimal_parse_display_round_trips(unscaled in any::<i64>(), scale in 0u8..18) {
        let d = Decimal::new(unscaled as i128, 38, scale).unwrap();
        let back = Decimal::parse(&d.to_string()).unwrap();
        prop_assert!(Value::Decimal(d).canonical_eq(&Value::Decimal(back)));
    }

    #[test]
    fn date_format_parse_round_trips(days in -700_000i32..2_900_000) {
        let text = format_date(days);
        prop_assert_eq!(parse_date(&text), Some(days), "{}", text);
    }

    #[test]
    fn timestamp_format_parse_round_trips(us in -60_000_000_000_000_000i64..250_000_000_000_000_000) {
        let text = format_timestamp(us);
        prop_assert_eq!(parse_timestamp(&text), Some(us), "{}", text);
    }

    #[test]
    fn value_signature_is_stable_and_injective_enough(
        (ty, v) in portable_value(),
        (ty2, v2) in portable_value(),
    ) {
        prop_assert_eq!(v.signature(), v.clone().signature());
        if ty == ty2 && v.canonical_eq(&v2) {
            prop_assert_eq!(v.signature(), v2.signature());
        }
        let _ = (ty, ty2);
    }
}

// --- Spark/Hive serde layers ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spark_serde_round_trips_portable_values(
        items in proptest::collection::vec(portable_value(), 1..6),
        format_idx in 0usize..3,
    ) {
        let format = StorageFormat::ALL[format_idx];
        let schema: Vec<StructField> = items
            .iter()
            .enumerate()
            .map(|(i, (ty, _))| StructField::new(format!("c{i}"), ty.clone()))
            .collect();
        let (types, row): (Vec<DataType>, Vec<Value>) = items.into_iter().unzip();
        let config = csi::spark::SparkConfig::new();
        let cols = columns_from_rows(&types, std::slice::from_ref(&row)).unwrap();
        let bytes = csi::spark::serde_layer::write_columns(format, &schema, &cols, &config).unwrap();
        let back = rows_from_columns(
            &csi::spark::serde_layer::read_columns(format, &schema, &bytes, &config).unwrap(),
        );
        prop_assert_eq!(back.len(), 1);
        for (a, b) in back[0].iter().zip(&row) {
            prop_assert!(a.canonical_eq(b), "{:?} != {:?}", a, b);
        }
    }

    #[test]
    fn hive_serde_round_trips_portable_values(
        items in proptest::collection::vec(portable_value(), 1..6),
        format_idx in 0usize..3,
    ) {
        let format = StorageFormat::ALL[format_idx];
        let columns: Vec<minihive::metastore::ColumnDef> = items
            .iter()
            .enumerate()
            .map(|(i, (ty, _))| minihive::metastore::ColumnDef {
                name: format!("c{i}"),
                hive_type: minihive::HiveType::from_data_type(ty).unwrap(),
            })
            .collect();
        let (types, row): (Vec<DataType>, Vec<Value>) = items.into_iter().unzip();
        let sink = csi::core::diag::DiagSink::new();
        let h = sink.handle("minihive");
        let cols = columns_from_rows(&types, std::slice::from_ref(&row)).unwrap();
        let bytes = minihive::serde_layer::write_columns(format, &columns, &cols, &h).unwrap();
        let back = rows_from_columns(
            &minihive::serde_layer::read_columns(format, &columns, &bytes, &h).unwrap(),
        );
        prop_assert_eq!(back.len(), 1);
        for (a, b) in back[0].iter().zip(&row) {
            prop_assert!(a.canonical_eq(b), "{:?} != {:?}", a, b);
        }
    }

    #[test]
    fn cross_system_write_read_is_consistent_for_portable_values(
        (ty, v) in portable_value(),
    ) {
        // The core cross-system invariant: portable values survive every
        // interface pair unchanged — Spark-written files read identically
        // from Hive and vice versa (ORC path).
        use csi::cross_test::generator::{TestInput, Validity};
        use csi::cross_test::Campaign;
        // Skip sub-second NaN-ish strings that Hive renders differently.
        let inputs = vec![TestInput {
            id: 0,
            column_type: ty,
            value: v,
            validity: Validity::Valid,
            label: "prop".into(),
            expected_back: None,
        }];
        let outcome = Campaign::new(&inputs)
            .formats(vec![StorageFormat::Orc])
            .run();
        prop_assert!(
            outcome.report.raw_failures.is_empty(),
            "{:?}",
            outcome.report.raw_failures
        );
    }
}

// --- Substrates -------------------------------------------------------------

/// One path component over a small alphabet, so equal components and
/// shared textual prefixes come up often: `-` and `.` are bytes below `/`,
/// the rest above it. `.` and `..` are not components.
fn path_component() -> impl Strategy<Value = String> {
    "[ab.0_é中-]{1,3}".prop_map(|c| {
        if c == "." || c == ".." {
            format!("d{c}")
        } else {
            c
        }
    })
}

#[test]
fn the_root_path_has_no_components_name_or_parent() {
    let root = HdfsPath::root();
    assert_eq!(root.components().count(), 0);
    assert_eq!(root.name(), None);
    assert_eq!(root.parent(), None);
    assert!(root.is_root());
    assert_eq!(root.to_string(), "/");
    assert_eq!(HdfsPath::parse("/").unwrap(), root);
    // `/a-b` sorts after `/a/b` by components and before it as text.
    let (nested, dashed) = (
        HdfsPath::parse("/a/b").unwrap(),
        HdfsPath::parse("/a-b").unwrap(),
    );
    assert!(nested < dashed);
    assert!(nested.to_string() > dashed.to_string());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hdfs_create_read_round_trips(
        names in proptest::collection::vec("[a-z][a-z0-9]{0,8}", 1..4),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut fs = MiniHdfs::with_datanodes(3);
        let mut path = HdfsPath::root();
        for n in &names {
            path = path.join(n);
        }
        fs.create(&path, &data).unwrap();
        let read_back = fs.read(&path).unwrap();
        prop_assert_eq!(read_back.as_ref(), &data[..]);
        prop_assert_eq!(fs.get_file_status(&path).unwrap().len, data.len() as i64);
        // Rename preserves content.
        let dst = HdfsPath::root().join("renamed");
        fs.rename(&path, &dst).unwrap();
        let renamed = fs.read(&dst).unwrap();
        prop_assert_eq!(renamed.as_ref(), &data[..]);
        prop_assert!(!fs.exists(&path));
    }

    #[test]
    fn hdfs_paths_behave_as_their_component_lists(
        authority_a in proptest::sample::select(vec![None, Some("nn:8020"), Some("nn:9000")]),
        authority_b in proptest::sample::select(vec![None, Some("nn:8020"), Some("nn:9000")]),
        comps_a in proptest::collection::vec(path_component(), 0..4),
        comps_b in proptest::collection::vec(path_component(), 0..4),
        child in path_component(),
    ) {
        let build = |authority: Option<&str>, comps: &[String]| {
            let root = match authority {
                Some(a) => HdfsPath::parse(&format!("hdfs://{a}/")).unwrap(),
                None => HdfsPath::root(),
            };
            comps.iter().fold(root, |p, c| p.join(c))
        };
        let a = build(authority_a, &comps_a);
        let b = build(authority_b, &comps_b);
        // The text is the path: it parses back, and splits into the list.
        prop_assert_eq!(&HdfsPath::parse(&a.to_string()).unwrap(), &a);
        prop_assert_eq!(a.components().collect::<Vec<_>>(), comps_a.iter().collect::<Vec<_>>());
        prop_assert_eq!(a.authority(), authority_a);
        // Ordering is by (authority, components), never by raw text.
        prop_assert_eq!(a.cmp(&b), (authority_a, &comps_a).cmp(&(authority_b, &comps_b)));
        prop_assert_eq!(a == b, (authority_a, &comps_a) == (authority_b, &comps_b));
        // join and parent are inverses.
        let joined = a.join(&child);
        prop_assert_eq!(joined.name(), Some(child.as_str()));
        prop_assert_eq!(joined.parent().as_ref(), Some(&a));
        prop_assert_eq!(joined.components().count(), comps_a.len() + 1);
        // Prefixes hold at component boundaries only (authority ignored).
        prop_assert!(a.starts_with(&a));
        prop_assert!(joined.starts_with(&a));
        prop_assert!(joined.join("z").starts_with(&a));
        prop_assert!(a.starts_with(&HdfsPath::root()));
        prop_assert!(!a.starts_with(&joined));
        let sibling = a.join(&format!("{child}x"));
        prop_assert!(!sibling.starts_with(&joined), "{} under {}", sibling, joined);
        prop_assert!(!joined.starts_with(&sibling));
        prop_assert_eq!(b.starts_with(&a), comps_b.starts_with(&comps_a));
        prop_assert_eq!(a.without_authority(), build(None, &comps_a));
    }

    #[test]
    fn kafka_offsets_strictly_increase_and_compaction_keeps_latest(
        keys in proptest::collection::vec(0u8..5, 1..64),
    ) {
        let mut k = MiniKafka::new();
        k.create_topic("t", 1);
        for (i, key) in keys.iter().enumerate() {
            k.produce("t", PartitionId(0), Some(&[*key]), Some(&[i as u8]), 0).unwrap();
        }
        let batch = k.fetch("t", PartitionId(0), 0, usize::MAX).unwrap();
        prop_assert!(batch.records.windows(2).all(|w| w[0].offset < w[1].offset));
        k.compact("t", PartitionId(0)).unwrap();
        let compacted = k.fetch("t", PartitionId(0), 0, usize::MAX).unwrap();
        // Exactly one survivor per distinct key, and it is the latest write.
        let mut distinct: Vec<u8> = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(compacted.records.len(), distinct.len());
        for r in &compacted.records {
            let key = r.key.as_ref().unwrap()[0];
            let last_index = keys.iter().rposition(|k| *k == key).unwrap();
            prop_assert_eq!(r.value.as_ref().unwrap()[0], last_index as u8);
        }
    }

    #[test]
    fn hbase_wal_recovery_preserves_every_write(
        ops in proptest::collection::vec((0u8..4, 0u8..3, any::<u8>()), 1..32),
        flush_at in proptest::sample::select(vec![0usize, 5, 10, 1000]),
    ) {
        use csi::hbase::Region;
        let mut fs = MiniHdfs::with_datanodes(3);
        let mut region = Region::open("p", &mut fs).unwrap();
        let mut expected: std::collections::BTreeMap<(u8, u8), u8> =
            std::collections::BTreeMap::new();
        for (i, (row, col, val)) in ops.iter().enumerate() {
            region.put(&[*row], &[*col], &[*val], &mut fs).unwrap();
            expected.insert((*row, *col), *val);
            if i == flush_at {
                region.flush(&mut fs).unwrap();
            }
        }
        // Crash (drop without flush) and recover.
        drop(region);
        let recovered = Region::open("p", &mut fs).unwrap();
        for ((row, col), val) in expected {
            let got = recovered.get(&[row], &[col]);
            let want = [val];
            prop_assert_eq!(got.as_deref(), Some(want.as_ref()));
        }
    }

    #[test]
    fn sql_literals_round_trip_through_the_sparksql_frontend(
        (_ty, v) in portable_value(),
    ) {
        // render_literal . parse . eval == identity (canonically) for
        // every portable value — the harness's encoding is faithful.
        use csi::cross_test::exec::render_literal;
        let stmt = format!("INSERT INTO t VALUES ({})", render_literal(&v));
        let parsed = csi::core::sql::parse(&stmt).unwrap();
        let csi::core::sql::Statement::Insert { rows, .. } = parsed else {
            panic!("not an insert");
        };
        let sink = csi::core::diag::DiagSink::new();
        let spark = csi::spark::SparkSession::connect(
            Arc::new(Mutex::new(csi::hive::Metastore::new())),
            Arc::new(Mutex::new(MiniHdfs::with_datanodes(1))),
            sink.handle("minispark"),
        );
        let evaluated = csi::spark::SparkSql::new(&spark).eval(&rows[0][0]).unwrap();
        prop_assert!(evaluated.canonical_eq(&v), "{:?} != {:?}", evaluated, v);
    }

    #[test]
    fn parsers_and_decoders_never_panic_on_arbitrary_input(
        text in "\\PC{0,80}",
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Robustness: hostile inputs produce errors, never panics.
        let _ = csi::core::sql::parse(&text);
        // The lexer walks by byte offset: put the random (multi-byte) text
        // right after every place it steps over a delimiter or an ASCII run.
        for opener in ["'", "''", "'a''", "`", "`a`", "X'", "x'0A'", "1", "1.5B", "a1_", "("] {
            let _ = csi::core::sql::parse(&format!("{opener}{text}"));
            let _ = csi::core::sql::parse(&format!("SELECT * FROM t WHERE c = {opener}{text}"));
        }
        let _ = csi::core::value::parse_date(&text);
        let _ = csi::core::value::parse_timestamp(&text);
        let _ = csi::core::value::Decimal::parse(&text);
        let _ = csi::hdfs::HdfsPath::parse(&text);
        // Bare random bytes fail the four-byte magic almost always; framed
        // as a file (magic, version 1, the bytes, footer magic) they reach
        // the header, row-count and cell readers of the row reference and
        // of the columnar decoder.
        let framed = |magic: &[u8; 4]| [magic, &[1u8][..], &bytes, magic].concat();
        let orc = framed(miniformats::orc::RULES.magic);
        let _ = miniformats::orc::decode(&orc);
        let _ = miniformats::orc::decode_batch(&orc);
        let parquet = framed(miniformats::parquet::RULES.magic);
        let _ = miniformats::parquet::decode(&parquet);
        let _ = miniformats::parquet::decode_batch(&parquet);
        let avro = framed(miniformats::avro::RULES.magic);
        let _ = miniformats::avro::decode(&avro);
        let _ = miniformats::avro::decode_batch(&avro);
    }

    #[test]
    fn config_merge_ours_win_never_mutates_existing(
        shared in proptest::collection::btree_map("[a-z]{1,6}", "[a-z0-9]{0,6}", 0..16),
        incoming in proptest::collection::btree_map("[a-z]{1,6}", "[a-z0-9]{0,6}", 0..16),
    ) {
        let mut ours = ConfigMap::new("ours");
        for (k, v) in &shared {
            ours.set(k, v, "init");
        }
        let mut theirs = ConfigMap::new("theirs");
        for (k, v) in &incoming {
            theirs.set(k, v, "init");
        }
        let before: Vec<(String, String)> =
            ours.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        ours.merge(&theirs, MergePolicy::OursWin, "merge");
        for (k, v) in before {
            prop_assert_eq!(ours.get(&k), Some(v.as_str()));
        }
        // Every incoming key now resolves to *something*.
        for k in incoming.keys() {
            prop_assert!(ours.get(k).is_some());
        }
    }
}
