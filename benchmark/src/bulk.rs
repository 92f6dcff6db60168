//! Workload `bulk`: one wide clean table at 131,072 rows × 9 columns,
//! written and read back through 4 plans × 3 formats and checked by the
//! vectorised oracles. The opposite use of the data plane from `grid`:
//! serde, codecs, block I/O and the column oracle do nearly all the work.

use crate::args::Args;
use crate::harness::{self, Timed};
use crate::ladder::{self, Stack};
use crate::machine::Flavour;
use crate::metrics::RunResult;
use crate::stats;
use crate::trace::Tracer;
use csi_core::column::ValueColumn;
use csi_core::oracle::check_write_read_columns;
use csi_core::value::StructField;
use csi_test::bulk::table_digest;
use csi_test::generator::{bulk_schema, generate_bulk_columns};
use csi_test::plan::Interface;
use csi_test::{BulkReport, Campaign};
use minihdfs::{HdfsPath, MiniHdfs};
use minihive::metastore::{ColumnDef, StorageFormat};
use minihive::types::HiveType;
use minispark::SparkConfig;
use std::time::Instant;

/// Rows per table.
pub const ROWS: usize = 131_072;
/// Untimed iterations before measuring.
const WARMUP: usize = 1;
/// The bulk interface pairs of `csi_test::bulk`.
const PLANS: [(Interface, Interface); 4] = [
    (Interface::DataFrame, Interface::DataFrame),
    (Interface::DataFrame, Interface::HiveQl),
    (Interface::HiveQl, Interface::DataFrame),
    (Interface::HiveQl, Interface::HiveQl),
];

/// One iteration: spec → rendered report + report JSON.
fn iteration(seed: u64) -> (BulkReport, String) {
    let report = Campaign::new(&[]).seed(seed).run_bulk(ROWS);
    let mut bytes = report.render();
    bytes.push_str(&serde_json::to_string(&report).expect("bulk reports serialize"));
    (report, bytes)
}

/// Clean cells, and one digest across every plan and format (clean data
/// round-trips identically whatever the backend).
fn check(report: &BulkReport, bytes: &str, reference: &str) -> bool {
    let first = report.cells.first().map(|c| c.digest);
    report.clean()
        && report.cells.len() == PLANS.len() * StorageFormat::ALL.len()
        && report
            .cells
            .iter()
            .all(|c| Some(c.digest) == first && c.rows_read == ROWS)
        && bytes == reference
}

fn setup(seed: u64) -> String {
    let mut reference = String::new();
    for _ in 0..WARMUP {
        reference = iteration(seed).1;
    }
    reference
}

fn measure(seconds: f64, seed: u64, reference: &str) -> Timed {
    harness::timed_loop(seconds, Flavour::Stream, |_| {
        let (report, bytes) = iteration(seed);
        check(&report, &bytes, reference)
    })
}

fn cells_per_iteration() -> usize {
    ROWS * bulk_schema().len() * PLANS.len() * StorageFormat::ALL.len()
}

/// The untraced run: every end-to-end metric.
pub fn run(args: &Args, process_start: Instant) -> RunResult {
    let (reference, setup_s) =
        harness::repeated_setup(process_start, args.setup_passes, Flavour::Stream, || {
            setup(args.seed)
        });
    harness::reset_ops();
    let timed = measure(args.seconds, args.seed, &reference);
    let n = timed.samples_ms.len() as f64;
    let (attempted, failed, _) = harness::ops();
    let tables = PLANS.len() * StorageFormat::ALL.len();
    let mut r = RunResult {
        correct: failed == 0,
        attempted,
        failed,
        ..RunResult::default()
    };
    r.values.set("setup_s", setup_s);
    r.values.set("campaign_p50_ms", timed.p50_ms());
    r.values
        .set("obs_per_s", tables as f64 * n / timed.busy_s());
    r.values.set(
        "cells_per_s",
        cells_per_iteration() as f64 * n / timed.busy_s(),
    );
    r.values.set("peak_rss_mb", crate::procfs::peak_rss_mb());
    r.notes.push(timed.note("bulk campaign"));
    r.notes.push(format!(
        "{tables} table round trips (observations) and {} cells per campaign",
        cells_per_iteration()
    ));
    r
}

/// Spans that are the campaign's own work, as opposed to replays.
const REAL_PATH: &[&str] = &[
    "generator.bulk",
    "exec.deploy",
    "dataframe.create",
    "hiveql.create",
    "dataframe.insert_columns",
    "hiveql.insert_columns",
    "dataframe.read_columns",
    "hiveql.read_columns",
    "oracle.columns",
    "column.fingerprint",
    "report.render",
    "report.json",
];

fn hive_columns(schema: &[StructField]) -> Vec<ColumnDef> {
    schema
        .iter()
        .map(|f| ColumnDef {
            name: f.name.clone(),
            hive_type: HiveType::from_data_type(&f.data_type).expect("bulk types exist in Hive"),
        })
        .collect()
}

/// One bulk campaign through the ladder: `csi_test::bulk::run_bulk`'s
/// sequence with a span per layer call. Returns whether every table came
/// back clean with one digest.
fn ladder_iteration(t: &mut Tracer, iteration: u64, seed: u64) -> bool {
    let root = t.enter("bulk.iteration", iteration);
    let schema = bulk_schema();
    let expected = t.span("generator.bulk", iteration, || {
        generate_bulk_columns(ROWS, seed)
    });
    let mut digests = Vec::new();
    let mut clean = true;
    let mut request = iteration << 32;
    for format in StorageFormat::ALL {
        for (write, read) in PLANS {
            request += 1;
            let d = t.span("exec.deploy", request, || Stack::new(false));
            let table = format!("bulk_{}", format.extension());
            let wrote = match write {
                Interface::DataFrame => {
                    let df = d.spark.dataframe();
                    t.span("dataframe.create", request, || {
                        df.create_table(&table, &schema, format)
                    })
                    .is_ok()
                        && t.span("dataframe.insert_columns", request, || {
                            df.insert_columns(&table, &expected)
                        })
                        .is_ok()
                }
                _ => {
                    let cols: Vec<String> = schema
                        .iter()
                        .map(|f| format!("{} {}", f.name, f.data_type.sql_name()))
                        .collect();
                    let create = format!(
                        "CREATE TABLE {table} ({}) STORED AS {}",
                        cols.join(", "),
                        format.name()
                    );
                    t.span("hiveql.create", request, || d.hive.execute(&create))
                        .is_ok()
                        && t.span("hiveql.insert_columns", request, || {
                            d.hive.insert_columns(&table, &expected)
                        })
                        .is_ok()
                }
            };
            let actual: Option<Vec<ValueColumn>> = match read {
                _ if !wrote => None,
                Interface::DataFrame => t
                    .span("dataframe.read_columns", request, || {
                        d.spark.dataframe().read_table_columns(&table)
                    })
                    .ok()
                    .map(|(_, cols)| cols),
                _ => t
                    .span("hiveql.read_columns", request, || {
                        d.hive.read_table_columns(&table)
                    })
                    .ok(),
            };
            let Some(actual) = actual else {
                clean = false;
                continue;
            };
            let plan = format!("{write}->{read}");
            let failures = t.span("oracle.columns", request, || {
                expected
                    .iter()
                    .zip(&actual)
                    .enumerate()
                    .filter_map(|(i, (exp, act))| {
                        check_write_read_columns(i, &plan, format.name(), exp, act)
                    })
                    .count()
            });
            clean &= failures == 0 && actual.len() == expected.len();
            digests.push(t.span("column.fingerprint", request, || table_digest(&actual)));
        }
    }
    t.exit(root);
    clean
        && digests.len() == PLANS.len() * StorageFormat::ALL.len()
        && digests.windows(2).all(|w| w[0] == w[1])
}

/// Below the engines: both serde layers, the format codec and HDFS block
/// I/O on the same columns, one format at a time. Returns the size of the
/// file each format produced, or `None` when a layer misbehaved.
fn replay_formats(t: &mut Tracer, request: u64, cols: &[ValueColumn]) -> Option<[usize; 3]> {
    let schema = bulk_schema();
    let columns = hive_columns(&schema);
    let config = SparkConfig::default();
    let diag = csi_core::diag::DiagSink::new().handle("minihive");
    let mut fs = MiniHdfs::with_datanodes(3);
    let dir = HdfsPath::parse("/bench").expect("static path");
    fs.mkdirs(&dir).expect("mkdirs /bench");
    let mut ok = true;
    let mut sizes = [0usize; 3];
    for (format, size) in StorageFormat::ALL.into_iter().zip(&mut sizes) {
        let (sw, sr, hw, hr, enc, dec) = match format {
            StorageFormat::Orc => (
                "spark_serde.write.orc",
                "spark_serde.read.orc",
                "hive_serde.write.orc",
                "hive_serde.read.orc",
                "formats.encode.orc",
                "formats.decode.orc",
            ),
            StorageFormat::Parquet => (
                "spark_serde.write.parquet",
                "spark_serde.read.parquet",
                "hive_serde.write.parquet",
                "hive_serde.read.parquet",
                "formats.encode.parquet",
                "formats.decode.parquet",
            ),
            StorageFormat::Avro => (
                "spark_serde.write.avro",
                "spark_serde.read.avro",
                "hive_serde.write.avro",
                "hive_serde.read.avro",
                "formats.encode.avro",
                "formats.decode.avro",
            ),
        };
        let bytes = t
            .span(sw, request, || {
                minispark::serde_layer::write_columns(format, &schema, cols, &config)
            })
            .expect("clean columns serialise");
        ok &= t
            .span(sr, request, || {
                minispark::serde_layer::read_columns(format, &schema, &bytes, &config)
            })
            .is_ok();
        let hive_bytes = t
            .span(hw, request, || {
                minihive::serde_layer::write_columns(format, &columns, cols, &diag)
            })
            .expect("clean columns serialise");
        ok &= t
            .span(hr, request, || {
                minihive::serde_layer::read_columns(format, &columns, &hive_bytes, &diag)
            })
            .is_ok();
        let batch = t
            .span(dec, request, || ladder::decode(format, &bytes))
            .expect("own bytes decode");
        let again = t
            .span(enc, request, || ladder::encode(format, &batch))
            .expect("decoded batch encodes");
        ok &= again == bytes;
        *size = bytes.len();
        let path = dir.join(&format!("part-{request}.{}", format.extension()));
        t.span("hdfs.write", request, || fs.create(&path, &bytes))
            .expect("fresh path");
        ok &= t
            .span("hdfs.read", request, || fs.read(&path))
            .is_ok_and(|b| b.len() == bytes.len());
        fs.delete(&path, false).expect("delete probe file");
    }
    ok.then_some(sizes)
}

/// Millions of `cells` per second at the median duration of `span`.
fn mcells_s(t: &Tracer, span: &str, cells: usize) -> f64 {
    let us = t.median_us(span);
    if us == 0.0 {
        0.0
    } else {
        cells as f64 / us
    }
}

/// The traced run: every per-layer metric this workload reaches.
pub fn run_traced(args: &Args, _process_start: Instant) -> (RunResult, Tracer) {
    let mut t = Tracer::new();
    let mut r = RunResult::default();
    let run_started = Instant::now();
    let reference = setup(args.seed);

    harness::reset_ops();
    let reference_run = harness::timed_loop(args.seconds * 0.2, Flavour::Stream, |_| {
        let (report, bytes) = iteration(args.seed);
        check(&report, &bytes, &reference)
    });
    let reference_ms = reference_run.p50_ms();

    // `run_bulk` also renders and serialises its report; the ladder times
    // those on the campaign's own report.
    let (report, _) = iteration(args.seed);
    t.span("report.render", 0, || report.render());
    let json = t.span("report.json", 0, || {
        serde_json::to_string(&report).expect("bulk reports serialize")
    });

    let report_ns = t.total_ns("report.render") + t.total_ns("report.json");

    let cols = generate_bulk_columns(ROWS, args.seed);
    let mut file_bytes = [0usize; 3];
    let mut ladder_ms = Vec::new();
    let mut real_ms = Vec::new();
    let mut ok = true;
    let mut i = 0u64;
    while i == 0 || run_started.elapsed().as_secs_f64() < args.seconds * 0.95 {
        harness::begin_op();
        let first_span = t.spans().len();
        let kernel_before = Flavour::Stream.read_us();
        let started = Instant::now();
        let clean = ladder_iteration(&mut t, i, args.seed);
        let raw_ms = started.elapsed().as_secs_f64() * 1e3;
        // Both shares compare with the reference campaigns, run at another
        // moment: everything at reference speed.
        let speed = Flavour::Stream.speed(kernel_before, Flavour::Stream.read_us());
        ladder_ms.push(raw_ms * speed);
        real_ms.push((t.total_ns_since(first_span, REAL_PATH) + report_ns) as f64 / 1e6 * speed);
        let replayed = replay_formats(&mut t, i, &cols);
        file_bytes = replayed.unwrap_or(file_bytes);
        harness::end_op(clean && replayed.is_some());
        ok &= clean && replayed.is_some();
        i += 1;
    }

    let table_cells = ROWS * cols.len();
    r.values.set(
        "generator.bulk_mcells_s",
        mcells_s(&t, "generator.bulk", table_cells),
    );
    for (metric, span) in [
        ("dataframe.create_us", "dataframe.create"),
        ("hiveql.create_us", "hiveql.create"),
        ("report.render_us", "report.render"),
    ] {
        r.values.set(metric, t.median_us(span));
    }
    for (metric, span) in [
        ("dataframe.insert_columns_ms", "dataframe.insert_columns"),
        ("dataframe.read_columns_ms", "dataframe.read_columns"),
        ("hiveql.insert_columns_ms", "hiveql.insert_columns"),
        ("hiveql.read_columns_ms", "hiveql.read_columns"),
        ("report.json_ms", "report.json"),
    ] {
        r.values.set(metric, t.median_us(span) / 1e3);
    }
    r.values.set("report.json_bytes", json.len() as f64);
    for (metric, span) in [
        ("spark_serde.write_mcells_s.orc", "spark_serde.write.orc"),
        (
            "spark_serde.write_mcells_s.parquet",
            "spark_serde.write.parquet",
        ),
        ("spark_serde.write_mcells_s.avro", "spark_serde.write.avro"),
        ("spark_serde.read_mcells_s.orc", "spark_serde.read.orc"),
        (
            "spark_serde.read_mcells_s.parquet",
            "spark_serde.read.parquet",
        ),
        ("spark_serde.read_mcells_s.avro", "spark_serde.read.avro"),
        ("hive_serde.write_mcells_s.orc", "hive_serde.write.orc"),
        (
            "hive_serde.write_mcells_s.parquet",
            "hive_serde.write.parquet",
        ),
        ("hive_serde.write_mcells_s.avro", "hive_serde.write.avro"),
        ("hive_serde.read_mcells_s.orc", "hive_serde.read.orc"),
        (
            "hive_serde.read_mcells_s.parquet",
            "hive_serde.read.parquet",
        ),
        ("hive_serde.read_mcells_s.avro", "hive_serde.read.avro"),
        ("oracle.columns_mcells_s", "oracle.columns"),
        ("column.fingerprint_mcells_s", "column.fingerprint"),
    ] {
        r.values.set(metric, mcells_s(&t, span, table_cells));
    }
    // Bytes per µs is MB/s (10^6 bytes).
    let mb_s = |span: &str, bytes: f64| match t.median_us(span) {
        us if us > 0.0 => bytes / us,
        _ => 0.0,
    };
    for (bytes, [enc, dec, enc_metric, dec_metric, bpc_metric]) in file_bytes.into_iter().zip([
        [
            "formats.encode.orc",
            "formats.decode.orc",
            "formats.encode_mb_s.orc",
            "formats.decode_mb_s.orc",
            "formats.bytes_per_cell.orc",
        ],
        [
            "formats.encode.parquet",
            "formats.decode.parquet",
            "formats.encode_mb_s.parquet",
            "formats.decode_mb_s.parquet",
            "formats.bytes_per_cell.parquet",
        ],
        [
            "formats.encode.avro",
            "formats.decode.avro",
            "formats.encode_mb_s.avro",
            "formats.decode_mb_s.avro",
            "formats.bytes_per_cell.avro",
        ],
    ]) {
        r.values.set(enc_metric, mb_s(enc, bytes as f64));
        r.values.set(dec_metric, mb_s(dec, bytes as f64));
        r.values.set(bpc_metric, bytes as f64 / table_cells as f64);
    }
    // The HDFS spans mix the three formats' files; their mean size over
    // the median span is the block-I/O rate.
    let mean_bytes = file_bytes.iter().sum::<usize>() as f64 / file_bytes.len() as f64;
    r.values
        .set("hdfs.write_mb_s", mb_s("hdfs.write", mean_bytes));
    r.values
        .set("hdfs.read_mb_s", mb_s("hdfs.read", mean_bytes));
    r.values.set(
        "proc.cpu_ms_per_iter",
        reference_run.cpu_ms / reference_run.samples_ms.len() as f64,
    );
    r.values.set("host.speed", reference_run.speed_p50());
    r.values.set(
        "trace.overhead_share",
        stats::median(&ladder_ms) / reference_ms - 1.0,
    );
    r.values.set(
        "trace.unattributed_share",
        1.0 - stats::median(&real_ms) / reference_ms,
    );

    let (attempted, failed, _) = harness::ops();
    r.attempted = attempted;
    r.failed = failed;
    r.correct = failed == 0 && ok;
    r.notes
        .push(reference_run.note("untraced reference campaign"));
    r.notes.push(format!(
        "{} ladder campaigns, p50 {:.3} ms; serde, codec and HDFS replays on the same columns after each; {} spans",
        ladder_ms.len(),
        stats::median(&ladder_ms),
        t.spans().len()
    ));
    (r, t)
}
