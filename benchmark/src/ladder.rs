//! The layer ladder: the same work a campaign does, driven from outside
//! through each layer's public entry points with a span around each call.
//!
//! Nothing here reaches into the program: the deployment is assembled from
//! public constructors (`Metastore::new`, `MiniHdfs::with_datanodes`,
//! `SparkSession::connect`, `HiveQl::new`) and an observation is the same
//! create → insert → read → oracle sequence `csi_test::exec` runs. The
//! grid ladder proves that by producing a report byte-identical to the
//! campaign's.

use crate::trace::Tracer;
use csi_core::boundary::CrossingContext;
use csi_core::column::ValueColumn;
use csi_core::diag::DiagSink;
use csi_core::oracle::{
    check_error_handling, check_write_read, Observation, OracleFailure, ReadOutcome, WriteOutcome,
};
use csi_core::value::{StructField, Value};
use csi_core::InteractionError;
use csi_test::exec::render_literal;
use csi_test::generator::{TestInput, Validity};
use csi_test::plan::{Experiment, Interface, TestPlan};
use minihdfs::{HdfsPath, MiniHdfs};
use minihive::hiveql::HiveQl;
use minihive::metastore::{ColumnDef, Metastore, StorageFormat};
use minihive::types::HiveType;
use minispark::{SparkConfig, SparkSession};
use parking_lot::Mutex;
use std::sync::Arc;

/// One metastore + namenode + two engine front ends, as a campaign's
/// deployment is, built only from public constructors.
pub struct Stack {
    /// Diagnostics both engines write to.
    pub sink: DiagSink,
    /// Spark front end.
    pub spark: SparkSession,
    /// Hive front end.
    pub hive: HiveQl,
    /// The boundary context wired into metastore and filesystem.
    pub crossing: CrossingContext,
    /// The shared filesystem.
    pub fs: Arc<Mutex<MiniHdfs>>,
}

impl Stack {
    /// A fresh stack; `trace_boundaries` as in `CrossTestConfig`.
    pub fn new(trace_boundaries: bool) -> Stack {
        let crossing = if trace_boundaries {
            CrossingContext::new()
        } else {
            CrossingContext::disabled()
        };
        let sink = DiagSink::new();
        let mut metastore = Metastore::new();
        let mut fs = MiniHdfs::with_datanodes(3);
        metastore.set_crossing(crossing.clone());
        fs.set_crossing(crossing.clone());
        let metastore = Arc::new(Mutex::new(metastore));
        let fs = Arc::new(Mutex::new(fs));
        let spark = SparkSession::connect(metastore.clone(), fs.clone(), sink.handle("minispark"));
        let hive = HiveQl::new(metastore, fs.clone(), sink.handle("minihive"));
        Stack {
            sink,
            spark,
            hive,
            crossing,
            fs,
        }
    }
}

/// The table name `csi_test::exec` gives an observation.
pub fn table_name(
    experiment: Experiment,
    plan: TestPlan,
    format: StorageFormat,
    input_id: usize,
) -> String {
    format!(
        "t_{}_{}_{}_{}",
        experiment.short(),
        format!("{plan}")
            .replace(['-', '>'], "")
            .to_ascii_lowercase(),
        format.extension(),
        input_id
    )
}

/// The three statements an observation sends through a SQL interface.
pub struct Statements {
    /// `CREATE TABLE … STORED AS …`
    pub create: String,
    /// `INSERT INTO … VALUES (…)`
    pub insert: String,
    /// `SELECT * FROM …`
    pub select: String,
}

/// The statement texts for `input` in `table`.
pub fn statements(table: &str, input: &TestInput, format: StorageFormat) -> Statements {
    Statements {
        create: format!(
            "CREATE TABLE {table} (c {}) STORED AS {}",
            input.column_type.sql_name(),
            format.name()
        ),
        insert: format!(
            "INSERT INTO {table} VALUES ({})",
            render_literal(&input.value)
        ),
        select: format!("SELECT * FROM {table}"),
    }
}

fn single_column(rows: Vec<Vec<Value>>) -> Result<Vec<Value>, InteractionError> {
    rows.into_iter()
        .map(|mut r| {
            if r.is_empty() {
                Err(InteractionError::crash(
                    "csi-test",
                    "EMPTY_ROW",
                    "engine returned a zero-column row for a one-column projection",
                ))
            } else {
                Ok(r.remove(0))
            }
        })
        .collect()
}

/// What one observation writes and reads: the table, the input, the
/// format and the statement texts the SQL interfaces receive.
struct Cell<'a> {
    table: String,
    input: &'a TestInput,
    format: StorageFormat,
    sql: Statements,
}

fn create(
    t: &mut Tracer,
    request: u64,
    d: &Stack,
    interface: Interface,
    cell: &Cell<'_>,
) -> Result<(), InteractionError> {
    let Cell {
        table,
        input,
        format,
        sql,
    } = cell;
    match interface {
        Interface::SparkSql => t
            .span("sparksql.create", request, || d.spark.sql(&sql.create))
            .map(|_| ())
            .map_err(InteractionError::from),
        Interface::HiveQl => t
            .span("hiveql.create", request, || d.hive.execute(&sql.create))
            .map(|_| ())
            .map_err(InteractionError::from),
        Interface::DataFrame => {
            let schema = vec![StructField::new("c", input.column_type.clone())];
            t.span("dataframe.create", request, || {
                d.spark.dataframe().create_table(table, &schema, *format)
            })
            .map_err(InteractionError::from)
        }
    }
}

fn insert(
    t: &mut Tracer,
    request: u64,
    d: &Stack,
    interface: Interface,
    cell: &Cell<'_>,
) -> Result<(), InteractionError> {
    let Cell {
        table, input, sql, ..
    } = cell;
    match interface {
        Interface::SparkSql => t
            .span("sparksql.insert", request, || d.spark.sql(&sql.insert))
            .map(|_| ())
            .map_err(InteractionError::from),
        Interface::HiveQl => t
            .span("hiveql.insert", request, || d.hive.execute(&sql.insert))
            .map(|_| ())
            .map_err(InteractionError::from),
        Interface::DataFrame => {
            let rows = [vec![input.value.clone()]];
            t.span("dataframe.insert", request, || {
                d.spark.dataframe().insert_into(table, &rows)
            })
            .map_err(InteractionError::from)
        }
    }
}

fn read(
    t: &mut Tracer,
    request: u64,
    d: &Stack,
    interface: Interface,
    cell: &Cell<'_>,
) -> Result<Vec<Value>, InteractionError> {
    let Cell { table, sql, .. } = cell;
    let rows = match interface {
        Interface::SparkSql => t
            .span("sparksql.select", request, || d.spark.sql(&sql.select))
            .map(|r| r.rows)
            .map_err(InteractionError::from)?,
        Interface::HiveQl => t
            .span("hiveql.select", request, || d.hive.execute(&sql.select))
            .map(|r| r.rows)
            .map_err(InteractionError::from)?,
        Interface::DataFrame => t
            .span("dataframe.read", request, || {
                d.spark.dataframe().read_table(table)
            })
            .map(|(_, rows)| rows)
            .map_err(InteractionError::from)?,
    };
    single_column(rows)
}

/// One observation, exactly as `csi_test::exec::run_one` performs it
/// (fault-free, no detector, tables accumulating), with a span around
/// each interface call and around the per-cell oracle.
pub fn observe(
    t: &mut Tracer,
    request: u64,
    d: &Stack,
    experiment: Experiment,
    plan: TestPlan,
    format: StorageFormat,
    input: &TestInput,
) -> (Observation, Option<OracleFailure>) {
    let span = t.enter("exec.observation", request);
    let table = table_name(experiment, plan, format, input.id);
    let cell = Cell {
        sql: statements(&table, input, format),
        table,
        input,
        format,
    };
    d.crossing.reset();
    d.sink.drain();
    let write_result = create(t, request, d, plan.write, &cell)
        .and_then(|()| insert(t, request, d, plan.write, &cell));
    let write = WriteOutcome {
        result: write_result,
        diagnostics: d.sink.drain(),
    };
    let read = write.result.is_ok().then(|| ReadOutcome {
        result: read(t, request, d, plan.read, &cell),
        diagnostics: d.sink.drain(),
    });
    let obs = Observation {
        input_id: input.id,
        plan: format!("{}:{}", experiment.short(), plan),
        format: format.name().to_string(),
        write,
        read,
        trace: d.crossing.trace(),
        detections: Vec::new(),
    };
    let failure = t.span("oracle.cell", request, || match input.validity {
        Validity::Valid => check_write_read(input.expected(), &obs),
        Validity::Invalid => check_error_handling(&input.value, &obs),
    });
    t.exit(span);
    (obs, failure)
}

/// Replays, on the inputs of one observation, the layers that sit below
/// the interface call and cannot be bracketed from outside: the SQL
/// parser on the three statement texts, both serde layers on the one-cell
/// column, and the format codec on the resulting one-cell file. Layers
/// that reject the input (a type Hive lacks, a value a writer refuses)
/// are skipped for that observation, as the campaign's own call would
/// have stopped there.
pub fn replay_cell(
    t: &mut Tracer,
    request: u64,
    table: &str,
    input: &TestInput,
    format: StorageFormat,
    diag: &csi_core::diag::DiagHandle,
) {
    let span = t.enter("ladder.replay", request);
    let sql = statements(table, input, format);
    for text in [&sql.create, &sql.insert, &sql.select] {
        let _ = t.span("sql.parse", request, || csi_core::sql::parse(text));
    }
    let value = input.expected().clone();
    let cols = [ValueColumn::from_values(&input.column_type, &[value])];
    let config = SparkConfig::default();
    let schema = [StructField::new("c", input.column_type.clone())];
    if let Ok(bytes) = t.span("spark_serde.write1", request, || {
        minispark::serde_layer::write_columns(format, &schema, &cols, &config)
    }) {
        let _ = t.span("spark_serde.read1", request, || {
            minispark::serde_layer::read_columns(format, &schema, &bytes, &config)
        });
        if let Ok(batch) = t.span("formats.decode1", request, || decode(format, &bytes)) {
            let _ = t.span("formats.encode1", request, || encode(format, &batch));
        }
    }
    if let Ok(hive_type) = HiveType::from_data_type(&input.column_type) {
        let columns = [ColumnDef {
            name: "c".to_string(),
            hive_type,
        }];
        if let Ok(bytes) = t.span("hive_serde.write1", request, || {
            minihive::serde_layer::write_columns(format, &columns, &cols, diag)
        }) {
            let _ = t.span("hive_serde.read1", request, || {
                minihive::serde_layer::read_columns(format, &columns, &bytes, diag)
            });
        }
    }
    t.exit(span);
}

/// `miniformats` batch decode for `format`.
pub fn decode(
    format: StorageFormat,
    bytes: &[u8],
) -> Result<miniformats::RecordBatch, miniformats::FormatError> {
    match format {
        StorageFormat::Orc => miniformats::orc::decode_batch(bytes),
        StorageFormat::Parquet => miniformats::parquet::decode_batch(bytes),
        StorageFormat::Avro => miniformats::avro::decode_batch(bytes),
    }
}

/// `miniformats` batch encode for `format`.
pub fn encode(
    format: StorageFormat,
    batch: &miniformats::RecordBatch,
) -> Result<Vec<u8>, miniformats::FormatError> {
    match format {
        StorageFormat::Orc => miniformats::orc::encode_batch(batch),
        StorageFormat::Parquet => miniformats::parquet::encode_batch(batch),
        StorageFormat::Avro => miniformats::avro::encode_batch(batch),
    }
}

/// A metastore and a namenode holding `present` one-column tables (and
/// their one data file each), for timing a create+get and a create+read
/// against a namespace of that size.
pub struct Namespace {
    metastore: Metastore,
    fs: MiniHdfs,
    root: HdfsPath,
    next: usize,
}

impl Namespace {
    /// Builds the namespace with `present` tables and files.
    pub fn with_tables(present: usize) -> Namespace {
        let mut ns = Namespace {
            metastore: Metastore::new(),
            fs: MiniHdfs::with_datanodes(3),
            root: HdfsPath::parse("/user/hive/warehouse").expect("static path"),
            next: 0,
        };
        ns.fs.mkdirs(&ns.root).expect("mkdirs warehouse");
        for _ in 0..present {
            let name = ns.fresh_name();
            ns.create_table(&name);
            ns.create_file(&name, b"x");
        }
        ns
    }

    fn fresh_name(&mut self) -> String {
        self.next += 1;
        format!("t_ss_sparksqlsparksql_orc_{}", self.next)
    }

    fn create_table(&mut self, name: &str) {
        self.metastore
            .create_table(
                "default",
                name,
                vec![("c".to_string(), HiveType::Int)],
                StorageFormat::Orc,
                false,
            )
            .expect("fresh table name");
    }

    fn create_file(&mut self, name: &str, data: &[u8]) {
        let dir = self.root.join(name);
        self.fs.mkdirs(&dir).expect("mkdirs table dir");
        self.fs
            .create(&dir.join("part-00000.orc"), data)
            .expect("fresh file");
    }

    /// Times one `create_table` + `get_table` and one file create + read
    /// of `data`, then removes both so the namespace keeps its size.
    pub fn probe(
        &mut self,
        t: &mut Tracer,
        request: u64,
        names: (&'static str, &'static str),
        data: &[u8],
    ) {
        let name = self.fresh_name();
        t.span(names.0, request, || {
            self.create_table(&name);
            self.metastore
                .get_table("default", &name)
                .expect("table just created")
                .columns
                .len()
        });
        t.span(names.1, request, || {
            self.create_file(&name, data);
            self.fs
                .read(&self.root.join(&name).join("part-00000.orc"))
                .expect("file just created")
                .len()
        });
        self.metastore
            .drop_table("default", &name, false, &mut self.fs)
            .expect("drop probe table");
        let dir = self.root.join(&name);
        if self.fs.exists(&dir) {
            self.fs.delete(&dir, true).expect("delete probe dir");
        }
    }
}
