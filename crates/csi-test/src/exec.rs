//! One cross-testing cell: Figure 6's deployment and the write/read step.
//!
//! For an (experiment, plan, format, input) combination `run_one`
//! creates a one-column table through the *write* interface, inserts the
//! input, reads it back through the *read* interface, and records an
//! [`Observation`]. A run arms its own faults: the deployment it runs on
//! outlives it, serving every run of one worker, and `run_one` arms the
//! faults it is handed when it starts and disarms them before it drops
//! its table. [`crate::shard`] walks the whole space with it and
//! hands the observations to [`crate::classify`], which runs the oracles:
//! write–read and error-handling per observation, differential per
//! experiment across all of its plans *and* formats, matching the
//! artifact's `ss/sh/hs_difft` structure.

use crate::generator::TestInput;
use crate::plan::{scenario_key, Experiment, Interface, TestPlan};
use csi_core::boundary::{CrossingContext, InteractionTrace};
use csi_core::detect::{Detection, DetectorSpec};
use csi_core::diag::DiagSink;
use csi_core::fault::FaultSpec;
use csi_core::oracle::{Observation, ReadOutcome, WriteOutcome};
use csi_core::report::FaultCase;
use csi_core::sql::write_quoted;
use csi_core::value::{format_date, format_timestamp, Value};
use csi_core::InteractionError;
use minihdfs::MiniHdfs;
use minihive::hiveql::HiveQl;
use minihive::metastore::{Metastore, StorageFormat};
use minispark::SparkSession;
use parking_lot::Mutex;
use std::fmt::Write;
use std::sync::Arc;

/// The custom (non-default) Spark configuration that Section 8.2 reports
/// as resolving 8 of the 15 discrepancies, as
/// [`CampaignSpec::spark_overrides`](crate::spec::CampaignSpec::spark_overrides).
pub fn custom_resolving_overrides() -> Vec<(String, String)> {
    vec![
        (
            minispark::config::STORE_ASSIGNMENT_POLICY.into(),
            "LEGACY".into(),
        ),
        (
            minispark::config::CHAR_VARCHAR_AS_STRING.into(),
            "true".into(),
        ),
        (minispark::config::INTERVAL_AS_STRING.into(), "true".into()),
        (
            minispark::config::DATAFRAME_DATE_RANGE_CHECK.into(),
            "true".into(),
        ),
    ]
}

/// One full Metastore/MiniHdfs/SparkSession/HiveQl stack plus its
/// diagnostics sink, its session configured with the campaign's
/// [`spark_overrides`](crate::spec::CampaignSpec::spark_overrides). Each
/// grid, explore or matrix worker builds its own and runs every
/// observation it claims on it, fault-free or faulted, whatever the
/// experiment; a compound trial, a shrink check and a bulk cell each
/// build one. No two workers, and no two campaigns, ever share engine
/// state.
///
/// Lock order: the filesystem before the metastore, everywhere — both
/// engines' statement paths and `csi-serve`'s tenant registry take the
/// filesystem guard first (or hold only one of the two at a time), so no
/// two threads sharing a deployment can each hold the lock the other
/// wants.
pub(crate) struct Deployment {
    pub(crate) sink: DiagSink,
    pub(crate) spark: SparkSession,
    pub(crate) hive: HiveQl,
    /// The crossing context wired into this deployment's metastore and
    /// filesystem: the single choke point where faults are injected and
    /// boundary crossings are traced.
    pub(crate) crossing: CrossingContext,
    /// The deployment's filesystem, shared with `spark` and `hive` — held
    /// only so the tests can inspect the namespace an observation leaves.
    #[cfg(test)]
    pub(crate) fs: Arc<Mutex<MiniHdfs>>,
    /// The deployment's metastore, shared with both engines — held only so
    /// the tests can inspect the namespace an observation leaves.
    #[cfg(test)]
    pub(crate) metastore: Arc<Mutex<Metastore>>,
}

impl Deployment {
    /// Builds the stack around `crossing` with `spark_overrides` set on
    /// the session: the one way any mode builds a stack. Nothing is
    /// armed: a [`run_one`] arms its own faults, and a compound trial
    /// rearms the context with its fault set.
    pub(crate) fn new(
        crossing: CrossingContext,
        spark_overrides: &[(String, String)],
    ) -> Deployment {
        let sink = DiagSink::new();
        let mut metastore = Metastore::new();
        let mut fs = MiniHdfs::with_datanodes(3);
        metastore.set_crossing(crossing.clone());
        fs.set_crossing(crossing.clone());
        let metastore = Arc::new(Mutex::new(metastore));
        let fs = Arc::new(Mutex::new(fs));
        let mut spark =
            SparkSession::connect(metastore.clone(), fs.clone(), sink.handle("minispark"));
        for (k, v) in spark_overrides {
            spark.config.set(k, v);
        }
        let hive = HiveQl::new(metastore.clone(), fs.clone(), sink.handle("minihive"));
        #[cfg(test)]
        BUILT.with(|built| built.borrow_mut().push(spark_overrides.to_vec()));
        Deployment {
            sink,
            spark,
            hive,
            crossing,
            #[cfg(test)]
            fs,
            #[cfg(test)]
            metastore,
        }
    }

    /// Drops `table` (best effort) through the session API and discards
    /// the diagnostics the drop produced, so recycling never leaks into
    /// the next observation. The namenode needs nothing more: its
    /// namespace is a tree of the live files, the same whichever
    /// experiments built and dropped them.
    pub(crate) fn recycle(&self, table: &str) {
        let _ = self.spark.drop_table(table, true);
        self.sink.drain();
    }
}

#[cfg(test)]
thread_local! {
    /// The overrides of every stack built on this thread, in build order:
    /// what a unit test reads to check which configuration a mode ran.
    pub(crate) static BUILT: std::cell::RefCell<Vec<Vec<(String, String)>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A traced stack in the default configuration: the one way a unit test
/// builds a deployment of its own.
#[cfg(test)]
pub(crate) fn test_stack() -> Deployment {
    Deployment::new(CrossingContext::new(), &[])
}

/// Renders a harness value as a SQL literal understood by both SQL
/// dialects: `write_literal` into a new `String`.
pub fn render_literal(value: &Value) -> String {
    let mut out = String::new();
    write_literal(&mut out, value);
    out
}

/// Appends `value` to `out` as a SQL literal understood by both SQL
/// dialects, so a statement is built in one buffer.
pub(crate) fn write_literal(out: &mut String, value: &Value) {
    // Writing to a `String` cannot fail.
    let _ = match value {
        Value::Null => out.write_str("NULL"),
        Value::Boolean(b) => out.write_str(if *b { "TRUE" } else { "FALSE" }),
        Value::Byte(v) if *v == i8::MIN => write!(out, "CAST('{v}' AS TINYINT)"),
        Value::Byte(v) => write!(out, "{v}Y"),
        Value::Short(v) if *v == i16::MIN => write!(out, "CAST('{v}' AS SMALLINT)"),
        Value::Short(v) => write!(out, "{v}S"),
        Value::Int(v) if *v == i32::MIN => write!(out, "CAST('{v}' AS INT)"),
        Value::Int(v) => write!(out, "{v}"),
        Value::Long(v) if *v == i64::MIN => write!(out, "CAST('{v}' AS BIGINT)"),
        Value::Long(v) => write!(out, "{v}L"),
        Value::Float(v) => write!(out, "CAST('{v}' AS FLOAT)"),
        Value::Double(v) => write!(out, "CAST('{v}' AS DOUBLE)"),
        Value::Decimal(d) => write!(out, "{d}BD"),
        Value::Str(s) => {
            write_quoted(out, s);
            Ok(())
        }
        Value::Binary(b) => {
            out.push_str("X'");
            for x in b {
                let _ = write!(out, "{x:02X}");
            }
            out.write_char('\'')
        }
        // Neither rendering can hold a quote: no escaping to do.
        Value::Date(d) => write!(out, "DATE '{}'", format_date(*d)),
        Value::Timestamp(us) => write!(out, "TIMESTAMP '{}'", format_timestamp(*us)),
        Value::Interval { months, micros } => {
            // Render at full precision: months plus a day-time decomposition
            // whose components all carry the day-time sign, with sub-second
            // micros as a fractional SECOND magnitude (quoted, since the
            // grammar takes string magnitudes). `i128` keeps `i64::MIN` safe.
            out.push_str("INTERVAL");
            let start = out.len();
            if *months != 0 {
                let _ = write!(out, " {months} MONTH");
            }
            let mut rest = i128::from(*micros);
            for (per, unit) in [
                (86_400_000_000i128, "DAY"),
                (3_600_000_000, "HOUR"),
                (60_000_000, "MINUTE"),
            ] {
                let n = rest / per;
                rest %= per;
                if n != 0 {
                    let _ = write!(out, " {n} {unit}");
                }
            }
            if rest % 1_000_000 == 0 {
                if rest != 0 {
                    let _ = write!(out, " {} SECOND", rest / 1_000_000);
                }
            } else {
                let sign = if rest < 0 { "-" } else { "" };
                let abs = rest.unsigned_abs();
                // The fraction's six digits, trailing zeros dropped.
                let (mut frac, mut width) = (abs % 1_000_000, 6);
                while frac % 10 == 0 {
                    frac /= 10;
                    width -= 1;
                }
                let _ = write!(out, " '{sign}{}.{frac:0width$}' SECOND", abs / 1_000_000);
            }
            if out.len() == start {
                out.push_str(" 0 SECOND");
            }
            Ok(())
        }
        Value::Array(items) => {
            out.push_str("ARRAY(");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_literal(out, item);
            }
            out.write_char(')')
        }
        Value::Map(pairs) => {
            out.push_str("MAP(");
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_literal(out, k);
                out.push_str(", ");
                write_literal(out, v);
            }
            out.write_char(')')
        }
        Value::Struct(fields) => {
            out.push_str("NAMED_STRUCT(");
            for (i, (n, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_quoted(out, n);
                out.push_str(", ");
                write_literal(out, v);
            }
            out.write_char(')')
        }
    };
}

/// A statement about `table`, written into one buffer with room for a
/// one-cell table's text.
fn statement(table: &str) -> String {
    String::with_capacity(table.len() + 96)
}

/// The table-creation half of a write. Split from [`insert_via`] so the
/// multi-job interleaver ([`crate::multi`]) can schedule the two halves as
/// separate turns; `write_via` composes them back for [`run_one`].
pub(crate) fn create_via(
    d: &Deployment,
    interface: Interface,
    table: &str,
    input: &TestInput,
    format: StorageFormat,
) -> Result<(), InteractionError> {
    match interface {
        Interface::SparkSql | Interface::HiveQl => {
            let mut create = statement(table);
            let _ = write!(
                create,
                "CREATE TABLE {table} (c {}) STORED AS {}",
                input.column_type,
                format.name()
            );
            match interface {
                Interface::SparkSql => d
                    .spark
                    .sql(&create)
                    .map(|_| ())
                    .map_err(InteractionError::from),
                _ => d
                    .hive
                    .execute(&create)
                    .map(|_| ())
                    .map_err(InteractionError::from),
            }
        }
        Interface::DataFrame => {
            let schema = [csi_core::value::StructField::new(
                "c",
                input.column_type.clone(),
            )];
            d.spark
                .dataframe()
                .create_table(table, &schema, format)
                .map_err(InteractionError::from)
        }
    }
}

/// The row-insertion half of a write; see [`create_via`].
pub(crate) fn insert_via(
    d: &Deployment,
    interface: Interface,
    table: &str,
    input: &TestInput,
) -> Result<(), InteractionError> {
    match interface {
        Interface::SparkSql | Interface::HiveQl => {
            let mut insert = statement(table);
            let _ = write!(insert, "INSERT INTO {table} VALUES (");
            write_literal(&mut insert, &input.value);
            insert.push(')');
            match interface {
                Interface::SparkSql => d
                    .spark
                    .sql(&insert)
                    .map(|_| ())
                    .map_err(InteractionError::from),
                _ => d
                    .hive
                    .execute(&insert)
                    .map(|_| ())
                    .map_err(InteractionError::from),
            }
        }
        Interface::DataFrame => d
            .spark
            .dataframe()
            .insert_into(table, &[vec![input.value.clone()]])
            .map_err(InteractionError::from),
    }
}

fn write_via(
    d: &Deployment,
    interface: Interface,
    table: &str,
    input: &TestInput,
    format: StorageFormat,
) -> Result<(), InteractionError> {
    create_via(d, interface, table, input, format)?;
    insert_via(d, interface, table, input)
}

pub(crate) fn read_via(
    d: &Deployment,
    interface: Interface,
    table: &str,
) -> Result<Vec<Value>, InteractionError> {
    let select = || {
        let mut select = statement(table);
        let _ = write!(select, "SELECT * FROM {table}");
        select
    };
    let rows = match interface {
        Interface::SparkSql => d.spark.sql(&select()).map_err(InteractionError::from)?.rows,
        Interface::DataFrame => {
            d.spark
                .dataframe()
                .read_table(table)
                .map_err(InteractionError::from)?
                .1
        }
        Interface::HiveQl => {
            d.hive
                .execute(&select())
                .map_err(InteractionError::from)?
                .rows
        }
    };
    first_column(rows)
}

/// Extracts the single projected column from a row set.
///
/// An empty row is a malformed engine response — under injection a garbled
/// data file can decode to anything — so it surfaces as a typed crash
/// instead of the `remove(0)` panic this helper replaces.
pub(crate) fn first_column(mut rows: Vec<Vec<Value>>) -> Result<Vec<Value>, InteractionError> {
    let empty_row = || {
        InteractionError::crash(
            "csi-test",
            "EMPTY_ROW",
            "engine returned a zero-column row for a one-column projection",
        )
    };
    // A one-row read, which every grid read is, hands back its own row.
    if rows.len() == 1 {
        let mut row = rows.pop().expect("one row");
        if row.is_empty() {
            return Err(empty_row());
        }
        row.truncate(1);
        return Ok(row);
    }
    rows.into_iter()
        .map(|mut r| {
            if r.is_empty() {
                Err(empty_row())
            } else {
                Ok(r.remove(0))
            }
        })
        .collect()
}

/// Runs one observation on `d` with exactly `faults` armed, and leaves
/// `d` as it found it: its table dropped, nothing armed.
pub(crate) fn run_one(
    d: &Deployment,
    experiment: Experiment,
    plan: TestPlan,
    format: StorageFormat,
    input: &TestInput,
    faults: &[FaultSpec],
) -> Observation {
    // `t_{exp}_{write}{read}_{ext}_{id}` is at most 52 bytes, so the name
    // costs one allocation.
    let mut table = String::with_capacity(64);
    let _ = write!(
        table,
        "t_{}_{}{}_{}_{}",
        experiment.short(),
        plan.write.slug(),
        plan.read.slug(),
        format.extension(),
        input.id
    );
    // Scope the armed faults, call-counted triggers, the virtual clock,
    // and the trace to this observation, regardless of which worker ran
    // the previous one — the property that keeps campaigns byte-identical
    // across worker counts.
    d.crossing.rearm(faults);
    d.sink.drain();
    let plan_label = experiment.plan_label(plan);
    let write_result = write_via(d, plan.write, &table, input, format);
    let write = WriteOutcome {
        result: write_result,
        diagnostics: d.sink.drain(),
    };
    let read = if write.result.is_ok() {
        let result = read_via(d, plan.read, &table);
        Some(ReadOutcome {
            result,
            diagnostics: d.sink.drain(),
        })
    } else {
        None
    };
    let obs = Observation {
        input_id: input.id,
        plan: plan_label,
        format: format.name().to_string(),
        write,
        read,
        trace: d.crossing.trace(),
        detections: Vec::new(),
    };
    // The drop runs fault-free and crosses the boundary too, but the
    // trace is already taken: its crossings are not in it.
    d.crossing.rearm(&[]);
    d.recycle(&table);
    obs
}

/// A run a detector judges: a grid or explore [`Observation`], or a
/// fault-matrix [`FaultCase`].
pub(crate) trait Judged {
    /// The scenario key its detections carry.
    fn scenario(&self) -> String;
    fn trace(&self) -> &InteractionTrace;
    /// The error that surfaced to the caller, if any.
    fn surfaced(&self) -> Option<&InteractionError>;
    fn detections(&mut self) -> &mut Vec<Detection>;
}

impl Judged for Observation {
    fn scenario(&self) -> String {
        scenario_key(&self.plan, &self.format, Some(self.input_id))
    }
    fn trace(&self) -> &InteractionTrace {
        &self.trace
    }
    fn surfaced(&self) -> Option<&InteractionError> {
        Observation::surfaced(self)
    }
    fn detections(&mut self) -> &mut Vec<Detection> {
        &mut self.detections
    }
}

impl Judged for FaultCase {
    fn scenario(&self) -> String {
        self.scenario.clone()
    }
    fn trace(&self) -> &InteractionTrace {
        &self.trace
    }
    fn surfaced(&self) -> Option<&InteractionError> {
        self.surfaced.as_ref()
    }
    fn detections(&mut self) -> &mut Vec<Detection> {
        &mut self.detections
    }
}

/// The one calibration rule: `run` with `faults` armed, judged against
/// its fault-free twin. Given a `detector`, `run` first runs with nothing
/// armed, as the twin, then with `faults` armed, and
/// [`DetectorSpec::detect`] judges the armed run against the twin's
/// trace. With no faults the run is its own twin: no crossing of it is
/// faulted and none diverges, so nothing can fire, and it runs once,
/// unjudged. `run` must be hermetic, so the twin never leaks into the
/// judged run; that keeps every detecting mode byte-identical at any
/// worker count. The scenario key is built only when a run is judged.
pub(crate) fn judged_run<R: Judged>(
    faults: &[FaultSpec],
    detector: Option<&DetectorSpec>,
    mut run: impl FnMut(&[FaultSpec]) -> R,
) -> R {
    let Some(detector) = detector.filter(|_| !faults.is_empty()) else {
        return run(faults);
    };
    let twin = run(&[]);
    let mut judged = run(faults);
    let detections = detector.detect(
        &judged.scenario(),
        judged.trace(),
        twin.trace(),
        judged.surfaced(),
    );
    *judged.detections() = detections;
    judged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::generator::{generate_inputs, Validity};
    use crate::plan::cells;
    use csi_core::value::{DataType, Decimal};

    fn one_input(column_type: DataType, value: Value, validity: Validity) -> Vec<TestInput> {
        vec![TestInput {
            id: 0,
            column_type,
            value,
            validity,
            label: "test".into(),
            expected_back: None,
        }]
    }

    #[test]
    fn literal_rendering_round_trips_through_both_dialects() {
        let cases = [
            Value::Int(42),
            Value::Byte(i8::MIN),
            Value::Long(i64::MIN),
            Value::Str("it's".into()),
            Value::Decimal(Decimal::parse("-1.50").unwrap()),
            Value::Binary(vec![0xCA, 0xFE]),
            Value::Date(0),
            Value::Interval {
                months: -3,
                micros: 0,
            },
        ];
        for v in cases {
            let lit = render_literal(&v);
            let stmt = format!("INSERT INTO t VALUES ({lit})");
            assert!(
                csi_core::sql::parse(&stmt).is_ok(),
                "literal {lit} does not parse"
            );
        }
    }

    #[test]
    fn render_literal_preserves_full_interval_precision() {
        use csi_core::sql::{eval_interval_parts, Expr, Statement};
        let cases = [
            (0, 0),
            (3, 0),
            (0, 604_800_000_000), // 7 days
            (0, 1_500_000),       // 1.5 s: sub-second fraction
            (0, -500_000),        // -0.5 s: negative pure fraction
            (2, 90_061_000_001),  // mixed: months AND day-time
            (-3, -3_600_000_000), // negative mixed
            (1, -1),              // months with -1 µs
            (0, i64::MIN + 1),
            (0, i64::MAX),
        ];
        for (months, micros) in cases {
            let v = Value::Interval { months, micros };
            let lit = render_literal(&v);
            let stmt = format!("INSERT INTO t VALUES ({lit})");
            let parsed = csi_core::sql::parse(&stmt)
                .unwrap_or_else(|e| panic!("literal {lit} does not parse: {e:?}"));
            let Statement::Insert { rows, .. } = parsed else {
                panic!("not an insert: {lit}");
            };
            let Expr::IntervalLit { parts } = &rows[0][0] else {
                panic!("not an interval literal: {lit}");
            };
            assert_eq!(
                eval_interval_parts(parts),
                Ok((months, micros)),
                "literal {lit} lost precision"
            );
        }
    }

    #[test]
    fn first_column_rejects_empty_rows_instead_of_panicking() {
        // Regression: `read_via` used to `remove(0)` unconditionally; a
        // zero-column row (possible from a garbled data file under
        // injection) was a panic, not an error.
        let ok = first_column(vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
        assert_eq!(ok, vec![Value::Int(1), Value::Int(2)]);
        let err = first_column(vec![vec![Value::Int(1)], vec![]]).unwrap_err();
        assert_eq!(err.kind, csi_core::ErrorKind::Crash);
        assert_eq!(err.code, "EMPTY_ROW");
    }

    /// The tables and warehouse directories `d` holds, in name order.
    fn namespace(d: &Deployment) -> (Vec<String>, Vec<String>) {
        let fs = d.fs.lock();
        let metastore = d.metastore.lock();
        let tables = metastore.list_tables("default").unwrap();
        let dirs = fs
            .list_status(metastore.warehouse_root())
            .unwrap_or_default();
        (
            tables.into_iter().map(str::to_string).collect(),
            dirs.iter()
                .map(|s| s.path.name().unwrap().to_string())
                .collect(),
        )
    }

    #[test]
    fn a_recycled_observation_leaves_an_empty_namespace() {
        let d = test_stack();
        let inputs = generate_inputs();
        let experiment = Experiment::SparkToSpark;
        for (_, _, plan, format) in cells(&[experiment], &StorageFormat::ALL) {
            for input in &inputs[..24] {
                run_one(&d, experiment, plan, format, input, &[]);
                assert_eq!(
                    namespace(&d),
                    (vec![], vec![]),
                    "{plan} {format:?} input {} left its table behind",
                    input.id
                );
            }
        }
        // Every metastore and HDFS fault, over every cell, on one
        // deployment: a faulted run drops its table fault-free, and the
        // fault-free run after it sees what it would see on a fresh
        // deployment.
        let input = crate::inject::probe_input();
        let faults = crate::inject::deployment_faults(42);
        let mut fired = 0;
        for (_, experiment, plan, format) in cells(&Experiment::ALL, &StorageFormat::ALL) {
            let fresh = run_one(&test_stack(), experiment, plan, format, &input, &[]);
            for fault in &faults {
                let obs = run_one(
                    &d,
                    experiment,
                    plan,
                    format,
                    &input,
                    std::slice::from_ref(fault),
                );
                fired += csi_core::boundary::faulted(&obs.trace.crossings).count();
                assert_eq!(
                    namespace(&d),
                    (vec![], vec![]),
                    "{} on {plan} {format:?} left its table behind",
                    fault.id
                );
                let after = run_one(&d, experiment, plan, format, &input, &[]);
                assert_eq!(after.behavior(), fresh.behavior(), "{} on {plan}", fault.id);
                assert_eq!(after.trace, fresh.trace, "{} on {plan}", fault.id);
            }
        }
        assert!(fired > 0, "no fault fired");
    }

    #[test]
    fn happy_path_int_is_clean_everywhere() {
        let inputs = one_input(DataType::Int, Value::Int(7), Validity::Valid);
        let outcome = Campaign::new(&inputs).run();
        assert!(
            outcome.report.raw_failures.is_empty(),
            "unexpected failures: {:#?}",
            outcome.report.raw_failures
        );
        // 3 experiments x plans x 3 formats observations.
        assert_eq!(outcome.observations.len(), (4 + 2 + 2) * 3);
    }

    #[test]
    fn byte_input_reveals_d01_and_d03() {
        let inputs = one_input(DataType::Byte, Value::Byte(5), Validity::Valid);
        let outcome = Campaign::new(&inputs).run();
        let ids: Vec<&str> = outcome
            .report
            .discrepancies
            .iter()
            .map(|d| d.id.as_str())
            .collect();
        assert!(ids.contains(&"D01"), "found {ids:?}");
        assert!(ids.contains(&"D03"), "found {ids:?}");
        assert!(outcome.report.unattributed.is_empty());
    }

    #[test]
    fn full_catalogue_runs_clean_of_unattributed_failures() {
        let inputs = generate_inputs();
        let outcome = Campaign::new(&inputs).run();
        assert!(
            outcome.report.unattributed.is_empty(),
            "unattributed: {:#?}",
            outcome
                .report
                .unattributed
                .iter()
                .take(5)
                .collect::<Vec<_>>()
        );
        assert_eq!(outcome.report.distinct(), 15);
    }
}
