//! Bulk (columnar) cross-testing campaigns.
//!
//! The 422-input catalogue exercises *breadth*: every type, every edge
//! value, one row at a time. Bulk campaigns exercise *depth*: a wide
//! table of clean round-tripping data at thousands to millions of rows,
//! written and read through the engines' columnar entry points
//! ([`DataFrameApi::insert_columns`] / [`HiveQl::insert_columns`]) and
//! checked by the vectorized write–read oracle
//! ([`judge_write_read_columns`]) plus a fingerprint-based differential
//! oracle across plans.
//!
//! Everything is deterministic in `rows` and the spec's `seed` and
//! `formats`: the generator is a seeded xorshift and the oracles are pure,
//! so two runs of the same campaign produce byte-identical reports — the same property the row
//! campaigns pin for serial-vs-sharded execution.
//!
//! [`DataFrameApi::insert_columns`]: minispark::dataframe::DataFrameApi::insert_columns
//! [`HiveQl::insert_columns`]: minihive::hiveql::HiveQl::insert_columns
//! [`judge_write_read_columns`]: csi_core::oracle::judge_write_read_columns

use crate::exec::Deployment;
use crate::generator::{bulk_schema, generate_bulk_columns};
use crate::plan::Interface;
use crate::spec::CampaignSpec;
use csi_core::boundary::CrossingContext;
use csi_core::column::{ColumnMatch, ValueColumn};
use csi_core::hash::Fnv1a;
use csi_core::oracle::{judge_write_read_columns, OracleFailure};
use csi_core::value::StructField;
use csi_core::InteractionError;
use minihive::metastore::StorageFormat;
use serde::Serialize;
use std::fmt::Write as _;

/// The bulk interface pairs: the two engines' columnar entry points
/// crossed both ways. SparkSQL has no bulk API (INSERT literals are
/// row-by-row by construction), so it stays in the row campaigns.
const BULK_PLANS: [(Interface, Interface); 4] = [
    (Interface::DataFrame, Interface::DataFrame),
    (Interface::DataFrame, Interface::HiveQl),
    (Interface::HiveQl, Interface::DataFrame),
    (Interface::HiveQl, Interface::HiveQl),
];

/// One (plan, format) cell of a bulk campaign.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct BulkCell {
    /// `write->read` plan label.
    pub plan: String,
    /// Storage format name.
    pub format: String,
    /// Rows read back.
    pub rows_read: usize,
    /// Combined FNV fingerprint over all read columns (0 on crash).
    pub digest: u64,
    /// A crash before the oracle could run, rendered.
    pub crash: Option<String>,
    /// Write–read oracle failures (one per diverging column).
    pub failures: Vec<String>,
}

/// The deterministic result of [`Campaign::run_bulk`](crate::Campaign::run_bulk).
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct BulkReport {
    /// Rows per table.
    pub rows: usize,
    /// Generator seed.
    pub seed: u64,
    /// Every (plan, format) cell, in plan-major order.
    pub cells: Vec<BulkCell>,
    /// Differential oracle: formats whose plans disagreed on the read
    /// digest, with the diverging plan labels.
    pub differential: Vec<String>,
}

impl BulkReport {
    /// Total write–read failures across all cells.
    pub fn failure_count(&self) -> usize {
        self.cells.iter().map(|c| c.failures.len()).sum()
    }

    /// Whether every cell round-tripped cleanly and all plans agreed.
    pub fn clean(&self) -> bool {
        self.failure_count() == 0
            && self.differential.is_empty()
            && self.cells.iter().all(|c| c.crash.is_none())
    }

    /// Renders the report in the artifact's section style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== Bulk campaign: {} rows x {} columns (seed {}) ==",
            self.rows,
            bulk_schema().len(),
            self.seed
        );
        for cell in &self.cells {
            let status = match (&cell.crash, cell.failures.len()) {
                (Some(c), _) => format!("CRASH {c}"),
                (None, 0) => format!("ok digest {:016x}", cell.digest),
                (None, n) => format!("{n} write-read failure(s)"),
            };
            let _ = writeln!(
                out,
                "  {:22} {:8} {:>9} rows  {}",
                cell.plan, cell.format, cell.rows_read, status
            );
            for f in &cell.failures {
                let _ = writeln!(out, "      {f}");
            }
        }
        if self.differential.is_empty() {
            let _ = writeln!(out, "  differential: all plans agree per format");
        } else {
            for d in &self.differential {
                let _ = writeln!(out, "  differential: {d}");
            }
        }
        out
    }
}

fn bulk_write(
    d: &Deployment,
    interface: Interface,
    table: &str,
    format: StorageFormat,
    cols: &[ValueColumn],
) -> Result<(), InteractionError> {
    let schema = bulk_schema();
    match interface {
        Interface::DataFrame => {
            let df = d.spark.dataframe();
            df.create_table(table, &schema, format)
                .map_err(InteractionError::from)?;
            df.insert_columns(table, cols)
                .map_err(InteractionError::from)
        }
        Interface::HiveQl => {
            let cols_sql: Vec<String> = schema
                .iter()
                .map(|f| format!("{} {}", f.name, f.data_type))
                .collect();
            d.hive
                .execute(&format!(
                    "CREATE TABLE {table} ({}) STORED AS {}",
                    cols_sql.join(", "),
                    format.name()
                ))
                .map_err(InteractionError::from)?;
            d.hive
                .insert_columns(table, cols)
                .map_err(InteractionError::from)
        }
        Interface::SparkSql => unreachable!("SparkSQL has no bulk interface"),
    }
}

fn bulk_read(
    d: &Deployment,
    interface: Interface,
    table: &str,
) -> Result<Vec<ValueColumn>, InteractionError> {
    match interface {
        Interface::DataFrame => d
            .spark
            .dataframe()
            .read_table_columns(table)
            .map(|(_, cols)| cols)
            .map_err(InteractionError::from),
        Interface::HiveQl => d
            .hive
            .read_table_columns(table)
            .map_err(InteractionError::from),
        Interface::SparkSql => unreachable!("SparkSQL has no bulk interface"),
    }
}

/// Combined digest over a table's columns: FNV-1a over the per-column
/// fingerprints, so two reads agree iff every column fingerprints equally.
pub fn table_digest(cols: &[ValueColumn]) -> u64 {
    digest_of(cols.iter().map(ValueColumn::fingerprint))
}

/// FNV-1a over column fingerprints, in column order.
fn digest_of(prints: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    for print in prints {
        h.bytes(&print.to_le_bytes());
    }
    h.finish()
}

/// The table every cell of a campaign writes, with its column
/// fingerprints, hashed once per campaign.
struct ExpectedTable {
    schema: Vec<StructField>,
    cols: Vec<ValueColumn>,
    prints: Vec<u64>,
}

impl ExpectedTable {
    fn new(cols: Vec<ValueColumn>) -> ExpectedTable {
        ExpectedTable {
            schema: bulk_schema(),
            prints: cols.iter().map(ValueColumn::fingerprint).collect(),
            cols,
        }
    }

    /// Judges one cell's read-back table: the write–read failures, one per
    /// diverging column, and the cell's digest, [`table_digest`] of
    /// `actual`. A column the write–read compare finds bitwise identical to
    /// its expected column takes the expected fingerprint; every other
    /// column, a canonically equal one included, is hashed.
    fn judge(&self, plan: &str, format: &str, actual: &[ValueColumn]) -> (u64, Vec<String>) {
        let mut failures = Vec::new();
        let prints = actual.iter().enumerate().map(|(i, act)| {
            let Some(exp) = self.cols.get(i) else {
                return act.fingerprint();
            };
            match judge_write_read_columns(i, plan, format, exp, act) {
                Ok(ColumnMatch::Identical) => self.prints[i],
                Ok(_) => act.fingerprint(),
                Err(OracleFailure { detail, .. }) => {
                    failures.push(format!("column {}: {detail}", self.schema[i].name));
                    act.fingerprint()
                }
            }
        });
        let digest = digest_of(prints);
        (digest, failures)
    }
}

/// Runs a bulk campaign of `rows` rows generated from `spec.seed`: every
/// bulk plan crossed with every one of `spec.formats`, each in a fresh
/// deployment, checked by the vectorized write–read oracle and a
/// per-format digest differential.
pub(crate) fn run_bulk(spec: &CampaignSpec, rows: usize) -> BulkReport {
    let expected = ExpectedTable::new(generate_bulk_columns(rows, spec.seed));
    let mut cells = Vec::with_capacity(BULK_PLANS.len() * spec.formats.len());
    let mut differential = Vec::new();
    for format in &spec.formats {
        let mut digests: Vec<(String, u64)> = Vec::new();
        for (write, read) in BULK_PLANS {
            let plan = format!("{write}->{read}");
            // Tracing off: bulk campaigns measure the data plane, and the
            // per-op trace sink would dominate at millions of rows.
            let d = Deployment::new(CrossingContext::disabled(), &spec.spark_overrides);
            let table = format!("bulk_{}", format.extension());
            let outcome = bulk_write(&d, write, &table, *format, &expected.cols)
                .and_then(|()| bulk_read(&d, read, &table));
            let cell = match outcome {
                Err(e) => BulkCell {
                    plan: plan.clone(),
                    format: format.name().to_string(),
                    rows_read: 0,
                    digest: 0,
                    crash: Some(e.to_string()),
                    failures: Vec::new(),
                },
                Ok(actual) => {
                    let (digest, failures) = expected.judge(&plan, format.name(), &actual);
                    digests.push((plan.clone(), digest));
                    BulkCell {
                        plan: plan.clone(),
                        format: format.name().to_string(),
                        rows_read: actual.first().map_or(0, ValueColumn::len),
                        digest,
                        crash: None,
                        failures,
                    }
                }
            };
            cells.push(cell);
        }
        if let Some((first_plan, first)) = digests.first().cloned() {
            let diverging: Vec<&(String, u64)> =
                digests.iter().filter(|(_, d)| *d != first).collect();
            if !diverging.is_empty() {
                let plans: Vec<String> = diverging
                    .iter()
                    .map(|(p, d)| format!("{p} ({d:016x})"))
                    .collect();
                differential.push(format!(
                    "{}: {} disagree(s) with {first_plan} ({first:016x})",
                    format.name(),
                    plans.join(", ")
                ));
            }
        }
    }
    BulkReport {
        rows,
        seed: spec.seed,
        cells,
        differential,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csi_core::column::ColumnValues;
    use csi_core::oracle::check_write_read_columns;
    use csi_core::value::{DataType, Value};

    #[test]
    fn bulk_campaign_is_clean_and_deterministic() {
        let spec = CampaignSpec::default();
        let a = run_bulk(&spec, 128);
        assert!(a.clean(), "unexpected bulk failures:\n{}", a.render());
        assert_eq!(a.cells.len(), 12); // 4 plans x 3 formats
        let b = run_bulk(&spec, 128);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }

    /// A cell's failures, column by column from [`check_write_read_columns`].
    fn failures_alone(expected: &[ValueColumn], actual: &[ValueColumn]) -> Vec<String> {
        let schema = bulk_schema();
        expected
            .iter()
            .zip(actual)
            .enumerate()
            .filter_map(|(i, (exp, act))| {
                let failure = check_write_read_columns(i, "p", "orc", exp, act)?;
                Some(format!("column {}: {}", schema[i].name, failure.detail))
            })
            .collect()
    }

    #[test]
    fn a_cell_reuses_only_identical_fingerprints() {
        let cols = generate_bulk_columns(64, 7);
        let int = 1;
        assert_eq!(bulk_schema()[int].data_type, DataType::Int);
        let mixed = ValueColumn::from_values(&DataType::Long, &cols[int].to_values());
        assert!(matches!(mixed.values(), ColumnValues::Mixed(_)));
        assert!(mixed.canonical_eq(&cols[int]));
        let mut demoted = cols.clone();
        demoted[int] = mixed;
        let mut changed = cols.clone();
        let mut cells = changed[int].to_values();
        let row = cells
            .iter()
            .position(|v| !v.is_null())
            .expect("a non-NULL cell");
        cells[row] = Value::Int(i32::MIN);
        changed[int] = ValueColumn::from_values(&DataType::Int, &cells);
        let mut missing = cols.clone();
        missing.remove(int);

        let expected = ExpectedTable::new(cols.clone());
        let cases = [
            ("expected", cols.clone(), 0),
            ("demoted", demoted, 0),
            ("changed", changed, 1),
            ("missing", missing, 7),
        ];
        for (name, actual, failing) in cases {
            let (digest, failures) = expected.judge("p", "orc", &actual);
            assert_eq!(
                (digest, &failures),
                (table_digest(&actual), &failures_alone(&cols, &actual)),
                "{name}"
            );
            assert_eq!(failures.len(), failing, "{name}: {failures:?}");
        }
    }

    #[test]
    fn bulk_digests_agree_across_formats_on_clean_data() {
        // Clean round-trippers come back identical regardless of backend,
        // so even the *cross-format* digests agree.
        let report = run_bulk(&CampaignSpec::default(), 64);
        let digests: Vec<u64> = report.cells.iter().map(|c| c.digest).collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn bulk_digest_tracks_content() {
        let orc = |seed| CampaignSpec {
            seed,
            formats: vec![StorageFormat::Orc],
            ..CampaignSpec::default()
        };
        let a = run_bulk(&orc(1), 32);
        let b = run_bulk(&orc(2), 32);
        assert_ne!(a.cells[0].digest, b.cells[0].digest);
    }
}
