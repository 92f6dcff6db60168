//! The metric tables — the same names, units and directions that
//! `BENCHMARK.json` declares (a unit test compares the two) — and the
//! result a run prints.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: printed by every workload's untraced run.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one of them, with
/// one definition across workloads, and none can be zero. Times are
/// reported at reference speed (README, "Reference speed"); the timing
/// metrics still carry the widest bound the contract allows, because what
/// the scaling leaves of the host's 2x drift is not negligible on `bulk`
/// and `serve`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "campaign_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "obs_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: printed by every workload's traced run (0 where
/// the workload never reaches the layer).
pub struct PerLayer {
    /// Metric name, `layer.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction. Declared for `BENCHMARK.json` (which `contract.rs`
    /// compares with this table); nothing at run time reads it, since
    /// per-layer metrics carry no bound.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// A count (or a ratio of counts) that must repeat exactly from run
    /// to run at one seed.
    pub exact: bool,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

/// An exact per-layer count.
const fn ex(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// The per-layer metrics, in layer order (data plane bottom-up, then the
/// search layers, then the serve layers, then the process).
pub const PER_LAYER: &[PerLayer] = &[
    // csi_test::generator, csi_test::corpus
    pl("generator.inputs_us", "us", Lower),
    pl("generator.mutate_us", "us", Lower),
    pl("generator.bulk_mcells_s", "Mcells/s", Higher),
    pl("corpus.synthesize_ms", "ms", Lower),
    pl("corpus.infer_mb_s", "MB/s", Higher),
    // csi_core::sql
    pl("sql.parse_us_per_stmt", "us", Lower),
    // minispark::{sparksql,dataframe}
    pl("sparksql.create_us", "us", Lower),
    pl("sparksql.insert_us", "us", Lower),
    pl("sparksql.select_us", "us", Lower),
    pl("dataframe.create_us", "us", Lower),
    pl("dataframe.insert_us", "us", Lower),
    pl("dataframe.read_us", "us", Lower),
    pl("dataframe.insert_columns_ms", "ms", Lower),
    pl("dataframe.read_columns_ms", "ms", Lower),
    // minihive::hiveql
    pl("hiveql.create_us", "us", Lower),
    pl("hiveql.insert_us", "us", Lower),
    pl("hiveql.select_us", "us", Lower),
    pl("hiveql.insert_columns_ms", "ms", Lower),
    pl("hiveql.read_columns_ms", "ms", Lower),
    // minispark::serde_layer, minihive::serde_layer
    pl("spark_serde.write1_us", "us", Lower),
    pl("spark_serde.read1_us", "us", Lower),
    pl("hive_serde.write1_us", "us", Lower),
    pl("hive_serde.read1_us", "us", Lower),
    pl("spark_serde.write_mcells_s.orc", "Mcells/s", Higher),
    pl("spark_serde.write_mcells_s.parquet", "Mcells/s", Higher),
    pl("spark_serde.write_mcells_s.avro", "Mcells/s", Higher),
    pl("spark_serde.read_mcells_s.orc", "Mcells/s", Higher),
    pl("spark_serde.read_mcells_s.parquet", "Mcells/s", Higher),
    pl("spark_serde.read_mcells_s.avro", "Mcells/s", Higher),
    pl("hive_serde.write_mcells_s.orc", "Mcells/s", Higher),
    pl("hive_serde.write_mcells_s.parquet", "Mcells/s", Higher),
    pl("hive_serde.write_mcells_s.avro", "Mcells/s", Higher),
    pl("hive_serde.read_mcells_s.orc", "Mcells/s", Higher),
    pl("hive_serde.read_mcells_s.parquet", "Mcells/s", Higher),
    pl("hive_serde.read_mcells_s.avro", "Mcells/s", Higher),
    // miniformats::batch
    pl("formats.encode1_us", "us", Lower),
    pl("formats.decode1_us", "us", Lower),
    pl("formats.encode_mb_s.orc", "MB/s", Higher),
    pl("formats.encode_mb_s.parquet", "MB/s", Higher),
    pl("formats.encode_mb_s.avro", "MB/s", Higher),
    pl("formats.decode_mb_s.orc", "MB/s", Higher),
    pl("formats.decode_mb_s.parquet", "MB/s", Higher),
    pl("formats.decode_mb_s.avro", "MB/s", Higher),
    ex("formats.bytes_per_cell.orc", "B", Lower),
    ex("formats.bytes_per_cell.parquet", "B", Lower),
    ex("formats.bytes_per_cell.avro", "B", Lower),
    // minihive::metastore, minihdfs::fs
    pl("metastore.create_get_us", "us", Lower),
    pl("metastore.create_get_us_10k", "us", Lower),
    pl("hdfs.create_read_us", "us", Lower),
    pl("hdfs.create_read_us_10k", "us", Lower),
    pl("hdfs.write_mb_s", "MB/s", Higher),
    pl("hdfs.read_mb_s", "MB/s", Higher),
    pl("hdfs.vacuum_us", "us", Lower),
    // csi_core::{boundary,fault,detect}
    ex("boundary.crossings_per_obs.metastore", "count", Lower),
    ex("boundary.crossings_per_obs.hdfs", "count", Lower),
    ex("fault.fired_per_trial", "count", Higher),
    ex("detect.detections", "count", Higher),
    ex("detect.recall", "ratio", Higher),
    // csi_core::{oracle,column}, csi_test::classify
    pl("oracle.cell_us", "us", Lower),
    pl("oracle.differential_us", "us", Lower),
    pl("oracle.columns_mcells_s", "Mcells/s", Higher),
    pl("column.fingerprint_mcells_s", "Mcells/s", Higher),
    pl("classify.report_us", "us", Lower),
    // csi_core::report
    pl("report.render_us", "us", Lower),
    pl("report.json_ms", "ms", Lower),
    ex("report.json_bytes", "B", Lower),
    // csi_test::{exec,shard}
    pl("exec.obs_per_s_recycle", "1/s", Higher),
    pl("shard.obs_per_s_w2", "1/s", Higher),
    pl("shard.utilization_min", "ratio", Higher),
    pl("campaign.execute_share", "ratio", Lower),
    pl("campaign.oracle_share", "ratio", Lower),
    // csi_test::{explore,shrink}, csi_core::coverage
    pl("explore.catalogue_ms", "ms", Lower),
    pl("explore.corpus_ms", "ms", Lower),
    ex("explore.execs_to_all_classes", "count", Lower),
    ex("explore.signatures", "count", Higher),
    ex("explore.novel_from_mutation", "count", Higher),
    ex("explore.useful_ratio", "ratio", Higher),
    pl("coverage.observe_us", "us", Lower),
    ex("shrink.reproducers", "count", Higher),
    ex("shrink.checks", "count", Lower),
    // csi_test::{inject,multi}
    pl("inject.matrix_ms", "ms", Lower),
    ex("inject.cells", "count", Higher),
    pl("multi.compound_ms", "ms", Lower),
    ex("multi.trials", "count", Lower),
    ex("multi.clusters", "count", Higher),
    ex("multi.shrink_checks", "count", Lower),
    // csi_serve::protocol, csi_test::spec
    pl("protocol.request_parse_us", "us", Lower),
    pl("protocol.report_frame_ser_us", "us", Lower),
    ex("protocol.report_frame_bytes", "B", Lower),
    pl("spec.validate_us", "us", Lower),
    pl("spec.resolve_us", "us", Lower),
    // csi_serve::{sched,tenant}, csi_test::pool
    pl("sched.submit_next_us", "us", Lower),
    pl("sched.hot_cold_p50_x", "x", Lower),
    pl("tenant.register_us", "us", Lower),
    pl("tenant.record_report_us", "us", Lower),
    pl("pool.created", "count", Lower),
    pl("pool.reused", "count", Higher),
    pl("pool.reuse_ratio", "ratio", Higher),
    // csi_serve::server, from frame timestamps
    pl("serve.capacity_cps", "campaigns/s", Higher),
    pl("serve.max_rate_ok_cps", "campaigns/s", Higher),
    pl("serve.first_detection_p50_ms", "ms", Lower),
    pl("serve.admit_ms_p50", "ms", Lower),
    pl("serve.queue_wait_ms_p50", "ms", Lower),
    pl("serve.run_ms_p50", "ms", Lower),
    pl("serve.reply_ms_p50", "ms", Lower),
    pl("serve.run_over_batch_x", "x", Lower),
    pl("serve.light_p50_ms", "ms", Lower),
    pl("serve.heavy_p50_ms", "ms", Lower),
    pl("serve.gen_lag_ms_p99", "ms", Lower),
    pl("serve.queue_depth_max", "count", Lower),
    pl("serve.rejected", "count", Lower),
    pl("serve.detection_frames", "count", Higher),
    pl("serve.r_lo.p50_ms", "ms", Lower),
    pl("serve.r_lo.p99_ms", "ms", Lower),
    pl("serve.r_lo.backlog_growth", "count", Lower),
    pl("serve.r_mid.p50_ms", "ms", Lower),
    pl("serve.r_mid.p99_ms", "ms", Lower),
    pl("serve.r_mid.backlog_growth", "count", Lower),
    pl("serve.r_hi.p50_ms", "ms", Lower),
    pl("serve.r_hi.p99_ms", "ms", Lower),
    pl("serve.r_hi.backlog_growth", "count", Lower),
    // the process and the tracer itself
    pl("proc.cpu_ms_per_iter", "ms", Lower),
    pl("host.speed", "x", Higher),
    pl("trace.overhead_share", "ratio", Lower),
    pl("trace.unattributed_share", "ratio", Lower),
];

/// The workloads and why each is here (the `why` of `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "grid",
        "422 inputs x 8 plans x 3 formats of one-cell tables: per-observation fixed cost (SQL, metastore, HDFS, 1-cell files, per-cell oracle) dominates; serde throughput and serve layers are bypassed",
    ),
    (
        "bulk",
        "131,072 rows x 9 columns x 4 plans x 3 formats: columnar serde, format codecs, HDFS block I/O and the vectorised oracle dominate; SQL parse and metastore are bypassed",
    ),
    (
        "explore",
        "coverage-guided hunt (catalogue, corpus-seeded, fault matrix, k-fault compound): faults armed, boundary trace and detector on; explore, mutate, shrink, inject, multi are on the blocking path",
    ),
    (
        "serve",
        "csi-serve over loopback TCP, 64 Zipf tenants, light/heavy/detect mix, closed burst then three open-loop rates: framing, JSON, journaling, fair queueing and the warm pool dominate, not exec",
    ),
];

/// Values gathered during a run, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default, Clone)]
pub struct RunResult {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations (campaigns or served requests) attempted while measuring.
    pub attempted: u64,
    /// Operations that failed a check, were refused, or never finished.
    pub failed: u64,
    /// Metric values.
    pub values: Values,
    /// Human-readable notes (sample counts, percentile levels, verdicts),
    /// printed before the result line.
    pub notes: Vec<String>,
}

/// Formats a value with all the digits measured (never scientific
/// notation, which some JSON readers of integers dislike).
fn number(v: f64) -> String {
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" || s == "-0" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// The names and units a run with tracing `traced` must print, in table
/// order.
pub fn expected(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

impl RunResult {
    /// The one-line JSON object a run ends with: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`, the metrics being
    /// every end-to-end metric (untraced) or every per-layer metric
    /// (traced). A metric a workload never reaches reads 0.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = expected(traced)
            .into_iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(self.values.get(name).unwrap_or(0.0))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// One `name value unit` line per metric, for people.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        for (name, unit) in expected(traced) {
            let value = self.values.get(name).unwrap_or(0.0);
            out.push_str(&format!("{name:<40} {:>16} {unit}\n", number(value)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(ok_name(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name} why too long"
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            correct: true,
            attempted: 12,
            ..RunResult::default()
        };
        r.values.set("campaign_p50_ms", 1.25);
        r.values.set("setup_s", 0.5);
        let line = r.json_line(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"campaign_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
        assert!(!line.contains("generator."));
        assert!(!line.contains('\n'));
        let traced = r.json_line(true);
        assert!(traced.contains("\"trace.overhead_share\""));
        assert!(!traced.contains("setup_s"));
    }

    #[test]
    fn numbers_keep_their_digits_without_exponents() {
        assert_eq!(number(0.0), "0");
        assert_eq!(number(1.0), "1");
        assert_eq!(number(1.203_456_7), "1.203457");
        assert_eq!(number(12_345_678.9), "12345678.9");
        assert_eq!(number(-0.000_000_1), "0");
    }
}
