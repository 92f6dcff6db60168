//! Workload `grid`: the paper's §8 campaign — 422 inputs × 8 plans × 3
//! formats of one-cell tables, serial, tables accumulating — rendered and
//! serialised. Per-observation fixed cost dominates.

use crate::args::Args;
use crate::harness::{self, Rng, Timed};
use crate::ladder::{self, Namespace, Stack};
use crate::machine::Flavour;
use crate::metrics::RunResult;
use crate::stats;
use crate::trace::Tracer;
use csi_core::oracle::{check_differential, Observation, OracleFailure};
use csi_core::report::DiscrepancyReport;
use csi_test::classify::classify;
use csi_test::generator::TestInput;
use csi_test::plan::Experiment;
use csi_test::{generate_inputs, Campaign, CampaignOutcome};
use minihive::metastore::StorageFormat;
use std::time::Instant;

/// Untimed iterations before measuring (allocator growth, page faults).
const WARMUP: usize = 2;
/// The paper's count of distinct discrepancies (D01–D15).
const DISCREPANCIES: usize = 15;
/// One observation in this many gets the below-the-interface replay.
const SAMPLE_ONE_IN: usize = 8;
/// Ladder campaigns per traced run: each adds ~65k spans, and eight give
/// every layer thousands of samples; the rest of the run goes to the
/// whole-executor measurements.
const LADDER_CAMPAIGNS: u64 = 8;

/// The catalogue in a seed-determined order: the same 422 inputs (ids
/// kept), so the same work, created in a different table order.
pub fn inputs(seed: u64) -> Vec<TestInput> {
    let mut inputs = generate_inputs();
    Rng::new(seed, 0x6772_6964).shuffle(&mut inputs);
    inputs
}

/// What one iteration produced, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    /// FNV-1a over the rendered report and the report JSON.
    bytes_hash: u64,
    discrepancies: usize,
    observations: usize,
    /// Values read back across all observations.
    cells: usize,
}

/// Values the observations read back: the "cells written, read back and
/// checked" of a row campaign.
pub fn cells_read(observations: &[(Experiment, Observation)]) -> usize {
    observations
        .iter()
        .filter_map(|(_, o)| o.read.as_ref()?.result.as_ref().ok())
        .map(Vec::len)
        .sum()
}

fn digest(outcome: &CampaignOutcome, rendered: &str, json: &str) -> Digest {
    let mut bytes = Vec::with_capacity(rendered.len() + json.len());
    bytes.extend_from_slice(rendered.as_bytes());
    bytes.extend_from_slice(json.as_bytes());
    Digest {
        bytes_hash: csi_serve::fnv1a(&bytes),
        discrepancies: outcome.report.discrepancies.len(),
        observations: outcome.observations.len(),
        cells: cells_read(&outcome.observations),
    }
}

/// One iteration: spec → rendered report + report JSON.
fn iteration(inputs: &[TestInput]) -> (CampaignOutcome, Digest) {
    let outcome = Campaign::new(inputs).run();
    let rendered = outcome.render();
    let json = serde_json::to_string(&outcome.report).expect("reports serialize");
    let d = digest(&outcome, &rendered, &json);
    (outcome, d)
}

fn setup(seed: u64) -> (Vec<TestInput>, Digest) {
    let inputs = inputs(seed);
    let mut reference = None;
    for _ in 0..WARMUP {
        reference = Some(iteration(&inputs).1);
    }
    (inputs, reference.expect("at least one warm-up"))
}

fn check(d: &Digest, reference: &Digest) -> bool {
    d.discrepancies == DISCREPANCIES && d == reference
}

fn measure(seconds: f64, inputs: &[TestInput], reference: &Digest) -> Timed {
    harness::timed_loop(seconds, Flavour::Maps, |_| {
        check(&iteration(inputs).1, reference)
    })
}

/// The untraced run: every end-to-end metric.
pub fn run(args: &Args, process_start: Instant) -> RunResult {
    let ((inputs, reference), setup_s) =
        harness::repeated_setup(process_start, args.setup_passes, Flavour::Maps, || {
            setup(args.seed)
        });
    harness::reset_ops();
    let timed = measure(args.seconds, &inputs, &reference);
    let n = timed.samples_ms.len() as f64;
    let (attempted, failed, _) = harness::ops();
    let mut r = RunResult {
        correct: failed == 0 && reference.discrepancies == DISCREPANCIES,
        attempted,
        failed,
        ..RunResult::default()
    };
    r.values.set("setup_s", setup_s);
    r.values.set("campaign_p50_ms", timed.p50_ms());
    r.values.set(
        "obs_per_s",
        reference.observations as f64 * n / timed.busy_s(),
    );
    r.values
        .set("cells_per_s", reference.cells as f64 * n / timed.busy_s());
    r.values.set("peak_rss_mb", crate::procfs::peak_rss_mb());
    r.notes.push(timed.note("grid campaign"));
    r.notes.push(format!(
        "{} observations, {} cells read back, {} discrepancies per campaign",
        reference.observations, reference.cells, reference.discrepancies
    ));
    r
}

/// The top-level spans of one ladder campaign that are the campaign's
/// own work (an observation span covers its interface calls, its oracle
/// and the executor's glue between them); the replays and namespace
/// probes the ladder adds beside them are not.
const REAL_PATH: &[&str] = &[
    "exec.deploy",
    "exec.observation",
    "oracle.differential",
    "classify.report",
    "report.render",
    "report.json",
];

/// One campaign through the ladder. Returns the report JSON (to compare
/// with the campaign's own) and the iteration's wall time in ns.
fn ladder_iteration(
    t: &mut Tracer,
    iteration: u64,
    inputs: &[TestInput],
    sample: &mut Rng,
    small: &mut Namespace,
    large: &mut Namespace,
) -> (String, u64) {
    let started = Instant::now();
    let root = t.enter("grid.iteration", iteration);
    let diag = csi_core::diag::DiagSink::new().handle("minihive");
    let mut observations: Vec<(Experiment, Observation)> = Vec::new();
    let mut failures: Vec<OracleFailure> = Vec::new();
    let mut request = iteration << 32;
    for experiment in Experiment::ALL {
        let stack = t.span("exec.deploy", request, || Stack::new(true));
        let mut of_experiment: Vec<Observation> = Vec::new();
        for plan in experiment.plans() {
            for format in StorageFormat::ALL {
                for input in inputs {
                    request += 1;
                    let (obs, failure) =
                        ladder::observe(t, request, &stack, experiment, plan, format, input);
                    failures.extend(failure);
                    if sample.below(SAMPLE_ONE_IN) == 0 && obs.write.result.is_ok() {
                        let table = ladder::table_name(experiment, plan, format, input.id);
                        ladder::replay_cell(t, request, &table, input, format, &diag);
                        let names = ("metastore.create_get", "hdfs.create_read");
                        small.probe(t, request, names, b"one-cell file stand-in");
                        let names = ("metastore.create_get_10k", "hdfs.create_read_10k");
                        large.probe(t, request, names, b"one-cell file stand-in");
                    }
                    of_experiment.push(obs);
                }
            }
        }
        failures.extend(t.span("oracle.differential", request, || {
            check_differential(&of_experiment)
        }));
        observations.extend(of_experiment.into_iter().map(|o| (experiment, o)));
    }
    let report: DiscrepancyReport = t.span("classify.report", request, || {
        classify(inputs, &observations, failures, false)
    });
    // `CampaignOutcome::render` is `Render::standard(&report)` for a plain
    // cross-test campaign.
    t.span("report.render", request, || {
        csi_core::report::Render::standard(&report).to_string()
    });
    let json = t.span("report.json", request, || {
        serde_json::to_string(&report).expect("reports serialize")
    });
    t.exit(root);
    (json, started.elapsed().as_nanos() as u64)
}

/// Boundary crossings per observation on `channel`, from the traces the
/// observations carry.
pub fn crossings_per_obs(observations: &[(Experiment, Observation)], channel: &str) -> f64 {
    let total: usize = observations
        .iter()
        .map(|(_, o)| {
            o.trace
                .crossings
                .iter()
                .filter(|c| c.call.channel.to_string() == channel)
                .count()
        })
        .sum();
    total as f64 / observations.len().max(1) as f64
}

/// The traced run: every per-layer metric this workload reaches.
pub fn run_traced(args: &Args, _process_start: Instant) -> (RunResult, Tracer) {
    let mut t = Tracer::new();
    let mut r = RunResult::default();
    let run_started = Instant::now();

    // generator: what every `InputSelection::resolve` pays per campaign.
    for i in 0..50 {
        t.span("generator.inputs", i, generate_inputs);
    }
    let (inputs, reference) = setup(args.seed);

    // Untraced reference iterations, for the overhead and unattributed
    // shares and the exact per-observation crossing counts.
    harness::reset_ops();
    let reference_run = harness::timed_loop(args.seconds * 0.12, Flavour::Maps, |_| {
        check(&iteration(&inputs).1, &reference)
    });
    let reference_ms = reference_run.p50_ms();
    let (outcome, _) = iteration(&inputs);

    let mut small = Namespace::with_tables(100);
    let mut large = Namespace::with_tables(10_000);
    let mut sample = Rng::new(args.seed, 0x6c61_6464);
    let campaign_json = serde_json::to_string(&outcome.report).expect("reports serialize");
    let mut ladder_ms = Vec::new();
    let mut real_ms = Vec::new();
    let mut ladder_ok = true;
    let mut i = 0u64;
    while i == 0
        || (i < LADDER_CAMPAIGNS && run_started.elapsed().as_secs_f64() < args.seconds * 0.7)
    {
        harness::begin_op();
        let first_span = t.spans().len();
        let kernel_before = Flavour::Maps.read_us();
        let (json, ns) = ladder_iteration(&mut t, i, &inputs, &mut sample, &mut small, &mut large);
        // Both shares compare with the reference campaigns, run at another
        // moment: everything at reference speed.
        let speed = Flavour::Maps.speed(kernel_before, Flavour::Maps.read_us());
        // The ladder is only a measurement of the campaign if it *is* the
        // campaign: same report, byte for byte.
        let same = json == campaign_json;
        ladder_ok &= same;
        harness::end_op(same);
        ladder_ms.push(ns as f64 / 1e6 * speed);
        real_ms.push(t.total_ns_since(first_span, REAL_PATH) as f64 / 1e6 * speed);
        i += 1;
    }

    // csi_test::{exec,shard}: the recycling serial executor and the
    // two-worker sharded one, timed whole.
    let mut recycle = Vec::new();
    let mut sharded = Vec::new();
    let mut sharded_metrics = None;
    while recycle.is_empty() || run_started.elapsed().as_secs_f64() < args.seconds * 0.95 {
        let started = Instant::now();
        let out = t.span("exec.recycle_campaign", i, || {
            Campaign::new(&inputs).recycle_tables(true).run()
        });
        recycle.push(out.observations.len() as f64 / started.elapsed().as_secs_f64());
        let started = Instant::now();
        let out = t.span("shard.w2_campaign", i, || {
            Campaign::new(&inputs)
                .shards(2)
                .chunk_size(32)
                .recycle_tables(true)
                .run()
        });
        sharded.push(out.observations.len() as f64 / started.elapsed().as_secs_f64());
        ladder_ok &= out.report.discrepancies.len() == DISCREPANCIES;
        sharded_metrics = out.metrics;
    }

    let us = |t: &Tracer, name: &str| t.median_us(name);
    for (metric, span) in [
        ("generator.inputs_us", "generator.inputs"),
        ("sql.parse_us_per_stmt", "sql.parse"),
        ("sparksql.create_us", "sparksql.create"),
        ("sparksql.insert_us", "sparksql.insert"),
        ("sparksql.select_us", "sparksql.select"),
        ("dataframe.create_us", "dataframe.create"),
        ("dataframe.insert_us", "dataframe.insert"),
        ("dataframe.read_us", "dataframe.read"),
        ("hiveql.create_us", "hiveql.create"),
        ("hiveql.insert_us", "hiveql.insert"),
        ("hiveql.select_us", "hiveql.select"),
        ("spark_serde.write1_us", "spark_serde.write1"),
        ("spark_serde.read1_us", "spark_serde.read1"),
        ("hive_serde.write1_us", "hive_serde.write1"),
        ("hive_serde.read1_us", "hive_serde.read1"),
        ("formats.encode1_us", "formats.encode1"),
        ("formats.decode1_us", "formats.decode1"),
        ("metastore.create_get_us", "metastore.create_get"),
        ("metastore.create_get_us_10k", "metastore.create_get_10k"),
        ("hdfs.create_read_us", "hdfs.create_read"),
        ("hdfs.create_read_us_10k", "hdfs.create_read_10k"),
        ("oracle.cell_us", "oracle.cell"),
        ("oracle.differential_us", "oracle.differential"),
        ("classify.report_us", "classify.report"),
        ("report.render_us", "report.render"),
    ] {
        r.values.set(metric, us(&t, span));
    }
    r.values.set("report.json_ms", us(&t, "report.json") / 1e3);
    r.values
        .set("report.json_bytes", campaign_json.len() as f64);
    r.values.set(
        "boundary.crossings_per_obs.metastore",
        crossings_per_obs(&outcome.observations, "metastore"),
    );
    r.values.set(
        "boundary.crossings_per_obs.hdfs",
        crossings_per_obs(&outcome.observations, "hdfs"),
    );
    r.values
        .set("exec.obs_per_s_recycle", stats::median(&recycle));
    r.values.set("shard.obs_per_s_w2", stats::median(&sharded));
    if let Some(m) = sharded_metrics {
        let total = m.total_micros.max(1) as f64;
        r.values.set(
            "shard.utilization_min",
            m.per_worker
                .iter()
                .map(|w| w.utilization)
                .fold(f64::INFINITY, f64::min),
        );
        r.values
            .set("campaign.execute_share", m.execute_micros as f64 / total);
        r.values
            .set("campaign.oracle_share", m.oracle_micros as f64 / total);
    }
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
    r.correct = failed == 0 && ladder_ok;
    r.notes
        .push(reference_run.note("untraced reference campaign"));
    r.notes.push(format!(
        "{} ladder campaigns (report byte-identical to the campaign's: {ladder_ok}), p50 {:.3} ms; 1 observation in {SAMPLE_ONE_IN} replayed below the interface; {} spans",
        ladder_ms.len(),
        stats::median(&ladder_ms),
        t.spans().len()
    ));
    (r, t)
}
