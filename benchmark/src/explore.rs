//! Workload `explore`: one "hunt" — coverage-guided exploration over the
//! catalogue, the same seeded with a synthesized real-shaped corpus, the
//! fault matrix with the online detector, and a k-fault × interleaving
//! compound pass. Faults are armed and the boundary trace is on, so the
//! search layers (explore, mutate, shrink, inject, multi, detect) sit on
//! the blocking path that `grid` never takes.

use crate::args::Args;
use crate::grid::{cells_read, crossings_per_obs};
use crate::harness::{self, Rng, Timed};
use crate::ladder;
use crate::machine::Flavour;
use crate::metrics::RunResult;
use crate::stats;
use crate::trace::Tracer;
use csi_core::coverage::{CoverageMap, CoverageSignature};
use csi_test::generator::TestInput;
use csi_test::{generate_inputs, mutate_input, Campaign, CampaignOutcome, CorpusShape};
use minihive::metastore::StorageFormat;
use std::time::Instant;

/// Untimed hunts before measuring.
const WARMUP: usize = 2;
/// Observation budget of the two explore campaigns.
const EXPLORE_BUDGET: usize = 3200;
/// Trial budget of the compound pass (and of the small explore pass the
/// builder runs in front of it).
const COMPOUND_BUDGET: usize = 400;
/// Discrepancy classes a 3,200-observation exploration must reach, for
/// the catalogue and for the corpus-seeded run: one below the fewest seen
/// over 180 seeds (14 on 15 % of seeds, else 15; always 15), so that no
/// seed the driver picks fails while a search that loses classes does.
const CLASS_FLOORS: [usize; 2] = [13, 14];
/// Replay rounds of a traced run; each adds ~4k spans in ~20 ms.
const REPLAY_ROUNDS: usize = 16;
/// Exploration seeds a run rotates through. What a hunt costs depends on
/// its exploration seed (which mutants are tried, how far shrinking goes):
/// two seeds differ by up to 13 %, run after run. A run at `--seed` s
/// therefore hunts with sixteen seeds derived from s in turn, and its
/// figures are over that mix instead of one draw; a 20-second run still
/// hunts with each seed two to four times.
const SEEDS_PER_RUN: usize = 16;

/// The exploration, corpus and matrix seed of hunt number `iteration`.
fn hunt_seed(seed: u64, iteration: usize) -> u64 {
    seed.wrapping_mul(SEEDS_PER_RUN as u64)
        .wrapping_add((iteration % SEEDS_PER_RUN) as u64)
}

/// The four campaigns of one hunt, in order.
const STAGES: [&str; 4] = [
    "explore.catalogue",
    "explore.corpus",
    "inject.matrix",
    "multi.compound",
];

fn stage(index: usize, inputs: &[TestInput], seed: u64) -> CampaignOutcome {
    match index {
        0 => Campaign::new(inputs)
            .seed(seed)
            .explore(EXPLORE_BUDGET)
            .run(),
        1 => Campaign::new(&[])
            .corpus(CorpusShape::default(), seed)
            .seed(seed)
            .explore(EXPLORE_BUDGET)
            .detect(true)
            .run(),
        2 => Campaign::new(&[]).fault_matrix(seed).detect(true).run(),
        _ => Campaign::new(inputs)
            .seed(seed)
            .kfaults(3)
            .jobs(3)
            .explore(COMPOUND_BUDGET)
            .run(),
    }
}

/// What a hunt produced, reduced to what the checks and metrics need.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    /// FNV-1a over the four rendered reports and report JSONs.
    bytes_hash: u64,
    /// Observations, matrix cells and compound trials executed.
    observations: usize,
    /// Values read back by the observations that carry them.
    cells: usize,
    /// Every budget respected, the class floors reached, recall 1.0.
    sound: bool,
}

fn executed(outcome: &CampaignOutcome) -> usize {
    outcome.exploration.as_ref().map_or(0, |s| s.executed)
        + outcome.matrix.as_ref().map_or(0, |m| m.cases.len())
        + outcome.compound.as_ref().map_or(0, |c| c.executed)
}

fn sound(index: usize, outcome: &CampaignOutcome) -> bool {
    let within = |budget: usize| {
        outcome
            .exploration
            .as_ref()
            .is_some_and(|s| s.executed <= budget)
    };
    match index {
        0 | 1 => {
            within(EXPLORE_BUDGET) && outcome.report.discrepancies.len() >= CLASS_FLOORS[index]
        }
        2 => outcome
            .matrix
            .as_ref()
            .and_then(|m| m.agreement.as_ref())
            .is_some_and(|a| a.recall() >= 1.0),
        _ => {
            within(COMPOUND_BUDGET)
                && outcome
                    .compound
                    .as_ref()
                    .is_some_and(|c| c.executed <= COMPOUND_BUDGET)
        }
    }
}

/// One hunt: four specs → four rendered reports + report JSONs.
fn hunt(inputs: &[TestInput], seed: u64) -> (Vec<CampaignOutcome>, Digest) {
    let mut bytes = Vec::new();
    let mut outcomes = Vec::with_capacity(STAGES.len());
    for index in 0..STAGES.len() {
        let outcome = stage(index, inputs, seed);
        bytes.extend_from_slice(outcome.render().as_bytes());
        bytes.extend_from_slice(
            serde_json::to_string(&outcome.report)
                .expect("reports serialize")
                .as_bytes(),
        );
        outcomes.push(outcome);
    }
    let digest = Digest {
        bytes_hash: csi_serve::fnv1a(&bytes),
        observations: outcomes.iter().map(executed).sum(),
        cells: outcomes.iter().map(|o| cells_read(&o.observations)).sum(),
        sound: outcomes.iter().enumerate().all(|(i, o)| sound(i, o)),
    };
    (outcomes, digest)
}

/// What each exploration seed of the run produced the first time it was
/// hunted with, which every later hunt with that seed must reproduce.
#[derive(Default)]
struct References([Option<Digest>; SEEDS_PER_RUN]);

impl References {
    /// Whether hunt number `iteration` was sound and, if its seed has
    /// been hunted with before, byte-identical to that hunt.
    fn check(&mut self, iteration: usize, d: &Digest) -> bool {
        let first = self.0[iteration % SEEDS_PER_RUN].get_or_insert_with(|| d.clone());
        d.sound && first == d
    }
}

/// The catalogue, the warm-up hunts' digests, and whether they were sound.
fn setup(seed: u64) -> (Vec<TestInput>, References, bool) {
    let inputs = generate_inputs();
    let mut references = References::default();
    let mut sound = true;
    for i in 0..WARMUP {
        sound &= references.check(i, &hunt(&inputs, hunt_seed(seed, i)).1);
    }
    (inputs, references, sound)
}

/// The untraced run: every end-to-end metric.
pub fn run(args: &Args, process_start: Instant) -> RunResult {
    let ((inputs, mut references, warm_ups_sound), setup_s) =
        harness::repeated_setup(process_start, args.setup_passes, Flavour::Maps, || {
            setup(args.seed)
        });
    harness::reset_ops();
    let (mut observations, mut cells) = (0, 0);
    let timed: Timed = harness::timed_loop(args.seconds, Flavour::Maps, |i| {
        let d = hunt(&inputs, hunt_seed(args.seed, i)).1;
        observations += d.observations;
        cells += d.cells;
        references.check(i, &d)
    });
    let (attempted, failed, _) = harness::ops();
    let mut r = RunResult {
        correct: failed == 0 && warm_ups_sound,
        attempted,
        failed,
        ..RunResult::default()
    };
    r.values.set("setup_s", setup_s);
    r.values.set("campaign_p50_ms", timed.p50_ms());
    r.values
        .set("obs_per_s", observations as f64 / timed.busy_s());
    r.values.set("cells_per_s", cells as f64 / timed.busy_s());
    r.values.set("peak_rss_mb", crate::procfs::peak_rss_mb());
    r.notes.push(timed.note("hunt (four campaigns)"));
    r.notes.push(format!(
        "{SEEDS_PER_RUN} exploration seeds in turn: {observations} observations/cells/trials executed, {cells} cells read back; budgets, class floors {CLASS_FLOORS:?} and recall 1.0 held, every hunt byte-identical to the first with its seed: {}",
        r.correct
    ));
    r
}

/// The traced run: every per-layer metric this workload reaches.
pub fn run_traced(args: &Args, _process_start: Instant) -> (RunResult, Tracer) {
    let mut t = Tracer::new();
    let mut r = RunResult::default();
    let run_started = Instant::now();
    let seed = args.seed;
    let (inputs, mut references, warm_ups_sound) = setup(seed);

    harness::reset_ops();
    let reference_run = harness::timed_loop(args.seconds * 0.15, Flavour::Maps, |i| {
        references.check(i, &hunt(&inputs, hunt_seed(seed, i)).1)
    });
    let reference_ms = reference_run.p50_ms();

    // The hunt with a span around each campaign and around each render
    // and serialisation.
    let mut traced_ms = Vec::new();
    let mut real_ms = Vec::new();
    // The first traced hunt's outcomes: the exact counts come from one
    // exploration seed, whatever number of hunts the run fits in.
    let mut first = Vec::new();
    let mut i = 0u64;
    while i == 0 || run_started.elapsed().as_secs_f64() < args.seconds * 0.9 {
        harness::begin_op();
        let kernel_before = Flavour::Maps.read_us();
        let started = Instant::now();
        let root = t.enter("explore.hunt", i);
        let mut spanned = 0u64;
        let mut outcomes = Vec::with_capacity(STAGES.len());
        let mut ok = true;
        for (index, name) in STAGES.into_iter().enumerate() {
            let first = t.spans().len();
            let outcome = t.span(name, i, || {
                stage(index, &inputs, hunt_seed(seed, i as usize))
            });
            t.span("report.render", i, || outcome.render());
            t.span("report.json", i, || {
                serde_json::to_string(&outcome.report).expect("reports serialize")
            });
            spanned += t.spans()[first..]
                .iter()
                .map(|s| s.duration_ns())
                .sum::<u64>();
            ok &= sound(index, &outcome);
            outcomes.push(outcome);
        }
        t.exit(root);
        let raw_ms = started.elapsed().as_secs_f64() * 1e3;
        // Both shares compare with the reference hunts, run at another
        // moment: everything at reference speed.
        let speed = Flavour::Maps.speed(kernel_before, Flavour::Maps.read_us());
        traced_ms.push(raw_ms * speed);
        real_ms.push(spanned as f64 / 1e6 * speed);
        harness::end_op(ok);
        if i == 0 {
            first = outcomes;
        }
        i += 1;
    }

    // Replays of the layers under the search loop, on its own inputs.
    let diag = csi_core::diag::DiagSink::new().handle("minihive");
    let shape = CorpusShape::default();
    let catalogue = &first[0];
    let mut request = 0u64;
    let mut sample = Rng::new(seed, 0x6578_706c);
    for _ in 0..REPLAY_ROUNDS {
        for input in &inputs {
            request += 1;
            t.span("generator.mutate", request, || mutate_input(input));
        }
        let table = t.span("corpus.synthesize", request, || {
            csi_test::synthesize(&shape, hunt_seed(seed, 0))
        });
        let csv = table.render_csv();
        t.count("corpus.csv_bytes", csv.len() as u64);
        t.span("corpus.infer", request, || csi_test::infer(&csv))
            .expect("rendered corpus CSV infers");
        let mut map = CoverageMap::new();
        for (n, (_, obs)) in catalogue.observations.iter().enumerate() {
            t.span("coverage.observe", request, || {
                map.observe(&CoverageSignature::from_trace(&obs.trace), n)
            });
        }
        // One observation in eight, when it ran a catalogue input, also
        // replays the parser, serde and codec on that input.
        for (experiment, obs) in &catalogue.observations {
            let Some(input) = inputs.get(obs.input_id).filter(|_| sample.below(8) == 0) else {
                continue;
            };
            let format = StorageFormat::ALL
                .into_iter()
                .find(|f| f.name() == obs.format)
                .unwrap_or(StorageFormat::Orc);
            let table = ladder::table_name(*experiment, experiment.plans()[0], format, input.id);
            ladder::replay_cell(&mut t, request, &table, input, format, &diag);
        }
    }

    let stats_of = |o: &CampaignOutcome| o.exploration.clone().unwrap_or_default();
    let cat = stats_of(catalogue);
    r.values
        .set("generator.mutate_us", t.median_us("generator.mutate"));
    r.values.set(
        "corpus.synthesize_ms",
        t.median_us("corpus.synthesize") / 1e3,
    );
    let csv_bytes =
        t.counted("corpus.csv_bytes") as f64 / t.durations_ns("corpus.infer").len().max(1) as f64;
    let infer_us = t.median_us("corpus.infer");
    r.values.set(
        "corpus.infer_mb_s",
        if infer_us > 0.0 {
            csv_bytes / infer_us
        } else {
            0.0
        },
    );
    for (metric, span) in [
        ("sql.parse_us_per_stmt", "sql.parse"),
        ("spark_serde.write1_us", "spark_serde.write1"),
        ("spark_serde.read1_us", "spark_serde.read1"),
        ("hive_serde.write1_us", "hive_serde.write1"),
        ("hive_serde.read1_us", "hive_serde.read1"),
        ("formats.encode1_us", "formats.encode1"),
        ("formats.decode1_us", "formats.decode1"),
        ("coverage.observe_us", "coverage.observe"),
        ("report.render_us", "report.render"),
    ] {
        r.values.set(metric, t.median_us(span));
    }
    for (metric, span) in [
        ("explore.catalogue_ms", "explore.catalogue"),
        ("explore.corpus_ms", "explore.corpus"),
        ("inject.matrix_ms", "inject.matrix"),
        ("multi.compound_ms", "multi.compound"),
        ("report.json_ms", "report.json"),
    ] {
        r.values.set(metric, t.median_us(span) / 1e3);
    }
    r.values.set(
        "report.json_bytes",
        serde_json::to_string(&catalogue.report)
            .expect("reports serialize")
            .len() as f64,
    );
    r.values.set(
        "boundary.crossings_per_obs.metastore",
        crossings_per_obs(&catalogue.observations, "metastore"),
    );
    r.values.set(
        "boundary.crossings_per_obs.hdfs",
        crossings_per_obs(&catalogue.observations, "hdfs"),
    );
    r.values.set(
        "explore.execs_to_all_classes",
        cat.discoveries
            .iter()
            .map(|d| d.executed)
            .max()
            .unwrap_or(0) as f64,
    );
    r.values.set("explore.signatures", cat.signatures as f64);
    r.values.set(
        "explore.novel_from_mutation",
        cat.novel_from_mutation as f64,
    );
    r.values.set(
        "explore.useful_ratio",
        cat.signatures as f64 / cat.executed.max(1) as f64,
    );
    r.values
        .set("shrink.reproducers", catalogue.reproducers.len() as f64);
    r.values.set(
        "shrink.checks",
        cat.shrinks.iter().map(|s| s.checks).sum::<usize>() as f64,
    );
    if let Some(matrix) = &first[2].matrix {
        let cells = matrix.cases.len().max(1) as f64;
        r.values.set("inject.cells", matrix.cases.len() as f64);
        r.values.set(
            "fault.fired_per_trial",
            matrix.cases.iter().map(|c| c.fired.len()).sum::<usize>() as f64 / cells,
        );
        r.values.set(
            "detect.detections",
            matrix
                .cases
                .iter()
                .map(|c| c.detections.len())
                .sum::<usize>() as f64,
        );
        r.values.set(
            "detect.recall",
            matrix.agreement.as_ref().map_or(0.0, |a| a.recall()),
        );
    }
    if let Some(compound) = &first[3].compound {
        r.values.set("multi.trials", compound.executed as f64);
        r.values
            .set("multi.clusters", first[3].clusters.len() as f64);
        r.values
            .set("multi.shrink_checks", compound.shrink_checks as f64);
    }
    r.values.set(
        "proc.cpu_ms_per_iter",
        reference_run.cpu_ms / reference_run.samples_ms.len() as f64,
    );
    r.values.set("host.speed", reference_run.speed_p50());
    r.values.set(
        "trace.overhead_share",
        stats::median(&traced_ms) / reference_ms - 1.0,
    );
    r.values.set(
        "trace.unattributed_share",
        1.0 - stats::median(&real_ms) / reference_ms,
    );

    let (attempted, failed, _) = harness::ops();
    r.attempted = attempted;
    r.failed = failed;
    r.correct = failed == 0 && warm_ups_sound;
    r.notes.push(reference_run.note("untraced reference hunt"));
    r.notes.push(format!(
        "{} traced hunts, p50 {:.3} ms; {REPLAY_ROUNDS} replay rounds (mutate, synthesize, infer, coverage, 1-in-8 cell replay); {} spans",
        traced_ms.len(),
        stats::median(&traced_ms),
        t.spans().len()
    ));
    (r, t)
}
