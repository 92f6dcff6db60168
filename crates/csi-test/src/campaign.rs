//! The unified campaign API: one builder in front of the cross-test grid,
//! the fault matrix, explore mode and the compound pass, all of which run
//! on [`crate::shard`]'s one ordered worker pool:
//!
//! ```
//! use csi_test::generator::generate_inputs;
//! use csi_test::Campaign;
//!
//! let inputs = generate_inputs();
//! let outcome = Campaign::new(&inputs[..2]).shards(2).detect(true).run();
//! assert!(outcome.report.detector_enabled);
//! ```
//!
//! The builder itself is a thin mutation layer over a serializable
//! [`CampaignSpec`]: [`Campaign::spec`] extracts the spec,
//! [`Campaign::from_spec`] rebuilds the campaign (validating with typed
//! [`SpecError`]s instead of panicking), and the round trip is lossless —
//! running a serialized-and-revived spec is byte-identical to running the
//! builder it came from, because every mode runner reads the spec
//! itself: [`Campaign::try_run`] only validates it and dispatches. The
//! wire surface of the `csi-serve` daemon is exactly this spec. One
//! attachment stays *outside* the spec because it describes the runtime,
//! not the campaign: a [`DetectionTap`]
//! ([`Campaign::detection_tap`]) for streaming detections out mid-run.
//! A campaign builds every deployment it runs on and drops it when done,
//! so nothing of one campaign outlives it into another.
//!
//! With `.detect(true)`, every grid observation, matrix cell and explore
//! fault-overlay trial is judged with
//! [`DetectorSpec::detect`](csi_core::detect::DetectorSpec::detect)
//! against its fault-free twin: the same scenario run just before it with
//! nothing armed, whose trace is the "normal" pattern-anomaly detection
//! compares the observation's crossings with.
//!
//! Every mode fills one [`CampaignOutcome`], and each thing it found is a
//! [`Finding`] there that points at its proof.

use crate::corpus::CorpusShape;
use crate::explore;
use crate::generator::TestInput;
use crate::inject::{self, FaultMatrixReport};
use crate::multi;
use crate::plan::Experiment;
use crate::shard::{self, CampaignMetrics};
use crate::shrink::ShrunkReproducer;
use crate::spec::{CampaignSpec, InputSelection, Mode, SpecError};
use csi_core::boundary::Crossing;
use csi_core::detect::{DetectionTap, DetectorConfig};
use csi_core::fault::{FaultOutcome, FaultPlan, InjectedFault};
use csi_core::oracle::Observation;
use csi_core::report::{ClusterRow, CompoundStats, DiscrepancyReport, ExplorationStats, Render};
use minihive::metastore::StorageFormat;

/// Builder for a cross-testing or fault-matrix campaign: a serializable
/// [`CampaignSpec`] plus the runtime-only detection tap that never
/// travels over the wire.
#[derive(Debug, Clone)]
pub struct Campaign {
    spec: CampaignSpec,
    tap: Option<DetectionTap>,
}

/// The result of [`Campaign::run`]. Each mode fills the fields it
/// produces, findings included; the rest stay empty.
#[derive(Debug, Clone, Default)]
pub struct CampaignOutcome {
    /// The discrepancy report (empty in fault-matrix mode except for the
    /// detection aggregates, which are copied from the matrix).
    pub report: DiscrepancyReport,
    /// Every observation, tagged with its experiment (empty in
    /// fault-matrix mode; the cells live in `matrix`).
    pub observations: Vec<(Experiment, Observation)>,
    /// Throughput metrics of the cross-test grid (absent in matrix and
    /// explore mode).
    pub metrics: Option<CampaignMetrics>,
    /// The fault-matrix report, when the campaign ran in matrix mode.
    pub matrix: Option<FaultMatrixReport>,
    /// Corpus, coverage, and shrink statistics, when the campaign ran in
    /// explore mode.
    pub exploration: Option<ExplorationStats>,
    /// One minimized reproducer per shrunk discrepancy (explore mode).
    pub reproducers: Vec<ShrunkReproducer>,
    /// Aggregates of the compound (fault-set × interleaving) pass, when
    /// the campaign ran with [`Campaign::kfaults`] ≥ 1.
    pub compound: Option<CompoundStats>,
    /// Co-failure clusters of the compound pass, each shrunk to a minimal
    /// fault-set + interleaving reproducer.
    pub clusters: Vec<ClusterRow>,
    /// The main mode's findings in report or cell order, then the
    /// compound pass's in cluster order. Never rendered.
    pub findings: Vec<Finding>,
}

/// One finding — a discrepancy, a misbehaving matrix cell or a co-failure
/// cluster — and where in the [`CampaignOutcome`] its proof sits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The D-id (`"D07"`), the matrix cell's `fault_id x scenario`, or
    /// the cluster's hex fingerprint.
    pub id: String,
    /// Where in the outcome the proof sits.
    pub evidence: Evidence,
    /// `channel/op` of the first evidence's first faulted crossing.
    pub crack: Option<String>,
}

/// Where a [`Finding`]'s proof sits in its [`CampaignOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evidence {
    /// Indices into [`CampaignOutcome::observations`], failure by failure,
    /// each failure's in outcome order, none twice.
    Observations(Vec<usize>),
    /// An index into the matrix's [`cases`](FaultMatrixReport::cases).
    Case(usize),
    /// An index into [`CampaignOutcome::clusters`].
    Cluster(usize),
}

/// Whether a §9 bucket makes a matrix cell or compound job a finding.
pub(crate) fn is_finding(outcome: FaultOutcome) -> bool {
    matches!(
        outcome,
        FaultOutcome::Swallowed | FaultOutcome::Mistranslated | FaultOutcome::Crash
    )
}

/// `channel/op` of the first of `hits`, as read by
/// [`faulted`](csi_core::boundary::faulted).
pub(crate) fn crack<'a>(
    mut hits: impl Iterator<Item = (&'a Crossing, &'a InjectedFault)>,
) -> Option<String> {
    let (c, _) = hits.next()?;
    Some(format!("{}/{}", c.call.channel, c.call.op))
}

impl CampaignOutcome {
    /// Renders the campaign through the single [`Render`] path — the
    /// standard report sections, plus the fault-matrix cells when the
    /// campaign ran in matrix mode.
    pub fn render(&self) -> String {
        Render::standard(&self.report)
            .matrix(self.matrix.as_ref())
            .exploration(self.exploration.as_ref())
            .clusters(self.compound.as_ref(), &self.clusters)
            .to_string()
    }
}

impl Campaign {
    /// A campaign over `inputs`, with the full experiment × format cross,
    /// serial execution, and no faults or detection. Every observation
    /// carries its crossing trace.
    pub fn new(inputs: &[TestInput]) -> Campaign {
        Campaign {
            spec: CampaignSpec {
                inputs: InputSelection::Inline(inputs.to_vec()),
                ..CampaignSpec::default()
            },
            tap: None,
        }
    }

    /// Rebuilds a campaign from a (typically deserialized) spec,
    /// rejecting invalid specs with a typed [`SpecError`] instead of
    /// panicking — the validation gate every wire request passes through.
    pub fn from_spec(spec: CampaignSpec) -> Result<Campaign, SpecError> {
        spec.validate()?;
        Ok(Campaign { spec, tap: None })
    }

    /// The campaign's serializable spec. `Campaign::from_spec(c.spec().clone())`
    /// round-trips losslessly: the revived campaign runs byte-identically.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Restricts the experiments.
    pub fn experiments(mut self, experiments: Vec<Experiment>) -> Campaign {
        self.spec.experiments = experiments;
        self
    }

    /// Restricts the storage formats.
    pub fn formats(mut self, formats: Vec<StorageFormat>) -> Campaign {
        self.spec.formats = formats;
        self
    }

    /// Sets Spark configuration overrides on the session of every
    /// deployment the campaign builds. Which modes read it:
    /// [`FIELD_MODES`](crate::spec::FIELD_MODES).
    pub fn spark_overrides(mut self, overrides: Vec<(String, String)>) -> Campaign {
        self.spec.spark_overrides = overrides;
        self
    }

    /// Does nothing: every cross-test observation drops its own table, so
    /// there is no mode to choose. Kept so callers that once chose it
    /// still compile.
    pub fn recycle_tables(self, _recycle: bool) -> Campaign {
        self
    }

    /// Runs the campaign on `n` workers; `0` and `1` both run it on the
    /// calling thread. Clamped to
    /// [`MAX_SHARDS`](crate::spec::MAX_SHARDS) — only specs revived from
    /// the wire can carry an out-of-range value.
    pub fn shards(mut self, n: usize) -> Campaign {
        self.spec.shards = n.min(crate::spec::MAX_SHARDS);
        self
    }

    /// Maximum inputs per shard (grid campaigns only).
    pub fn chunk_size(mut self, chunk_size: usize) -> Campaign {
        self.spec.chunk_size = chunk_size.max(1);
        self
    }

    /// Arms a fault plan for every grid observation, or supplies the cell
    /// catalogue in matrix mode (replacing the seed-derived standard
    /// catalogue). Which modes read it:
    /// [`FIELD_MODES`](crate::spec::FIELD_MODES).
    pub fn faults(mut self, plan: FaultPlan) -> Campaign {
        self.spec.faults = Some(plan);
        self
    }

    /// Switches the campaign to fault-matrix mode: every catalogue fault
    /// crossed with the scenarios of its channel, cells classified by the
    /// §9 oracle. Uses the builder's experiments/formats for probe cells
    /// and [`inject::fault_catalogue`]`(seed)` unless [`Campaign::faults`]
    /// supplied a catalogue. Which modes read it:
    /// [`FIELD_MODES`](crate::spec::FIELD_MODES).
    pub fn fault_matrix(mut self, seed: u64) -> Campaign {
        self.spec.matrix_seed = Some(seed);
        self
    }

    /// Runs the online CSI failure detector over every grid observation,
    /// matrix cell or explore fault-overlay trial, each judged against a
    /// fault-free twin run of its own scenario. Which modes read it:
    /// [`FIELD_MODES`](crate::spec::FIELD_MODES).
    pub fn detect(mut self, detect: bool) -> Campaign {
        self.spec.detect = detect;
        self
    }

    /// Overrides the detector thresholds, which only a detecting
    /// campaign reads: [`FIELD_MODES`](crate::spec::FIELD_MODES).
    pub fn detector_config(mut self, config: DetectorConfig) -> Campaign {
        self.spec.detector_config = config;
        self
    }

    /// Sets the campaign seed (default 42): explore mode's schedule,
    /// mutants and fault overlay, the compound pass's catalogue, fault
    /// sets and interleavings, and [`Campaign::run_bulk`]'s generated
    /// table. Which modes read it:
    /// [`FIELD_MODES`](crate::spec::FIELD_MODES).
    pub fn seed(mut self, seed: u64) -> Campaign {
        self.spec.seed = seed;
        self
    }

    /// Switches the campaign to coverage-guided explore mode with an
    /// observation budget: novel boundary-crossing signatures admit inputs
    /// to a corpus, corpus entries are swept, mutated, and fault-overlaid
    /// ahead of fresh grid draws, and every reported discrepancy is shrunk
    /// to a 1-row/1-column reproducer. A budget of `0` degrades exactly to
    /// the standard exhaustive catalogue (the spec records it as "no
    /// explore pass", which is the same campaign). The budget also caps
    /// the compound pass's trials ([`Campaign::kfaults`]). Which fields
    /// explore mode reads: [`FIELD_MODES`](crate::spec::FIELD_MODES).
    pub fn explore(mut self, budget: usize) -> Campaign {
        self.spec.explore_budget = (budget > 0).then_some(budget);
        self
    }

    /// Replaces the campaign's inputs with the full catalogue *plus* a
    /// synthesized real-shaped corpus region
    /// ([`InputSelection::Corpus`]): `shape` and `seed` fully determine
    /// the synthesized inputs, which explore mode schedules first and
    /// attributes as the `corpus` origin in coverage and discovery rows.
    /// Panics on a shape that cannot synthesize; wire requests go through
    /// [`Campaign::from_spec`], which rejects the same shapes with a typed
    /// [`SpecError::BadCorpusShape`].
    pub fn corpus(mut self, shape: CorpusShape, seed: u64) -> Campaign {
        shape
            .validate()
            .unwrap_or_else(|e| panic!("invalid corpus shape: {e}"));
        self.spec.inputs = InputSelection::Corpus { shape, seed };
        self
    }

    /// Adds a compound pass after the campaign's main mode: k-fault
    /// combinations (arity ≤ `k`, from [`csi_core::fault::fault_combinations`])
    /// crossed with seeded cross-job interleavings on a shared deployment,
    /// searched coverage-guided, with the resulting discrepancies clustered
    /// by causal-trace prefix and ddmin-shrunk ([`crate::multi`]). The
    /// default (`0`) disables the pass and leaves every existing mode
    /// byte-identical. The pass runs 96 trials, or the
    /// [`Campaign::explore`] budget when one is set. Clamped to
    /// [`MAX_KFAULTS`](crate::spec::MAX_KFAULTS).
    pub fn kfaults(mut self, k: usize) -> Campaign {
        self.spec.kfaults = k.min(crate::spec::MAX_KFAULTS);
        self
    }

    /// Number of jobs sharing each compound trial's deployment (default
    /// 2). Clamped to `1..=`[`MAX_JOBS`](crate::spec::MAX_JOBS) — only
    /// specs revived from the wire can carry an out-of-range value. Which
    /// modes read it: [`FIELD_MODES`](crate::spec::FIELD_MODES).
    pub fn jobs(mut self, n: usize) -> Campaign {
        self.spec.jobs = n.clamp(1, crate::spec::MAX_JOBS);
        self
    }

    /// Attaches a streaming detection observer: every [`Detection`] the
    /// campaign's detector judges is handed to `tap` as its observation
    /// closes, long before the final report exists. Taps only
    /// observe — a tapped campaign's outcome is byte-identical to an
    /// untapped one. Only modes that build detectors (cross-test, matrix
    /// and explore with `.detect(true)`) ever invoke it.
    ///
    /// [`Detection`]: csi_core::detect::Detection
    pub fn detection_tap(mut self, tap: DetectionTap) -> Campaign {
        self.tap = Some(tap);
        self
    }

    /// Runs a *bulk* campaign alongside (not instead of) the builder's
    /// row-oriented modes: the wide clean-data table of
    /// [`crate::generator::bulk_schema`] at `rows` rows, written and read
    /// through both engines' columnar entry points over this builder's
    /// formats and seed, checked by the vectorized write–read and digest
    /// differential oracles. This is the million-row path: the row
    /// campaigns' table-size ceiling (one row per observation) does not
    /// apply. Bulk runs alone, and panics, as [`Campaign::run`] does, on a
    /// spec that [`FIELD_MODES`](crate::spec::FIELD_MODES)' bulk column
    /// refuses.
    pub fn run_bulk(self, rows: usize) -> crate::bulk::BulkReport {
        self.spec
            .validate_in(&[Mode::Bulk])
            .unwrap_or_else(|e| panic!("invalid campaign spec: {e}"));
        crate::bulk::run_bulk(&self.spec, rows)
    }

    /// Executes the campaign, panicking on an invalid spec. Specs built
    /// through the builder methods over inputs with distinct ids are
    /// always valid; prefer [`Campaign::try_run`] for campaigns revived
    /// from untrusted specs.
    pub fn run(self) -> CampaignOutcome {
        self.try_run()
            .unwrap_or_else(|e| panic!("invalid campaign spec: {e}"))
    }

    /// Executes the campaign, returning a typed [`SpecError`] instead of
    /// panicking when the spec is invalid. The spec picks one main mode
    /// (explore, matrix, or the grid), and the compound pass follows it
    /// when `kfaults` is set; every mode reads the spec itself.
    pub fn try_run(self) -> Result<CampaignOutcome, SpecError> {
        let Campaign { spec, tap } = self;
        spec.validate()?;
        let mut outcome = match spec.main_mode() {
            Mode::Explore => explore::run_explore(&spec, &spec.inputs.resolve(), tap),
            Mode::Matrix => inject::run_fault_matrix(&spec, tap),
            _ => shard::run_cross_test(&spec, &spec.inputs.resolve(), tap),
        };
        if spec.kfaults > 0 {
            multi::run_compound(&spec, &mut outcome);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Validity;
    use csi_core::detect::DetectionTap;
    use csi_core::value::{DataType, Value};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn byte_input() -> Vec<TestInput> {
        vec![TestInput {
            id: 0,
            column_type: DataType::Byte,
            value: Value::Byte(5),
            validity: Validity::Valid,
            label: "a tinyint".into(),
            expected_back: None,
        }]
    }

    #[test]
    fn builder_runs_the_grid_executor_unchanged() {
        let inputs = byte_input();
        let campaign = Campaign::new(&inputs).run();
        let spec = CampaignSpec {
            inputs: InputSelection::Inline(inputs.clone()),
            ..CampaignSpec::default()
        };
        let direct = shard::run_cross_test(&spec, &inputs, None);
        assert_eq!(
            serde_json::to_string(&campaign.report).unwrap(),
            serde_json::to_string(&direct.report).unwrap()
        );
        assert_eq!(campaign.observations, direct.observations);
        let metrics = campaign
            .metrics
            .expect("cross-test campaigns carry metrics");
        assert_eq!(metrics.workers, 1);
        assert!(campaign.matrix.is_none());
    }

    #[test]
    fn spec_round_trip_is_lossless_and_byte_identical() {
        let inputs = byte_input();
        let original = Campaign::new(&inputs).shards(2).chunk_size(1);
        let spec = original.spec().clone();
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let revived: CampaignSpec = serde_json::from_str(&json).expect("spec deserializes");
        assert_eq!(revived, spec);
        let a = original.run();
        let b = Campaign::from_spec(revived).expect("valid spec").run();
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
    }

    #[test]
    fn from_spec_rejects_invalid_specs_with_typed_errors() {
        let spec = CampaignSpec {
            explore_budget: Some(0),
            ..CampaignSpec::default()
        };
        assert_eq!(
            Campaign::from_spec(spec).expect_err("invalid"),
            SpecError::ZeroExploreBudget
        );
        // The builder's `.explore(0)` documents degrade-to-grid instead.
        let campaign = Campaign::new(&byte_input()).explore(0);
        assert_eq!(campaign.spec().explore_budget, None);
    }

    #[test]
    #[should_panic(expected = "invalid campaign spec")]
    fn run_panics_on_an_invalid_revived_spec() {
        let mut campaign = Campaign::new(&[]);
        campaign.spec.jobs = 0;
        let _ = campaign.run();
    }

    #[test]
    fn detection_tap_streams_every_detection_before_the_report() {
        let plan = inject::small_fault_catalogue(5);
        let streamed = Arc::new(Mutex::new(Vec::new()));
        let sink = streamed.clone();
        let tap = DetectionTap::new(move |d| sink.lock().push(d.clone()));
        let outcome = Campaign::new(&[])
            .fault_matrix(5)
            .faults(plan)
            .experiments(vec![Experiment::ALL[0]])
            .formats(vec![StorageFormat::Orc])
            .detect(true)
            .detection_tap(tap)
            .run();
        let matrix = outcome.matrix.expect("matrix mode");
        let reported: Vec<_> = matrix
            .cases
            .iter()
            .flat_map(|c| c.detections.iter().cloned())
            .collect();
        assert!(!reported.is_empty(), "smoke matrix detects nothing");
        assert_eq!(*streamed.lock(), reported);

        // And a tapped campaign stays byte-identical to an untapped one.
        let untapped = Campaign::new(&[])
            .fault_matrix(5)
            .faults(inject::small_fault_catalogue(5))
            .experiments(vec![Experiment::ALL[0]])
            .formats(vec![StorageFormat::Orc])
            .detect(true)
            .run();
        assert_eq!(
            serde_json::to_string(&untapped.matrix.unwrap()).unwrap(),
            serde_json::to_string(&matrix).unwrap()
        );
    }

    #[test]
    fn sharded_campaign_reports_metrics_and_identical_output() {
        let inputs = byte_input();
        let serial = Campaign::new(&inputs).run();
        let sharded = Campaign::new(&inputs).shards(3).chunk_size(1).run();
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&sharded.report).unwrap()
        );
        for outcome in [&serial, &sharded] {
            let metrics = outcome.metrics.as_ref().expect("grid metrics");
            assert_eq!(metrics.observations, outcome.observations.len());
        }
    }

    #[test]
    fn matrix_mode_renders_fault_cells_through_the_unified_path() {
        let outcome = Campaign::new(&[])
            .fault_matrix(11)
            .faults(inject::small_fault_catalogue(11))
            .experiments(vec![Experiment::ALL[0]])
            .formats(vec![StorageFormat::Orc])
            .run();
        let matrix = outcome.matrix.as_ref().expect("matrix mode");
        assert!(!matrix.cases.is_empty());
        let rendered = outcome.render();
        assert!(rendered.contains("fault matrix cells:"), "{rendered}");
        assert!(rendered.contains("ms-unavail-get"), "{rendered}");
    }

    /// `campaign` on one worker, which runs inline, and the stacks it
    /// built: this thread's record sees every one.
    fn stacks_built(campaign: Campaign) -> (usize, CampaignOutcome) {
        crate::exec::BUILT.with(|built| built.borrow_mut().clear());
        let outcome = campaign.shards(1).run();
        (crate::exec::BUILT.with(|built| built.take().len()), outcome)
    }

    /// The grid, explore and the matrix keep one deployment per worker
    /// for the whole campaign, twins included; the compound pass and the
    /// shrinkers build one per trial or check.
    #[test]
    fn each_mode_builds_the_stacks_its_design_names() {
        let inputs = &crate::generator::generate_inputs()[..12];
        let faults = || inject::small_fault_catalogue(5);
        let grid = Campaign::new(inputs).faults(faults()).detect(true);
        assert_eq!(stacks_built(grid).0, 1, "a detecting, faulted grid");

        let matrix = Campaign::new(&[])
            .fault_matrix(5)
            .faults(faults())
            .experiments(vec![Experiment::ALL[0]])
            .formats(vec![StorageFormat::Orc])
            .detect(true);
        assert_eq!(stacks_built(matrix).0, 1, "a detecting matrix");

        // Four rounds of 64 trials; then each shrink check builds its own
        // stack (`shrink::reproducer_triggers`).
        let (built, outcome) = stacks_built(Campaign::new(inputs).explore(200).detect(true));
        let stats = outcome.exploration.expect("explore mode");
        assert!(stats.executed > 3 * 64 && stats.faulted > 0, "{stats:?}");
        let checks: usize = stats.shrinks.iter().map(|row| row.checks).sum();
        assert_eq!(built, 1 + checks, "an explore hunt, then its shrinks");

        let (built, outcome) = stacks_built(Campaign::new(&[]).kfaults(2).jobs(2));
        let stats = outcome.compound.expect("compound pass");
        assert!(stats.executed > 0);
        assert_eq!(built, stats.executed + stats.shrink_checks, "compound");
    }

    #[test]
    fn detection_campaign_is_clean_on_a_fault_free_plan() {
        let inputs = byte_input();
        let outcome = Campaign::new(&inputs).detect(true).run();
        assert!(outcome.report.detector_enabled);
        assert!(
            outcome.report.detection_totals.is_empty(),
            "fault-free campaign produced detections: {:?}",
            outcome.report.detection_totals
        );
        assert!(outcome.report.detector_agreement.is_none());
        let rendered = outcome.render();
        assert!(rendered.contains("online detections: none"), "{rendered}");
    }
}
