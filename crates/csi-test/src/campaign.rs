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
//! builder it came from. The wire surface of the `csi-serve` daemon is
//! exactly this spec. Two attachments stay *outside* the spec because
//! they describe the runtime, not the campaign: a [`DetectionTap`]
//! ([`Campaign::detection_tap`]) for streaming detections out mid-run,
//! and a shared [`DeploymentPool`] ([`Campaign::pool`]) that amortizes
//! deployment construction across campaigns.
//!
//! With `.detect(true)`, a cross-test campaign first replays the same
//! (experiment × plan × format × input) space fault-free to learn the
//! per-scenario baseline crossing profiles, freezes them, and then judges
//! every observation of the real campaign with [`DetectorSpec::detect`] —
//! so pattern-anomaly detection has a meaningful "normal" to compare
//! against. Fault-matrix cells self-calibrate instead (each cell learns
//! its own baseline from an unarmed run), so `.fault_matrix(seed)` needs
//! no separate calibration pass.

use crate::corpus::CorpusShape;
use crate::exec::{self, CrossTestConfig};
use crate::explore;
use crate::generator::TestInput;
use crate::inject::{self, FaultMatrixConfig, FaultMatrixReport};
use crate::multi::{self, CompoundConfig};
use crate::plan::Experiment;
use crate::pool::DeploymentPool;
use crate::shard::{self, CampaignMetrics};
use crate::shrink::ShrunkReproducer;
use crate::spec::{CampaignSpec, InputSelection, SpecError};
use csi_core::detect::{DetectionTap, DetectorConfig, DetectorSpec};
use csi_core::fault::FaultPlan;
use csi_core::oracle::Observation;
use csi_core::report::{ClusterRow, CompoundStats, DiscrepancyReport, ExplorationStats, Render};
use minihive::metastore::StorageFormat;
use std::sync::Arc;

/// Builder for a cross-testing or fault-matrix campaign: a serializable
/// [`CampaignSpec`] plus the runtime-only attachments (detection tap,
/// deployment pool) that never travel over the wire.
#[derive(Debug, Clone)]
pub struct Campaign {
    spec: CampaignSpec,
    tap: Option<DetectionTap>,
    pool: Option<Arc<DeploymentPool>>,
}

/// The result of [`Campaign::run`].
#[derive(Debug, Clone)]
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
}

impl CampaignOutcome {
    /// Renders the campaign through the single [`Render`] path — the
    /// standard report sections, plus the fault-matrix cells when the
    /// campaign ran in matrix mode.
    pub fn render(&self) -> String {
        let rows = self.matrix.as_ref().map(|m| m.fault_cell_rows());
        let mut render = Render::standard(&self.report);
        if let Some(rows) = &rows {
            render = render.fault_cells(rows);
        }
        if let Some(stats) = &self.exploration {
            render = render.exploration(stats);
        }
        if let Some(stats) = &self.compound {
            render = render.clusters(stats, &self.clusters);
        }
        render.to_string()
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
            pool: None,
        }
    }

    /// Rebuilds a campaign from a (typically deserialized) spec,
    /// rejecting invalid specs with a typed [`SpecError`] instead of
    /// panicking — the validation gate every wire request passes through.
    pub fn from_spec(spec: CampaignSpec) -> Result<Campaign, SpecError> {
        spec.validate()?;
        Ok(Campaign {
            spec,
            tap: None,
            pool: None,
        })
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

    /// Sets Spark configuration overrides on every deployment's session.
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

    /// Maximum inputs per shard (cross-test campaigns only).
    pub fn chunk_size(mut self, chunk_size: usize) -> Campaign {
        self.spec.chunk_size = chunk_size.max(1);
        self
    }

    /// Arms a fault plan: on every deployment in cross-test mode, or as
    /// the cell catalogue in matrix mode (replacing the seed-derived
    /// standard catalogue).
    pub fn faults(mut self, plan: FaultPlan) -> Campaign {
        self.spec.faults = Some(plan);
        self
    }

    /// Switches the campaign to fault-matrix mode: every catalogue fault
    /// crossed with the scenarios of its channel, cells classified by the
    /// §9 oracle. Uses the builder's experiments/formats for probe cells
    /// and [`inject::fault_catalogue`]`(seed)` unless [`Campaign::faults`]
    /// supplied a catalogue.
    pub fn fault_matrix(mut self, seed: u64) -> Campaign {
        self.spec.matrix_seed = Some(seed);
        self
    }

    /// Runs the online CSI failure detector over every observation (or
    /// matrix cell).
    pub fn detect(mut self, detect: bool) -> Campaign {
        self.spec.detect = detect;
        self
    }

    /// Overrides the detector thresholds.
    pub fn detector_config(mut self, config: DetectorConfig) -> Campaign {
        self.spec.detector_config = config;
        self
    }

    /// Sets the exploration/mutation seed (default 42). Only explore mode
    /// consumes it; the standard and matrix modes are seedless (matrix
    /// mode has its own seed via [`Campaign::fault_matrix`]).
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
    /// explore pass", which is the same campaign). Explore mode forces the
    /// online detector off and ignores [`Campaign::faults`] (it schedules
    /// its own overlay from [`inject::fault_catalogue`]).
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
    /// byte-identical. Clamped to
    /// [`MAX_KFAULTS`](crate::spec::MAX_KFAULTS).
    pub fn kfaults(mut self, k: usize) -> Campaign {
        self.spec.kfaults = k.min(crate::spec::MAX_KFAULTS);
        self
    }

    /// Number of jobs sharing each compound trial's deployment (default 2;
    /// only the compound pass consumes it). Clamped to at least 1.
    pub fn jobs(mut self, n: usize) -> Campaign {
        self.spec.jobs = n.max(1);
        self
    }

    /// Attaches a streaming detection observer: every [`Detection`] the
    /// campaign's detector judges is handed to `tap` as its observation
    /// closes, long before the final report exists. Taps only
    /// observe — a tapped campaign's outcome is byte-identical to an
    /// untapped one. Only modes that build detectors (cross-test and
    /// matrix with `.detect(true)`) ever invoke it.
    ///
    /// [`Detection`]: csi_core::detect::Detection
    pub fn detection_tap(mut self, tap: DetectionTap) -> Campaign {
        self.tap = Some(tap);
        self
    }

    /// Draws this campaign's deployments from a shared warm
    /// [`DeploymentPool`] instead of building them fresh, returning them
    /// (reset) when done. Pooling changes wall time only: pooled output
    /// is byte-identical to unpooled. Only the standard cross-test path
    /// consumes the pool; matrix, explore, and compound modes build
    /// hermetic per-cell state by design.
    pub fn pool(mut self, pool: Arc<DeploymentPool>) -> Campaign {
        self.pool = Some(pool);
        self
    }

    /// Runs a *bulk* campaign alongside (not instead of) the builder's
    /// row-oriented modes: the wide clean-data table of
    /// [`crate::generator::bulk_schema`] at `rows` rows, written and read
    /// through both engines' columnar entry points over this builder's
    /// formats and seed, checked by the vectorized write–read and digest
    /// differential oracles. This is the million-row path: the row
    /// campaigns' table-size ceiling (one row per observation) does not
    /// apply.
    pub fn run_bulk(self, rows: usize) -> crate::bulk::BulkReport {
        crate::bulk::run_bulk(&crate::bulk::BulkConfig {
            rows,
            seed: self.spec.seed,
            formats: self.spec.formats,
        })
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
    /// panicking when the spec is invalid.
    pub fn try_run(self) -> Result<CampaignOutcome, SpecError> {
        self.spec.validate()?;
        let compound = (self.spec.kfaults > 0).then(|| {
            let mut config = CompoundConfig::new(self.spec.seed, self.spec.kfaults);
            config.jobs = self.spec.jobs;
            config.shards = self.spec.shards;
            if let Some(budget) = self.spec.explore_budget {
                config.budget = budget;
            }
            config
        });
        // A validated spec never carries `Some(0)` (the builder records
        // `.explore(0)` as `None`), so `Some` always means explore mode.
        let mut outcome = match self.spec.explore_budget {
            Some(budget) => self.run_explore(budget),
            None if self.spec.matrix_seed.is_some() => self.run_matrix(),
            None => self.run_cross(),
        };
        if let Some(config) = compound {
            let result = multi::run_compound(&config);
            outcome.compound = Some(result.stats);
            outcome.clusters = result.clusters;
        }
        Ok(outcome)
    }

    fn run_explore(self, budget: usize) -> CampaignOutcome {
        let inputs = self.spec.inputs.resolve();
        let result = explore::run_explore(
            &inputs,
            &self.spec.experiments,
            &self.spec.formats,
            self.spec.seed,
            budget,
            self.spec.shards,
            self.spec.inputs.corpus_floor(),
        );
        CampaignOutcome {
            report: result.report,
            observations: result.observations,
            metrics: None,
            matrix: None,
            exploration: Some(result.stats),
            reproducers: result.reproducers,
            compound: None,
            clusters: Vec::new(),
        }
    }

    fn run_matrix(self) -> CampaignOutcome {
        let seed = self.spec.matrix_seed.expect("matrix mode");
        let config = FaultMatrixConfig {
            seed,
            experiments: self.spec.experiments,
            formats: self.spec.formats,
            faults: self
                .spec
                .faults
                .unwrap_or_else(|| inject::fault_catalogue(seed)),
            detect: self.spec.detect.then_some(self.spec.detector_config),
            tap: self.tap,
        };
        let matrix = inject::run_fault_matrix(&config, self.spec.shards);
        // The campaign-level report carries the matrix's detection
        // aggregates so the unified Render path shows them alongside the
        // fault cells.
        let report = DiscrepancyReport {
            detector_enabled: matrix.detector_enabled,
            detection_kinds: matrix.detection_kinds.clone(),
            detection_totals: matrix.detection_totals.clone(),
            detector_agreement: matrix.agreement,
            ..DiscrepancyReport::default()
        };
        CampaignOutcome {
            report,
            observations: Vec::new(),
            metrics: None,
            matrix: Some(matrix),
            exploration: None,
            reproducers: Vec::new(),
            compound: None,
            clusters: Vec::new(),
        }
    }

    fn run_cross(self) -> CampaignOutcome {
        let inputs = self.spec.inputs.resolve();
        let mut config = CrossTestConfig {
            experiments: self.spec.experiments,
            formats: self.spec.formats,
            spark_overrides: self.spec.spark_overrides,
            fault_plan: self.spec.faults,
            detector: None,
            pool: self.pool,
        };
        if self.spec.detect {
            // Fault-free calibration replay over the identical scenario
            // space: learn what "normal" looks like per scenario, then
            // freeze. Learning is keyed, so worker interleaving cannot
            // change the result.
            let calibration_config = CrossTestConfig {
                fault_plan: None,
                detector: None,
                ..config.clone()
            };
            let calibration = shard::run_cross_test(
                &inputs,
                &calibration_config,
                self.spec.shards,
                self.spec.chunk_size,
            );
            let baselines = exec::learn_baselines(&calibration.observations);
            config.detector = Some(DetectorSpec {
                config: self.spec.detector_config,
                baselines: Arc::new(baselines),
                tap: self.tap,
            });
        }
        let run = shard::run_cross_test(&inputs, &config, self.spec.shards, self.spec.chunk_size);
        CampaignOutcome {
            report: run.report,
            observations: run.observations,
            metrics: Some(run.metrics),
            matrix: None,
            exploration: None,
            reproducers: Vec::new(),
            compound: None,
            clusters: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Validity;
    use csi_core::value::{DataType, Value};
    use parking_lot::Mutex;

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
        let direct = shard::run_cross_test(&inputs, &CrossTestConfig::default(), 1, 64);
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
    fn pooled_campaign_is_byte_identical_across_reuse() {
        let inputs = byte_input();
        let fresh = Campaign::new(&inputs).detect(true).run();
        let pool = Arc::new(DeploymentPool::new());
        for _ in 0..2 {
            let pooled = Campaign::new(&inputs).detect(true).pool(pool.clone()).run();
            assert_eq!(
                serde_json::to_string(&pooled.report).unwrap(),
                serde_json::to_string(&fresh.report).unwrap()
            );
        }
        // Calibration then detection, three experiments each, one worker:
        // every deployment goes back before the next is taken, so one build
        // serves all twelve acquires.
        let stats = pool.stats();
        assert_eq!((stats.created, stats.reused), (1, 11));

        // One pool shared by tuned and plain campaigns, detection on and
        // off: each report equals its unpooled twin, so neither the
        // overrides nor the detector leak from one campaign to the next.
        // The inputs are ones whose report the overrides change.
        let catalogue = crate::generator::generate_inputs();
        let first = |ty: fn(&DataType) -> bool| {
            catalogue
                .iter()
                .find(|i| ty(&i.column_type))
                .expect("catalogue input")
                .clone()
        };
        let inputs = vec![
            first(|t| matches!(t, DataType::Char(_))),
            first(|t| matches!(t, DataType::Interval)),
        ];
        let campaign = |custom: bool, detect: bool| {
            let campaign = Campaign::new(&inputs).detect(detect);
            if custom {
                campaign.spark_overrides(CrossTestConfig::custom_resolving_overrides())
            } else {
                campaign
            }
        };
        let report = |campaign: Campaign| serde_json::to_string(&campaign.run().report).unwrap();
        let unpooled = |custom: bool, detect: bool| report(campaign(custom, detect));
        let expected = [false, true].map(|custom| [false, true].map(|d| unpooled(custom, d)));
        for detect in [0, 1] {
            assert_ne!(
                expected[0][detect], expected[1][detect],
                "the overrides do not change these inputs' report"
            );
        }
        let shared = Arc::new(DeploymentPool::new());
        for (custom, detect) in [
            (true, false),
            (false, false),
            (true, true),
            (false, true),
            (false, false),
            (true, false),
        ] {
            assert_eq!(
                report(campaign(custom, detect).pool(shared.clone())),
                expected[usize::from(custom)][usize::from(detect)],
                "pooled campaign (custom {custom}, detect {detect}) diverged from unpooled"
            );
        }
        assert!(
            shared.stats().reused > 0,
            "the shared pool was never reused"
        );
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
