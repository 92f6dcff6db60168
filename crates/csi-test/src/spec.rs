//! The serializable campaign surface: [`CampaignSpec`].
//!
//! A spec is the *entire* description of a campaign — inputs, modes,
//! seeds, thresholds — as plain serde-serializable data. One spec type is
//! shared by every way a campaign can be launched:
//!
//! - in-process, through the [`Campaign`](crate::Campaign) builder (whose
//!   methods are thin mutations of an inner spec);
//! - over the wire, as the request body of the `csi-serve` daemon;
//! - from bench binaries, which serialize the exact spec they measured.
//!
//! [`Campaign::from_spec`](crate::Campaign::from_spec) /
//! [`Campaign::spec`](crate::Campaign::spec) round-trip losslessly, and
//! [`CampaignSpec::validate`] replaces the builder-era panics with typed
//! [`SpecError`]s — a wire request with a bad shard count or `k > 3` is
//! rejected with a reason, not a worker crash.
//!
//! Which mode reads which field is one table, [`FIELD_MODES`]: a row per
//! field, a column per [`Mode`], and in each cell whether the mode reads
//! the field, ignores it harmlessly, or rejects a non-default value.
//! `validate` enforces it, so a spec that sets a field no mode it runs
//! reads is refused with [`SpecError::UnreadField`] instead of running
//! something other than what it says.

use crate::corpus::{self, CorpusShape};
use crate::generator::{self, TestInput};
use crate::plan::Experiment;
use csi_core::detect::DetectorConfig;
use csi_core::fault::FaultPlan;
use minihive::metastore::StorageFormat;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Upper bound on [`CampaignSpec::shards`]: beyond this a "campaign" is a
/// fork bomb, not a worker pool.
pub const MAX_SHARDS: usize = 256;

/// Upper bound on [`CampaignSpec::kfaults`], matching the `k ≤ 3`
/// enumeration limit of [`csi_core::fault::fault_combinations`].
pub const MAX_KFAULTS: usize = 3;

/// Upper bound on [`CampaignSpec::jobs`]: the compound pass's job roster
/// shares one deployment per trial, and its interleavings grow with it.
pub const MAX_JOBS: usize = 4;

/// Upper bound on the entries of [`CampaignSpec::spark_overrides`]: the
/// list is one `config.set` loop per deployment the campaign builds, so a
/// revived spec may not size it freely.
pub const MAX_OVERRIDES: usize = 64;

/// Upper bound, in bytes, on each override key and each override value.
pub const MAX_OVERRIDE_BYTES: usize = 256;

/// Upper bound on the id of an [`InputSelection::Inline`] input. Ids name
/// tables and key summaries, and explore numbers its mutants upward from
/// the largest one, so the bound leaves the rest of `usize` to them.
const MAX_INLINE_ID: usize = 1 << 24;

/// Which test inputs a campaign runs over.
///
/// The standard 422-input catalogue is referenced *by name* rather than
/// shipped inline, so a wire-serialized spec for a full campaign is a few
/// hundred bytes, and both ends provably run the identical catalogue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InputSelection {
    /// The full generated catalogue ([`generator::generate_inputs`]).
    Catalogue,
    /// The first `n` inputs of the generated catalogue (clamped to its
    /// length) — the cheap slice used by smokes and property tests.
    CataloguePrefix(usize),
    /// Explicit inputs carried by the spec itself.
    Inline(Vec<TestInput>),
    /// The full catalogue *plus* a synthesized real-shaped corpus
    /// ([`corpus::synthesize_inputs`]): the shape and seed travel on the
    /// wire, both ends synthesize the identical inputs. Corpus inputs get
    /// ids directly above the catalogue, and explore mode schedules and
    /// tags them as a distinct `corpus` origin.
    Corpus {
        /// Shape of the synthesized table.
        shape: CorpusShape,
        /// Synthesis seed (independent of the campaign seed, so the same
        /// corpus can ride different exploration schedules).
        seed: u64,
    },
}

impl InputSelection {
    /// Materializes the selection into concrete inputs.
    pub fn resolve(&self) -> Vec<TestInput> {
        match self {
            InputSelection::Catalogue => generator::generate_inputs(),
            InputSelection::CataloguePrefix(n) => {
                let catalogue = generator::catalogue();
                catalogue[..catalogue.len().min(*n)].to_vec()
            }
            InputSelection::Inline(inputs) => inputs.clone(),
            InputSelection::Corpus { shape, seed } => {
                let mut inputs = generator::generate_inputs();
                let first_id = inputs.len();
                inputs.extend(corpus::synthesize_inputs(shape, *seed, first_id));
                inputs
            }
        }
    }

    /// The id of the first corpus-synthesized input, when this selection
    /// carries a corpus region ([`InputSelection::Corpus`] appends it
    /// directly above the catalogue). Explore mode uses this floor to
    /// schedule the corpus region first and attribute discoveries to the
    /// `corpus` origin.
    pub fn corpus_floor(&self) -> Option<usize> {
        match self {
            InputSelection::Corpus { .. } => Some(generator::catalogue().len()),
            _ => None,
        }
    }
}

/// A typed reason a [`CampaignSpec`] cannot run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpecError {
    /// `shards` exceeds [`MAX_SHARDS`].
    BadShards {
        /// The requested worker count.
        shards: usize,
        /// The maximum accepted.
        max: usize,
    },
    /// `chunk_size` is zero — no shard could hold an input.
    BadChunkSize,
    /// `kfaults` exceeds [`MAX_KFAULTS`].
    BadKFaults {
        /// The requested combination arity.
        kfaults: usize,
        /// The maximum accepted.
        max: usize,
    },
    /// An explore budget of zero observations was requested explicitly.
    /// (The builder's `.explore(0)` maps to "no explore pass" instead,
    /// preserving its documented degrade-to-the-standard-grid behavior.)
    ZeroExploreBudget,
    /// `jobs` is zero — a compound pass needs at least one job.
    NoJobs,
    /// `jobs` exceeds [`MAX_JOBS`].
    TooManyJobs {
        /// The requested job count.
        jobs: usize,
        /// The maximum accepted.
        max: usize,
    },
    /// `field` differs from its default, and no mode the spec runs reads
    /// it: `mode` marks it [`FieldUse::Rejected`] in [`FIELD_MODES`] (and
    /// every other mode the spec runs ignores it too).
    UnreadField {
        /// The field, as named in [`CampaignSpec`].
        field: String,
        /// The first mode the spec runs that rejects it.
        mode: Mode,
    },
    /// The corpus shape of an [`InputSelection::Corpus`] cannot
    /// synthesize a table (see [`CorpusShape::validate`]).
    BadCorpusShape {
        /// The human-readable reason the shape was rejected.
        reason: String,
    },
    /// `spark_overrides` has more than [`MAX_OVERRIDES`] entries, or a key
    /// or value longer than [`MAX_OVERRIDE_BYTES`].
    BadOverrides {
        /// Which bound was exceeded, and by what.
        reason: String,
    },
    /// Two [`InputSelection::Inline`] inputs share an id (they would share
    /// summaries and differential groups), or an id is too large to number
    /// mutants above.
    BadInputs {
        /// Which id, and what is wrong with it.
        reason: String,
    },
    /// `experiments` or `formats` names a value twice: both passes would
    /// record the same cells under the same labels, and share summaries
    /// and differential groups. (So neither list outgrows its `ALL`.)
    RepeatedAxis {
        /// Which list, and which value it repeats.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadShards { shards, max } => {
                write!(f, "shard count {shards} exceeds the maximum of {max}")
            }
            SpecError::BadChunkSize => write!(f, "chunk size must be at least 1"),
            SpecError::BadKFaults { kfaults, max } => {
                write!(
                    f,
                    "fault-combination arity {kfaults} exceeds the maximum of {max}"
                )
            }
            SpecError::ZeroExploreBudget => {
                write!(f, "explore budget must be at least 1 observation")
            }
            SpecError::NoJobs => write!(f, "compound campaigns need at least one job"),
            SpecError::TooManyJobs { jobs, max } => {
                write!(f, "job count {jobs} exceeds the maximum of {max}")
            }
            SpecError::UnreadField { field, mode } => {
                let row = FIELD_MODES.iter().find(|row| row.field == field);
                let reason = match row.map(|row| row.uses[*mode as usize]) {
                    Some(FieldUse::Inert(reason) | FieldUse::Rejected(reason)) => reason,
                    Some(FieldUse::WhenDetecting) => NOT_DETECTING,
                    _ => "",
                };
                write!(f, "{field} is not read by {mode} mode: {reason}")
            }
            SpecError::BadCorpusShape { reason } => {
                write!(f, "corpus shape cannot synthesize: {reason}")
            }
            SpecError::BadOverrides { reason } => {
                write!(f, "spark overrides out of bounds: {reason}")
            }
            SpecError::BadInputs { reason } => write!(f, "inline inputs unusable: {reason}"),
            SpecError::RepeatedAxis { reason } => write!(f, "campaign axis repeats: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The complete, serializable description of one campaign.
///
/// Field semantics are exactly those of the corresponding
/// [`Campaign`](crate::Campaign) builder methods; the builder is now a
/// thin mutation layer over this struct. Which mode reads which field is
/// [`FIELD_MODES`], and [`validate`](CampaignSpec::validate) holds a spec
/// to it. The runtime-only detection tap
/// deliberately lives on the builder, not here: a spec describes *what*
/// to run, never *where its output goes*, so serializing and re-running a
/// spec is always byte-deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Inputs to run.
    pub inputs: InputSelection,
    /// Experiments to run.
    pub experiments: Vec<Experiment>,
    /// Storage formats to exercise.
    pub formats: Vec<StorageFormat>,
    /// Spark configuration overrides, set on the session of every
    /// deployment the campaign builds.
    pub spark_overrides: Vec<(String, String)>,
    /// Worker count; `0` or `1` runs one worker, serially. A one-worker
    /// grid runs on two workers while the calling thread classifies once
    /// the grid is large and the host has two cores: the same report.
    pub shards: usize,
    /// Maximum inputs per grid shard.
    pub chunk_size: usize,
    /// Fault plan armed for every grid observation (never for its
    /// fault-free twin), or the cell catalogue of the matrix.
    pub faults: Option<FaultPlan>,
    /// `Some(seed)` switches the campaign to fault-matrix mode, whose
    /// standard catalogue is derived from it.
    pub matrix_seed: Option<u64>,
    /// Run the online CSI failure detector.
    pub detect: bool,
    /// Detector thresholds.
    pub detector_config: DetectorConfig,
    /// Seed of explore mode's schedule, mutants and fault overlay, of the
    /// compound pass's catalogue, fault sets and interleavings, and of
    /// bulk's generated table.
    pub seed: u64,
    /// `Some(budget)` switches the campaign to coverage-guided explore
    /// mode, and is also the compound pass's trial budget (96 without
    /// it). `Some(0)` is rejected by [`validate`](CampaignSpec::validate).
    pub explore_budget: Option<usize>,
    /// Arity of the compound fault-set pass; `0` disables it.
    pub kfaults: usize,
    /// Jobs sharing each compound trial's deployment.
    pub jobs: usize,
}

/// A way a campaign runs: one column of [`FIELD_MODES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// The cross-test grid: the main mode when neither `matrix_seed` nor
    /// `explore_budget` is set.
    Grid,
    /// The fault matrix: the main mode when `matrix_seed` is set.
    Matrix,
    /// Coverage-guided exploration: the main mode when `explore_budget`
    /// is set.
    Explore,
    /// The compound pass, run after the main mode when `kfaults > 0`.
    Compound,
    /// The columnar campaign of [`Campaign::run_bulk`](crate::Campaign::run_bulk),
    /// which runs alone.
    Bulk,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mode::Grid => "grid",
            Mode::Matrix => "matrix",
            Mode::Explore => "explore",
            Mode::Compound => "compound",
            Mode::Bulk => "bulk",
        })
    }
}

/// What one mode does with one spec field: a cell of [`FIELD_MODES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldUse {
    /// The mode reads the field: another value changes its outcome.
    Reads,
    /// The mode ignores the field, for the reason given, and accepts any
    /// value: its outcome is byte-identical whatever the field holds.
    Inert(&'static str),
    /// The mode ignores the field, for the reason given, and a
    /// non-default value is refused unless another mode the spec runs
    /// reads it.
    Rejected(&'static str),
    /// The mode reads the field when the spec sets `detect`, and rejects
    /// it otherwise: the detector does not run.
    WhenDetecting,
}

/// One field's row of [`FIELD_MODES`].
#[derive(Debug, Clone, Copy)]
pub struct FieldRow {
    /// The field, as named in [`CampaignSpec`].
    pub field: &'static str,
    /// What each mode does with it, in [`Mode`]'s declaration order.
    pub uses: [FieldUse; 5],
    /// Whether the field of the first spec differs from the second's.
    differs: fn(&CampaignSpec, &CampaignSpec) -> bool,
}

impl FieldRow {
    /// What `mode` does with this field of `spec`: the row's cell, with
    /// [`FieldUse::WhenDetecting`] settled by `spec.detect`.
    pub(crate) fn use_in(&self, mode: Mode, spec: &CampaignSpec) -> FieldUse {
        match self.uses[mode as usize] {
            FieldUse::WhenDetecting if spec.detect => FieldUse::Reads,
            FieldUse::WhenDetecting => FieldUse::Rejected(NOT_DETECTING),
            cell => cell,
        }
    }
}

// The reasons of the inert and rejected cells.
const SPLITS: &str = "it splits the work, never what the work finds";
const OWN_ROSTER: &str = "the pass runs its own job roster";
const PROBE_INPUT: &str = "the matrix runs its one probe input";
const OWN_TABLE: &str = "bulk writes its own generated table";
const OWN_PAIRS: &str = "bulk runs its own interface pairs";
const ONE_THREAD: &str = "bulk runs on the calling thread";
const ALONE: &str = "run_bulk runs bulk alone";
const OWN_OVERLAY: &str = "explore draws its fault overlay from fault_catalogue(seed)";
const OWN_SETS: &str = "the pass draws its fault sets from fault_catalogue(seed)";
const ARMS_NOTHING: &str = "bulk arms no fault";
const NO_DETECT: &str = "this mode judges no run against a twin";
const NOT_DETECTING: &str = "the detector runs only when detect is set";
const DRAWS_NOTHING: &str = "the grid draws nothing";
const MATRIX_SEED: &str = "the matrix's catalogue is seeded by matrix_seed";
const ONE_MAIN: &str = "a campaign runs one main mode";
const OTHER_MAIN: &str = "it selects another main mode";
const PICKS_MAIN: &str = "it selects the main mode the pass runs after";
const ADDS_PASS: &str = "it adds the compound pass after this mode";
const NO_JOBS: &str = "only the compound pass runs jobs";

/// Which mode reads which [`CampaignSpec`] field: a row per field, a
/// column per [`Mode`] (grid, matrix, explore, compound, bulk).
///
/// The modes a spec runs are its main mode, plus the compound pass when
/// `kfaults > 0` ([`CampaignSpec::validate`]), or bulk alone
/// ([`Campaign::run_bulk`](crate::Campaign::run_bulk)). A spec is refused
/// with [`SpecError::UnreadField`] when a field differs from its default,
/// no mode it runs [`Reads`](FieldUse::Reads) it, and one of them marks
/// it [`Rejected`](FieldUse::Rejected) (a
/// [`WhenDetecting`](FieldUse::WhenDetecting) cell reads the field when
/// `detect` is set and rejects it otherwise). A cell is
/// [`Inert`](FieldUse::Inert) rather than rejected when the field is
/// output-neutral, when it selects a mode, or when callers set it for a
/// mode running beside this one; each cell says why.
pub const FIELD_MODES: [FieldRow; 14] = {
    use FieldUse::{Inert as I, Reads as R, Rejected as X, WhenDetecting as D};
    // Columns: grid, matrix, explore, compound, bulk.
    [
        FieldRow {
            field: "inputs",
            uses: [R, I(PROBE_INPUT), R, I(OWN_ROSTER), I(OWN_TABLE)],
            differs: |a, b| a.inputs != b.inputs,
        },
        FieldRow {
            field: "experiments",
            uses: [R, R, R, I(OWN_ROSTER), X(OWN_PAIRS)],
            differs: |a, b| a.experiments != b.experiments,
        },
        FieldRow {
            field: "formats",
            uses: [R, R, R, I(OWN_ROSTER), R],
            differs: |a, b| a.formats != b.formats,
        },
        FieldRow {
            field: "spark_overrides",
            uses: [R, R, R, R, R],
            differs: |a, b| a.spark_overrides != b.spark_overrides,
        },
        FieldRow {
            field: "shards",
            uses: [I(SPLITS), I(SPLITS), I(SPLITS), I(SPLITS), I(ONE_THREAD)],
            differs: |a, b| a.shards != b.shards,
        },
        FieldRow {
            field: "chunk_size",
            uses: [I(SPLITS); 5],
            differs: |a, b| a.chunk_size != b.chunk_size,
        },
        FieldRow {
            field: "faults",
            uses: [R, R, X(OWN_OVERLAY), X(OWN_SETS), X(ARMS_NOTHING)],
            differs: |a, b| a.faults != b.faults,
        },
        FieldRow {
            field: "matrix_seed",
            uses: [I(OTHER_MAIN), R, X(ONE_MAIN), I(PICKS_MAIN), X(ALONE)],
            differs: |a, b| a.matrix_seed != b.matrix_seed,
        },
        FieldRow {
            field: "detect",
            uses: [R, R, R, X(NO_DETECT), X(NO_DETECT)],
            differs: |a, b| a.detect != b.detect,
        },
        FieldRow {
            field: "detector_config",
            uses: [D, D, D, X(NO_DETECT), X(NO_DETECT)],
            differs: |a, b| a.detector_config != b.detector_config,
        },
        FieldRow {
            field: "seed",
            uses: [I(DRAWS_NOTHING), I(MATRIX_SEED), R, R, R],
            differs: |a, b| a.seed != b.seed,
        },
        FieldRow {
            field: "explore_budget",
            uses: [I(OTHER_MAIN), X(ONE_MAIN), R, R, X(ALONE)],
            differs: |a, b| a.explore_budget != b.explore_budget,
        },
        FieldRow {
            field: "kfaults",
            uses: [I(ADDS_PASS), I(ADDS_PASS), I(ADDS_PASS), R, X(ALONE)],
            differs: |a, b| a.kfaults != b.kfaults,
        },
        FieldRow {
            field: "jobs",
            uses: [X(NO_JOBS), X(NO_JOBS), X(NO_JOBS), R, X(NO_JOBS)],
            differs: |a, b| a.jobs != b.jobs,
        },
    ]
};

impl Default for CampaignSpec {
    /// The default campaign over the full catalogue: every experiment and
    /// format, serial, no faults, no detection — identical to
    /// `Campaign::new(&generate_inputs())`.
    fn default() -> CampaignSpec {
        CampaignSpec {
            inputs: InputSelection::Catalogue,
            experiments: Experiment::ALL.to_vec(),
            formats: StorageFormat::ALL.to_vec(),
            spark_overrides: Vec::new(),
            shards: 1,
            chunk_size: 64,
            faults: None,
            matrix_seed: None,
            detect: false,
            detector_config: DetectorConfig::default(),
            seed: 42,
            explore_budget: None,
            kfaults: 0,
            jobs: 2,
        }
    }
}

impl CampaignSpec {
    /// The main mode: explore when `explore_budget` is set, else the
    /// matrix when `matrix_seed` is, else the grid.
    pub(crate) fn main_mode(&self) -> Mode {
        match (self.explore_budget, self.matrix_seed) {
            (Some(_), _) => Mode::Explore,
            (None, Some(_)) => Mode::Matrix,
            (None, None) => Mode::Grid,
        }
    }

    /// Checks every typed-rejection rule for a spec that
    /// [`Campaign::run`](crate::Campaign::run) runs: in its main mode, then
    /// the compound pass when `kfaults > 0`. Returns the first violation.
    pub fn validate(&self) -> Result<(), SpecError> {
        let modes = [self.main_mode(), Mode::Compound];
        self.validate_in(&modes[..1 + usize::from(self.kfaults > 0)])
    }

    /// Checks every typed-rejection rule for a spec run in `modes`, the
    /// table's [`FIELD_MODES`] rule last.
    pub(crate) fn validate_in(&self, modes: &[Mode]) -> Result<(), SpecError> {
        if self.shards > MAX_SHARDS {
            return Err(SpecError::BadShards {
                shards: self.shards,
                max: MAX_SHARDS,
            });
        }
        if self.chunk_size == 0 {
            return Err(SpecError::BadChunkSize);
        }
        if self.kfaults > MAX_KFAULTS {
            return Err(SpecError::BadKFaults {
                kfaults: self.kfaults,
                max: MAX_KFAULTS,
            });
        }
        if self.explore_budget == Some(0) {
            return Err(SpecError::ZeroExploreBudget);
        }
        if self.jobs == 0 {
            return Err(SpecError::NoJobs);
        }
        if self.jobs > MAX_JOBS {
            return Err(SpecError::TooManyJobs {
                jobs: self.jobs,
                max: MAX_JOBS,
            });
        }
        if let Some(reason) = first_repeat("experiments", &self.experiments)
            .or_else(|| first_repeat("formats", &self.formats))
        {
            return Err(SpecError::RepeatedAxis { reason });
        }
        if let InputSelection::Corpus { shape, .. } = &self.inputs {
            if let Err(reason) = shape.validate() {
                return Err(SpecError::BadCorpusShape { reason });
            }
        }
        if let InputSelection::Inline(inputs) = &self.inputs {
            let mut seen = BTreeSet::new();
            for TestInput { id, .. } in inputs {
                let reason = if *id > MAX_INLINE_ID {
                    format!("input id {id} exceeds the maximum of {MAX_INLINE_ID}")
                } else if !seen.insert(id) {
                    format!("input id {id} appears more than once")
                } else {
                    continue;
                };
                return Err(SpecError::BadInputs { reason });
            }
        }
        if self.spark_overrides.len() > MAX_OVERRIDES {
            return Err(SpecError::BadOverrides {
                reason: format!(
                    "{} overrides exceed the maximum of {MAX_OVERRIDES}",
                    self.spark_overrides.len()
                ),
            });
        }
        for (i, (key, value)) in self.spark_overrides.iter().enumerate() {
            for (part, text) in [("key", key), ("value", value)] {
                if text.len() > MAX_OVERRIDE_BYTES {
                    return Err(SpecError::BadOverrides {
                        reason: format!(
                            "override {i} has a {part} of {} bytes, over the maximum of \
                             {MAX_OVERRIDE_BYTES}",
                            text.len()
                        ),
                    });
                }
            }
        }
        let default = CampaignSpec::default();
        for row in &FIELD_MODES {
            if !(row.differs)(self, &default) {
                continue;
            }
            let uses = modes.iter().map(|&mode| (mode, row.use_in(mode, self)));
            if uses.clone().any(|(_, cell)| cell == FieldUse::Reads) {
                continue;
            }
            if let Some((mode, _)) = uses
                .into_iter()
                .find(|(_, cell)| matches!(cell, FieldUse::Rejected(_)))
            {
                return Err(SpecError::UnreadField {
                    field: row.field.to_string(),
                    mode,
                });
            }
        }
        Ok(())
    }
}

/// Names the first value `list` holds twice. By pigeonhole that is found
/// within one more element than the type has values, however long a
/// revived list is.
fn first_repeat<T: PartialEq + fmt::Debug>(axis: &str, list: &[T]) -> Option<String> {
    list.iter()
        .enumerate()
        .find(|(i, value)| list[..*i].contains(value))
        .map(|(_, value)| format!("{axis} lists {value:?} more than once"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates_and_round_trips_through_json() {
        let spec = CampaignSpec::default();
        spec.validate().expect("default spec is valid");
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let back: CampaignSpec = serde_json::from_str(&json).expect("spec deserializes");
        assert_eq!(back, spec);
    }

    #[test]
    fn inline_inputs_round_trip() {
        let inputs = InputSelection::CataloguePrefix(3).resolve();
        assert_eq!(inputs.len(), 3);
        let spec = CampaignSpec {
            inputs: InputSelection::Inline(inputs.clone()),
            ..CampaignSpec::default()
        };
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let back: CampaignSpec = serde_json::from_str(&json).expect("spec deserializes");
        assert_eq!(back, spec);
        assert_eq!(back.inputs.resolve(), inputs);
    }

    #[test]
    fn prefix_selection_is_clamped_to_the_catalogue() {
        // The catalogue carries NaN float inputs, so compare identity by
        // label rather than by (NaN-poisoned) `PartialEq` on values.
        let all = InputSelection::Catalogue.resolve();
        let clamped = InputSelection::CataloguePrefix(usize::MAX).resolve();
        assert_eq!(clamped.len(), all.len());
        let labels = |v: &[TestInput]| v.iter().map(|i| i.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&clamped), labels(&all));
    }

    #[test]
    fn corpus_selection_appends_the_synthesized_region_above_the_catalogue() {
        let shape = CorpusShape::default();
        let selection = InputSelection::Corpus {
            shape: shape.clone(),
            seed: 7,
        };
        let catalogue = InputSelection::Catalogue.resolve();
        let inputs = selection.resolve();
        let floor = selection
            .corpus_floor()
            .expect("corpus selections carry a floor");
        assert_eq!(floor, catalogue.len());
        assert!(inputs.len() > catalogue.len(), "corpus region is non-empty");
        // The catalogue prefix is untouched; corpus ids continue from it.
        assert_eq!(inputs[floor - 1].id, floor - 1);
        assert_eq!(inputs[floor].id, floor);
        assert!(inputs[floor].label.starts_with("corpus "));
        assert_eq!(InputSelection::Catalogue.corpus_floor(), None);

        // The spec travels by (shape, seed), and both ends resolve the
        // identical inputs.
        let spec = CampaignSpec {
            inputs: selection,
            ..CampaignSpec::default()
        };
        spec.validate().expect("corpus spec is valid");
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let back: CampaignSpec = serde_json::from_str(&json).expect("spec deserializes");
        assert_eq!(back, spec);
        let labels = |v: &[TestInput]| v.iter().map(|i| i.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&back.inputs.resolve()), labels(&inputs));
    }

    #[test]
    fn every_rejection_rule_fires_with_its_typed_error() {
        let base = CampaignSpec::default();
        let catalogue = generator::catalogue();
        let cases: Vec<(CampaignSpec, SpecError)> = vec![
            (
                CampaignSpec {
                    shards: MAX_SHARDS + 1,
                    ..base.clone()
                },
                SpecError::BadShards {
                    shards: MAX_SHARDS + 1,
                    max: MAX_SHARDS,
                },
            ),
            (
                CampaignSpec {
                    chunk_size: 0,
                    ..base.clone()
                },
                SpecError::BadChunkSize,
            ),
            (
                CampaignSpec {
                    kfaults: 4,
                    ..base.clone()
                },
                SpecError::BadKFaults {
                    kfaults: 4,
                    max: MAX_KFAULTS,
                },
            ),
            (
                CampaignSpec {
                    explore_budget: Some(0),
                    ..base.clone()
                },
                SpecError::ZeroExploreBudget,
            ),
            (
                CampaignSpec {
                    explore_budget: Some(64),
                    matrix_seed: Some(5),
                    ..base.clone()
                },
                SpecError::UnreadField {
                    field: "matrix_seed".into(),
                    mode: Mode::Explore,
                },
            ),
            (
                CampaignSpec {
                    jobs: 0,
                    ..base.clone()
                },
                SpecError::NoJobs,
            ),
            (
                CampaignSpec {
                    jobs: MAX_JOBS + 1,
                    ..base.clone()
                },
                SpecError::TooManyJobs {
                    jobs: MAX_JOBS + 1,
                    max: MAX_JOBS,
                },
            ),
            (
                CampaignSpec {
                    inputs: InputSelection::Corpus {
                        shape: CorpusShape {
                            rows: 0,
                            ..CorpusShape::default()
                        },
                        seed: 1,
                    },
                    ..base.clone()
                },
                SpecError::BadCorpusShape {
                    reason: format!("corpus rows 0 outside 1..={}", corpus::MAX_ROWS),
                },
            ),
            (
                CampaignSpec {
                    spark_overrides: vec![("k".into(), "v".into()); MAX_OVERRIDES + 1],
                    ..base.clone()
                },
                SpecError::BadOverrides {
                    reason: format!(
                        "{} overrides exceed the maximum of {MAX_OVERRIDES}",
                        MAX_OVERRIDES + 1
                    ),
                },
            ),
            (
                CampaignSpec {
                    spark_overrides: vec![
                        ("k".into(), "v".into()),
                        ("k".into(), "v".repeat(MAX_OVERRIDE_BYTES + 1)),
                    ],
                    ..base.clone()
                },
                SpecError::BadOverrides {
                    reason: format!(
                        "override 1 has a value of {} bytes, over the maximum of \
                         {MAX_OVERRIDE_BYTES}",
                        MAX_OVERRIDE_BYTES + 1
                    ),
                },
            ),
            (
                CampaignSpec {
                    inputs: InputSelection::Inline(vec![
                        catalogue[3].clone(),
                        catalogue[3].clone(),
                    ]),
                    ..base.clone()
                },
                SpecError::BadInputs {
                    reason: "input id 3 appears more than once".into(),
                },
            ),
            (
                CampaignSpec {
                    formats: vec![StorageFormat::Orc, StorageFormat::Avro, StorageFormat::Orc],
                    ..base.clone()
                },
                SpecError::RepeatedAxis {
                    reason: "formats lists Orc more than once".into(),
                },
            ),
            (
                CampaignSpec {
                    experiments: vec![Experiment::ALL[1]; 1 << 16],
                    ..base.clone()
                },
                SpecError::RepeatedAxis {
                    reason: format!("experiments lists {:?} more than once", Experiment::ALL[1]),
                },
            ),
            (
                CampaignSpec {
                    inputs: InputSelection::Inline(vec![TestInput {
                        id: usize::MAX,
                        ..catalogue[3].clone()
                    }]),
                    ..base.clone()
                },
                SpecError::BadInputs {
                    reason: format!(
                        "input id {} exceeds the maximum of {MAX_INLINE_ID}",
                        usize::MAX
                    ),
                },
            ),
        ];
        for (spec, expected) in cases {
            assert_eq!(spec.validate().expect_err("invalid spec"), expected);
            // Errors render a human-readable reason for Rejected frames.
            assert!(!expected.to_string().is_empty());
        }
        base.validate().expect("base spec is valid");
        // Both bounds are inclusive, and the paper's custom configuration
        // sits far inside them.
        let at_the_bounds = CampaignSpec {
            spark_overrides: vec![
                (
                    "k".repeat(MAX_OVERRIDE_BYTES),
                    "v".repeat(MAX_OVERRIDE_BYTES)
                );
                MAX_OVERRIDES
            ],
            ..base.clone()
        };
        at_the_bounds.validate().expect("bounds are inclusive");
        // Distinct inline ids validate in any order, up to the bound.
        let mut shuffled = catalogue.to_vec();
        shuffled.reverse();
        shuffled[7].id = MAX_INLINE_ID;
        CampaignSpec {
            inputs: InputSelection::Inline(shuffled),
            ..base.clone()
        }
        .validate()
        .expect("a shuffled catalogue is valid");
        CampaignSpec {
            spark_overrides: crate::custom_resolving_overrides(),
            ..base.clone()
        }
        .validate()
        .expect("the custom configuration is valid");
        // Order is the caller's: every permutation of the full lists runs.
        for (first, step) in [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)] {
            let order = [first, (first + step) % 3, (first + 2 * step) % 3];
            CampaignSpec {
                experiments: order.map(|i| Experiment::ALL[i]).to_vec(),
                formats: order.map(|i| StorageFormat::ALL[i]).to_vec(),
                ..base.clone()
            }
            .validate()
            .expect("a permutation of the full lists is valid");
        }
    }

    /// A field is refused only when no mode the spec runs reads it: the
    /// compound pass reads `jobs` and `seed` beside any main mode, the
    /// grid reads `faults` beside the pass, and `run_bulk` runs bulk alone.
    #[test]
    fn a_field_is_refused_only_when_no_mode_the_spec_runs_reads_it() {
        let unread = |field: &str, mode| {
            Err(SpecError::UnreadField {
                field: field.into(),
                mode,
            })
        };
        let explore = CampaignSpec {
            explore_budget: Some(64),
            ..CampaignSpec::default()
        };
        let plan = Some(crate::inject::small_fault_catalogue(5));
        let cases = [
            (
                CampaignSpec {
                    jobs: 3,
                    ..CampaignSpec::default()
                },
                unread("jobs", Mode::Grid),
            ),
            (
                CampaignSpec {
                    jobs: 3,
                    kfaults: 2,
                    ..CampaignSpec::default()
                },
                Ok(()),
            ),
            (
                CampaignSpec {
                    faults: plan.clone(),
                    ..explore.clone()
                },
                unread("faults", Mode::Explore),
            ),
            (
                CampaignSpec {
                    faults: plan.clone(),
                    kfaults: 1,
                    ..CampaignSpec::default()
                },
                Ok(()),
            ),
            (
                CampaignSpec {
                    detect: true,
                    ..explore.clone()
                },
                Ok(()),
            ),
            (
                CampaignSpec {
                    detect: true,
                    kfaults: 1,
                    ..explore.clone()
                },
                Ok(()),
            ),
            (
                CampaignSpec {
                    detector_config: DetectorConfig {
                        storm_threshold: 1,
                        co_window_ms: 0,
                    },
                    ..CampaignSpec::default()
                },
                unread("detector_config", Mode::Grid),
            ),
            (
                CampaignSpec {
                    seed: 7,
                    matrix_seed: Some(7),
                    ..CampaignSpec::default()
                },
                Ok(()),
            ),
            (
                CampaignSpec {
                    inputs: InputSelection::Inline(Vec::new()),
                    matrix_seed: Some(7),
                    ..CampaignSpec::default()
                },
                Ok(()),
            ),
        ];
        for (spec, expected) in cases {
            assert_eq!(spec.validate(), expected, "{spec:?}");
        }
        let bulk = CampaignSpec {
            kfaults: 1,
            ..CampaignSpec::default()
        };
        assert_eq!(bulk.validate(), Ok(()));
        assert_eq!(
            bulk.validate_in(&[Mode::Bulk]),
            unread("kfaults", Mode::Bulk)
        );
        assert_eq!(
            unread("kfaults", Mode::Bulk).unwrap_err().to_string(),
            "kfaults is not read by bulk mode: run_bulk runs bulk alone"
        );
        let refused = std::panic::catch_unwind(|| crate::Campaign::new(&[]).jobs(3).run_bulk(16));
        assert!(refused.is_err(), "run_bulk ran a spec its column refuses");
    }

    /// [`FIELD_MODES`] has one row per [`CampaignSpec`] field, in
    /// declaration order. The pattern names every field and has no `..`,
    /// so a new field stops the build here until it is listed, and the
    /// assertion then asks for its row.
    #[test]
    fn the_table_has_a_row_for_every_spec_field() {
        let CampaignSpec {
            inputs: _,
            experiments: _,
            formats: _,
            spark_overrides: _,
            shards: _,
            chunk_size: _,
            faults: _,
            matrix_seed: _,
            detect: _,
            detector_config: _,
            seed: _,
            explore_budget: _,
            kfaults: _,
            jobs: _,
        } = CampaignSpec::default();
        let fields = [
            "inputs",
            "experiments",
            "formats",
            "spark_overrides",
            "shards",
            "chunk_size",
            "faults",
            "matrix_seed",
            "detect",
            "detector_config",
            "seed",
            "explore_budget",
            "kfaults",
            "jobs",
        ];
        assert_eq!(FIELD_MODES.map(|row| row.field), fields);
    }

    /// A small spec that runs `mode` and in which every
    /// [`FieldUse::Reads`] cell of its column shows, when flipped.
    fn witness(mode: Mode) -> CampaignSpec {
        let catalogue = generator::catalogue();
        let base = CampaignSpec {
            experiments: vec![Experiment::SparkToSpark],
            formats: vec![StorageFormat::Orc],
            ..CampaignSpec::default()
        };
        match mode {
            // A valid TINYINT and "abc" into one: the paper's custom
            // configuration stores the second as NULL instead of failing.
            // The timeout fault fires on every table creation, so a storm
            // threshold of 1 shows in the detections.
            Mode::Grid => CampaignSpec {
                inputs: InputSelection::Inline(vec![catalogue[3].clone(), catalogue[23].clone()]),
                detect: true,
                faults: Some(FaultPlan {
                    seed: 5,
                    faults: crate::inject::fault_catalogue(5)
                        .faults
                        .into_iter()
                        .filter(|f| f.id == "ms-timeout-create")
                        .collect(),
                }),
                ..base
            },
            Mode::Matrix => CampaignSpec {
                matrix_seed: Some(5),
                detect: true,
                ..base
            },
            Mode::Explore => CampaignSpec {
                inputs: InputSelection::Inline(
                    [0, 3, 16, 23].map(|i| catalogue[i].clone()).to_vec(),
                ),
                formats: vec![StorageFormat::Orc, StorageFormat::Avro],
                explore_budget: Some(48),
                detect: true,
                ..base
            },
            Mode::Compound => CampaignSpec {
                kfaults: 1,
                explore_budget: Some(8),
                ..CampaignSpec::default()
            },
            Mode::Bulk => CampaignSpec::default(),
        }
    }

    /// What `mode` makes of `spec`, as text: its runner, run alone, and
    /// everything in its outcome but the wall clock.
    fn outcome_of(mode: Mode, spec: &CampaignSpec) -> String {
        let outcome = match mode {
            Mode::Grid => crate::shard::run_cross_test(spec, &spec.inputs.resolve(), None),
            Mode::Matrix => crate::inject::run_fault_matrix(spec, None),
            Mode::Explore => crate::explore::run_explore(spec, &spec.inputs.resolve(), None),
            Mode::Compound => {
                let mut outcome = crate::CampaignOutcome::default();
                crate::multi::run_compound(spec, &mut outcome);
                outcome
            }
            Mode::Bulk => return format!("{:?}", crate::bulk::run_bulk(spec, 16)),
        };
        format!(
            "{}{:?}{:?}{:?}",
            outcome.render(),
            outcome.observations,
            outcome.matrix,
            outcome.findings
        )
    }

    /// The paper's custom configuration, and `NEVER_INFER`, which moves
    /// the matrix's detections.
    fn flipped_overrides() -> Vec<(String, String)> {
        let mut overrides = crate::custom_resolving_overrides();
        overrides.push((
            minispark::config::CASE_SENSITIVE_INFERENCE.into(),
            "NEVER_INFER".into(),
        ));
        overrides
    }

    /// Sets `field` of `spec` to a value it does not hold; a field at its
    /// default always leaves it.
    fn flip(field: &str, spec: &mut CampaignSpec) {
        match field {
            "inputs" => spec.inputs = InputSelection::CataloguePrefix(2),
            "experiments" => spec.experiments = vec![Experiment::HiveToSpark],
            "formats" => spec.formats = vec![StorageFormat::Parquet],
            "spark_overrides" => spec.spark_overrides = flipped_overrides(),
            "shards" => spec.shards = 3,
            "chunk_size" => spec.chunk_size = 1,
            "faults" => {
                spec.faults = match spec.faults {
                    Some(_) => None,
                    None => Some(crate::inject::small_fault_catalogue(7)),
                }
            }
            "matrix_seed" => spec.matrix_seed = Some(spec.matrix_seed.map_or(7, |s| s + 1)),
            "detect" => spec.detect = !spec.detect,
            "detector_config" => {
                spec.detector_config = DetectorConfig {
                    storm_threshold: 1,
                    co_window_ms: 0,
                }
            }
            "seed" => spec.seed += 1,
            "explore_budget" => {
                spec.explore_budget = Some(spec.explore_budget.map_or(8, |b| b / 2))
            }
            "kfaults" => spec.kfaults += 1,
            "jobs" => spec.jobs += 1,
            other => panic!("no flip for {other}"),
        }
    }

    /// Walks [`FIELD_MODES`]: for each mode, each field flipped on the
    /// mode's witness changes the outcome where the mode reads it, leaves
    /// it byte-identical where it is inert, and is refused where the mode
    /// rejects it; a field read only when detecting is refused once the
    /// witness stops detecting. Every mode's stacks carry the flipped
    /// overrides. The
    /// compound pass's override cell has no witness whose outcome moves:
    /// its roster writes one INT, which no override touches, nor does one
    /// touch bulk's clean table. There the carried overrides are the
    /// check.
    #[test]
    fn every_cell_of_the_field_mode_table_holds() {
        const NO_WITNESS: [(&str, Mode); 2] = [
            ("spark_overrides", Mode::Compound),
            ("spark_overrides", Mode::Bulk),
        ];
        for mode in [
            Mode::Grid,
            Mode::Matrix,
            Mode::Explore,
            Mode::Compound,
            Mode::Bulk,
        ] {
            let witness = witness(mode);
            witness.validate_in(&[mode]).expect("the witness is valid");
            let before = outcome_of(mode, &witness);
            for row in &FIELD_MODES {
                let mut flipped = witness.clone();
                flip(row.field, &mut flipped);
                let at = format!("({}, {mode})", row.field);
                let cell = row.use_in(mode, &flipped);
                if row.uses[mode as usize] == FieldUse::WhenDetecting {
                    let quiet = CampaignSpec {
                        detect: false,
                        ..flipped.clone()
                    };
                    assert_eq!(
                        quiet.validate_in(&[mode]),
                        Err(SpecError::UnreadField {
                            field: row.field.into(),
                            mode
                        }),
                        "{at} without detect"
                    );
                }
                if let FieldUse::Rejected(_) = cell {
                    assert_eq!(
                        flipped.validate_in(&[mode]),
                        Err(SpecError::UnreadField {
                            field: row.field.into(),
                            mode
                        }),
                        "{at}"
                    );
                    continue;
                }
                flipped.validate_in(&[mode]).expect(&at);
                crate::exec::BUILT.with(|built| built.borrow_mut().clear());
                let after = outcome_of(mode, &flipped);
                if row.field == "spark_overrides" {
                    let built = crate::exec::BUILT.with(|built| built.take());
                    assert!(!built.is_empty(), "{at} built no stack");
                    assert!(
                        built.iter().all(|o| *o == flipped.spark_overrides),
                        "{at} built a stack without the overrides"
                    );
                }
                match cell {
                    FieldUse::Inert(_) => assert_eq!(after, before, "{at} is inert"),
                    _ if NO_WITNESS.contains(&(row.field, mode)) => {}
                    _ => assert_ne!(after, before, "{at} is read"),
                }
            }
        }
    }
}
