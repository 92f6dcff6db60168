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
    /// Both `explore_budget` and `matrix_seed` are set: each selects the
    /// campaign's main mode, and a campaign runs one.
    TwoMainModes,
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
            SpecError::TwoMainModes => write!(
                f,
                "explore_budget and matrix_seed each select the main mode; set at most one"
            ),
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
/// thin mutation layer over this struct. The runtime-only detection tap
/// deliberately lives on the builder, not here: a spec describes *what*
/// to run, never *where its output goes*, so serializing and re-running a
/// spec is always byte-deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Inputs to run. Read by the grid and explore mode; the matrix, the
    /// compound pass and bulk bring their own.
    pub inputs: InputSelection,
    /// Experiments to run. Read by the grid, the matrix's probe cells and
    /// explore mode; the compound pass keeps its own job roster.
    pub experiments: Vec<Experiment>,
    /// Storage formats to exercise. Read by the grid, the matrix's probe
    /// cells, explore mode and bulk.
    pub formats: Vec<StorageFormat>,
    /// Spark configuration overrides, set on the session of every grid
    /// deployment. No other mode reads them.
    pub spark_overrides: Vec<(String, String)>,
    /// Worker count; `0` or `1` runs serially. Read by every mode but
    /// bulk.
    pub shards: usize,
    /// Maximum inputs per shard. Read by the grid only.
    pub chunk_size: usize,
    /// Fault plan armed for every grid observation (never for its
    /// fault-free twin), or the cell catalogue of the matrix. Explore mode and the compound pass draw from
    /// [`fault_catalogue`](crate::inject::fault_catalogue) instead.
    pub faults: Option<FaultPlan>,
    /// `Some(seed)` switches the campaign to fault-matrix mode, whose
    /// standard catalogue is derived from it.
    pub matrix_seed: Option<u64>,
    /// Run the online CSI failure detector. Read by the grid and the
    /// matrix.
    pub detect: bool,
    /// Detector thresholds. Read by the grid and the matrix.
    pub detector_config: DetectorConfig,
    /// Seed of explore mode's schedule, mutants and fault overlay, of the
    /// compound pass's catalogue, fault sets and interleavings, and of
    /// bulk's generated table. The grid and the matrix do not read it.
    pub seed: u64,
    /// `Some(budget)` switches the campaign to coverage-guided explore
    /// mode, and is also the compound pass's trial budget (96 without
    /// it). `Some(0)` is rejected by [`validate`](CampaignSpec::validate),
    /// and so is a spec that also sets `matrix_seed`.
    pub explore_budget: Option<usize>,
    /// Arity of the compound fault-set pass; `0` disables it.
    pub kfaults: usize,
    /// Jobs sharing each compound trial's deployment. Read by the
    /// compound pass only.
    pub jobs: usize,
}

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
    /// Checks every typed-rejection rule, returning the first violation.
    pub fn validate(&self) -> Result<(), SpecError> {
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
        if self.explore_budget.is_some() && self.matrix_seed.is_some() {
            return Err(SpecError::TwoMainModes);
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
                SpecError::TwoMainModes,
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
}
