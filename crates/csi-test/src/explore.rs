//! Coverage-guided campaign exploration (the `Campaign::explore` mode).
//!
//! The exhaustive Section 8 grid enumerates every (experiment, plan,
//! format, input) cell; its interesting discrepancies cluster in a small
//! residue. This mode spends a bounded observation budget where the
//! feedback says it matters: each observation's boundary-crossing trace is
//! distilled into a [`CoverageSignature`] (crossing tuples plus classifier
//! tags), inputs that produce *novel* signatures enter a corpus, and corpus
//! entries earn a full plan×format sweep, deterministic mutants
//! ([`crate::generator::mutate_input`]), and a fault overlay from
//! [`crate::inject::fault_catalogue`]'s metastore and HDFS faults — all
//! promoted on the `shard::Frontier`, ahead of fresh draws from the grid.
//!
//! Determinism is load-bearing, exactly as everywhere else in the harness:
//! scheduling is a pure function of (seed, inputs, budget); each round
//! goes through `shard::run_ordered`, each worker runs every trial it
//! claims, in every round, on its one deployment (in the spec's Spark
//! configuration, as the shrinker's checks are), a fault-overlay trial
//! with its fault armed for that run only (every observation is hermetic,
//! whatever the experiment or fault), and absorption happens in trial
//! order. A sharded explore run is byte-identical to a one-worker one,
//! pinned by `tests/explore.rs`.
//!
//! With `spec.detect`, every trial is judged against its fault-free twin
//! on the same deployment (`exec::judged_run`, the calibration rule the
//! grid and the matrix share), so only the fault-overlay trials run twice;
//! the report carries their detection tally.

use crate::campaign::CampaignOutcome;
use crate::classify::Classifier;
use crate::exec::{self, Deployment};
use crate::generator::{mutate_input, TestInput, Validity};
use crate::inject;
use crate::plan::{self, Experiment, TestPlan};
use crate::shard::{run_ordered, worker_states, Frontier};
use crate::shrink;
use crate::spec::CampaignSpec;
use csi_core::boundary::{faulted, CrossingContext};
use csi_core::coverage::{CoverageMap, CoverageSignature};
use csi_core::detect::{DetectionTally, DetectionTap, DetectorSpec};
use csi_core::fault::{classify_fault_outcome, FaultSpec};
use csi_core::oracle::Observation;
use csi_core::report::{CorpusRow, DiscoveryRow, ExplorationStats};
use csi_core::value::DataType;
use minihive::metastore::StorageFormat;
use std::collections::{BTreeMap, BTreeSet};

/// Trials scheduled (and absorbed) per round. Rounds bound how stale the
/// coverage feedback can get under sharding: every worker sees a schedule
/// derived from all observations of the previous round.
const ROUND: usize = 64;

/// Mutants scheduled per corpus admission.
const MUTANTS_PER_ENTRY: usize = 4;

/// Fault-overlay trials scheduled per corpus admission.
const FAULTS_PER_ENTRY: usize = 2;

/// One scheduled execution, and its frontier key: an input (its index
/// into the pool) on a combo, optionally under one injected fault (its
/// index into [`Explorer::faults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Trial {
    input_idx: usize,
    combo: usize,
    fault: Option<usize>,
}

struct Explorer {
    /// The (experiment index, experiment, plan, format) cells a trial
    /// runs on, in `plan::cells` order.
    combos: Vec<(usize, Experiment, TestPlan, StorageFormat)>,
    pool: Vec<TestInput>,
    seed_count: usize,
    /// Inputs with ids at or above this are mutants.
    first_mutant_id: usize,
    /// Seed inputs with ids in `corpus_floor..first_mutant_id` are
    /// synthesized corpus seeds (`InputSelection::Corpus` appends them
    /// above the catalogue); with no corpus region this equals
    /// `first_mutant_id` and nothing qualifies.
    corpus_floor: usize,
    next_id: usize,
    /// Corpus-derived trials, ahead of the seed grid.
    frontier: Frontier<Trial>,
    /// The seed grid, the frontier's filler: pass-major, input-minor, the
    /// combo rotated per pass so early passes spread inputs across plans
    /// and formats. Within a pass the corpus region comes first, so a
    /// small budget reaches realistic inputs in round one.
    grid: Box<dyn Iterator<Item = Trial> + Send + Sync>,
    /// Fine-grained coverage (including `decl:` declared-type tags): the
    /// signature set reports expose and the corpus-vs-catalogue diff is
    /// computed on.
    map: CoverageMap,
    /// Coarse coverage (no `decl:` tags): the scheduling policy. Corpus
    /// admission keys off this map, so two inputs that differ only in
    /// declared width or precision earn one combo sweep, not two. Keying
    /// admission on the fine map instead spends the budget on those
    /// sweeps: at budget 3,200 over the 16 hunt seeds `benchmark/` derives
    /// from `--seed 42`, classes found fall from 15 (14 on 2 seeds) to
    /// 8–13 on the catalogue and from 15 to 10–11 with the corpus, under
    /// the benchmark's floors of 13 and 14. Both maps stay.
    sched_map: CoverageMap,
    corpus_ids: BTreeSet<usize>,
    corpus: Vec<CorpusRow>,
    // Accumulated results.
    executed: usize,
    fresh: usize,
    mutated: usize,
    faulted: usize,
    novel_from_mutation: usize,
    novel_from_corpus: usize,
    /// Judges every fault-free observation; never sealed, because trials
    /// interleave experiments.
    judge: Classifier,
    discovered: BTreeMap<&'static str, DiscoveryRow>,
    faults: Vec<FaultSpec>,
    fault_rotor: usize,
    /// The online detector, when the spec sets `detect`: it judges every
    /// fault-overlay trial against its fault-free twin.
    detector: Option<DetectorSpec>,
    /// The detections of the overlay trials, in trial order.
    detections: DetectionTally,
}

/// The `ty:` coverage tag of a declared type: its kind, without width,
/// precision or element types.
fn type_tag(ty: &DataType) -> &'static str {
    match ty {
        DataType::Boolean => "boolean",
        DataType::Byte => "byte",
        DataType::Short => "short",
        DataType::Int => "int",
        DataType::Long => "long",
        DataType::Float => "float",
        DataType::Double => "double",
        DataType::Decimal(_, _) => "decimal",
        DataType::String => "string",
        DataType::Char(_) => "char",
        DataType::Varchar(_) => "varchar",
        DataType::Binary => "binary",
        DataType::Date => "date",
        DataType::Timestamp => "timestamp",
        DataType::Interval => "interval",
        DataType::Array(_) => "array",
        DataType::Map(_, _) => "map",
        DataType::Struct(_) => "struct",
    }
}

impl Explorer {
    /// An explorer over `spec`'s experiments, formats, seed and detector,
    /// seeded with `inputs`, the resolved `spec.inputs`; its detections go
    /// to `tap`.
    fn new(spec: &CampaignSpec, inputs: &[TestInput], tap: Option<DetectionTap>) -> Explorer {
        let combos: Vec<_> = plan::cells(&spec.experiments, &spec.formats).collect();
        let first_mutant_id = inputs.iter().map(|i| i.id + 1).max().unwrap_or(0);
        let corpus_floor = spec.inputs.corpus_floor().unwrap_or(first_mutant_id);
        let mut order: Vec<usize> = (0..inputs.len())
            .filter(|&i| inputs[i].id >= corpus_floor)
            .collect();
        order.extend((0..inputs.len()).filter(|&i| inputs[i].id < corpus_floor));
        let (c, n) = (combos.len(), order.len());
        let rot = (spec.seed % c.max(1) as u64) as usize;
        let grid = (0..c * n).map(move |k| {
            let input_idx = order[k % n];
            Trial {
                input_idx,
                combo: (input_idx + k / n + rot) % c,
                fault: None,
            }
        });
        Explorer {
            grid: Box::new(grid),
            combos,
            pool: inputs.to_vec(),
            seed_count: inputs.len(),
            first_mutant_id,
            corpus_floor,
            next_id: first_mutant_id,
            frontier: Frontier::new(),
            map: CoverageMap::new(),
            sched_map: CoverageMap::new(),
            corpus_ids: BTreeSet::new(),
            corpus: Vec::new(),
            executed: 0,
            fresh: 0,
            mutated: 0,
            faulted: 0,
            novel_from_mutation: 0,
            novel_from_corpus: 0,
            judge: Classifier::new(&spec.experiments),
            discovered: BTreeMap::new(),
            faults: inject::deployment_faults(spec.seed),
            fault_rotor: 0,
            detector: spec.detect.then(|| DetectorSpec {
                config: spec.detector_config,
                tap,
            }),
            detections: DetectionTally::default(),
        }
    }

    /// Turns a coarse signature, once the coarse map has seen it, into its
    /// fine-grained variant — tagged with the input's declared SQL type,
    /// width and precision included, so reported coverage distinguishes
    /// DECIMAL(24,6) from DECIMAL(10,2) traffic, which is what lets
    /// corpus-only declarations register as novel signatures in the
    /// corpus-vs-catalogue diff — records it in the fine (reported) map
    /// and credits a novel one to the input's origin.
    fn observe_fine(&mut self, mut sig: CoverageSignature, input_idx: usize) {
        let input = &self.pool[input_idx];
        sig.tag(format_args!("decl:{}", input.column_type));
        if self.map.observe(&sig, self.executed) {
            match self.origin(input.id) {
                "mutation" => self.novel_from_mutation += 1,
                "corpus" => self.novel_from_corpus += 1,
                _ => {}
            }
        }
    }

    /// The `"grid"` / `"corpus"` / `"mutation"` origin of an input id.
    fn origin(&self, id: usize) -> &'static str {
        if id >= self.first_mutant_id {
            "mutation"
        } else if id >= self.corpus_floor {
            "corpus"
        } else {
            "grid"
        }
    }

    /// Runs `trial` on the worker's `deployment` (built on first use, with
    /// `spark_overrides`), with its fault, if any, armed for this run only:
    /// an [`exec::judged_run`] under the spec's detector.
    fn run_trial(
        &self,
        trial: Trial,
        deployment: &mut Option<Deployment>,
        spark_overrides: &[(String, String)],
    ) -> Observation {
        let (_, exp, plan, fmt) = self.combos[trial.combo];
        let faults = trial
            .fault
            .map_or(&[][..], |f| std::slice::from_ref(&self.faults[f]));
        let d = deployment
            .get_or_insert_with(|| Deployment::new(CrossingContext::new(), spark_overrides));
        let input = &self.pool[trial.input_idx];
        exec::judged_run(faults, self.detector.as_ref(), |faults| {
            exec::run_one(d, exp, plan, fmt, input, faults)
        })
    }

    /// Absorbs one observation, in trial order: coverage, corpus
    /// admission, and (for fault-free trials) the report stream.
    fn absorb(&mut self, trial: Trial, obs: Observation) {
        self.executed += 1;
        let exp_idx = self.combos[trial.combo].0;
        let input = &self.pool[trial.input_idx];
        let input_id = input.id;
        let is_mutant = input_id >= self.first_mutant_id;
        let mut sig = CoverageSignature::from_trace(&obs.trace);
        sig.tag(format_args!("ty:{}", type_tag(&input.column_type)));
        sig.tag(match input.validity {
            Validity::Valid => "valid",
            Validity::Invalid => "invalid",
        });
        if let Some(fault) = trial.fault {
            self.faulted += 1;
            let fired: Vec<_> = faulted(&obs.trace.crossings)
                .map(|(_, fault)| fault.clone())
                .collect();
            if self.detector.is_some() {
                self.detections
                    .record(&obs.detections, &fired, obs.surfaced());
            }
            let bucket = classify_fault_outcome(&fired, obs.surfaced());
            let channel = self.faults[fault].channel;
            sig.tag(format_args!("fault:{channel}:{bucket}"));
            // Fault observations feed coverage only; they stay out of the
            // classified report, whose oracles assume a fault-free stack.
            self.sched_map.observe(&sig, self.executed);
            self.observe_fine(sig, trial.input_idx);
            return;
        }
        if is_mutant {
            self.mutated += 1;
        } else {
            self.fresh += 1;
        }
        // `run_one` reads only after a clean write, so the surfaced error
        // is the observation's only one.
        if let Some(e) = obs.surfaced() {
            sig.tag(format_args!("code:{}", e.code));
        }
        if let Some((failure, ids)) = self.judge.absorb(exp_idx, input, obs) {
            sig.tag(format_args!("oracle:{}", failure.oracle));
            for id in ids {
                sig.tag(format_args!("d:{id}"));
            }
        }
        // Admission keys off coarse novelty, so declared-type granularity
        // never changes what gets scheduled.
        let novel = self.sched_map.observe(&sig, self.executed);
        self.observe_fine(sig, trial.input_idx);
        if novel && !self.corpus_ids.contains(&input_id) {
            self.corpus_ids.insert(input_id);
            self.corpus.push(CorpusRow {
                input_id,
                label: self.pool[trial.input_idx].label.clone(),
                origin: self.origin(input_id).into(),
                executed: self.executed,
            });
            self.expand_corpus_entry(trial.input_idx, trial.combo, is_mutant);
        }
    }

    /// A corpus admission earns: a full combo sweep, deterministic mutants
    /// on a few spread-out combos, and a fault overlay on the discovering
    /// combo. Everything is promoted on the frontier, ahead of fresh draws.
    fn expand_corpus_entry(&mut self, input_idx: usize, parent_combo: usize, is_mutant: bool) {
        let c = self.combos.len();
        for combo in 0..c {
            self.frontier.promote(Trial {
                input_idx,
                combo,
                fault: None,
            });
        }
        if !is_mutant {
            let mutants = mutate_input(&self.pool[input_idx]);
            for (k, mut m) in mutants.into_iter().take(MUTANTS_PER_ENTRY).enumerate() {
                m.id = self.next_id;
                self.next_id += 1;
                self.pool.push(m);
                let mi = self.pool.len() - 1;
                for off in [0usize, 5, 11] {
                    self.frontier.promote(Trial {
                        input_idx: mi,
                        combo: (parent_combo + off + k) % c,
                        fault: None,
                    });
                }
            }
        }
        if !self.faults.is_empty() {
            for _ in 0..FAULTS_PER_ENTRY {
                let fault = self.fault_rotor % self.faults.len();
                self.fault_rotor += 1;
                self.frontier.promote(Trial {
                    input_idx,
                    combo: parent_combo,
                    fault: Some(fault),
                });
            }
        }
    }

    /// Records first-discovery execution counts: after each round, every
    /// not-yet-seen catalogue id is checked against the failures known so
    /// far.
    fn update_discoveries(&mut self) {
        let found = self
            .judge
            .discoveries(&self.pool, |id| self.discovered.contains_key(id));
        for (id, input_id) in found {
            let row = DiscoveryRow {
                id: id.to_string(),
                executed: self.executed,
                origin: self.origin(input_id).into(),
            };
            self.discovered.insert(id, row);
        }
    }
}

/// Runs `spec`'s coverage-guided exploration over `inputs` (the resolved
/// `spec.inputs`) for `spec.explore_budget` observations, then shrinks
/// every reported discrepancy to a 1-row/1-column reproducer. A corpus
/// selection's synthesized region
/// ([`InputSelection::corpus_floor`](crate::InputSelection::corpus_floor))
/// is scheduled first and attributed to the `corpus` origin.
pub(crate) fn run_explore(
    spec: &CampaignSpec,
    inputs: &[TestInput],
    tap: Option<DetectionTap>,
) -> CampaignOutcome {
    let budget = spec.explore_budget.expect("explore mode");
    let mut ex = Explorer::new(spec, inputs, tap);
    // Each worker keeps one deployment for the whole exploration.
    let mut deployments: Vec<Option<Deployment>> = worker_states(spec.shards);
    while ex.executed < budget {
        // Corpus-derived trials first, fresh seed-grid draws as filler: a
        // pure function of prior absorption order.
        let n = ROUND.min(budget - ex.executed);
        let batch = ex.frontier.round(n, || ex.grid.next());
        if batch.is_empty() {
            break;
        }
        // Observations come back in trial order.
        let observations = run_ordered(&mut deployments, batch.len(), |deployment, i| {
            ex.run_trial(batch[i], deployment, &spec.spark_overrides)
        });
        for (&trial, obs) in batch.iter().zip(observations) {
            ex.absorb(trial, obs);
        }
        ex.update_discoveries();
    }
    let mut outcome = ex.judge.finish(&ex.pool, false);
    if ex.detector.is_some() {
        let report = &mut outcome.report;
        report.detector_enabled = true;
        report.detection_kinds = ex.detections.kinds;
        report.detection_totals = ex.detections.totals;
        report.detector_agreement = ex.detections.agreement;
    }
    let (shrinks, reproducers) = shrink::shrink_report(&outcome, &ex.pool, &spec.spark_overrides);
    let mut discoveries: Vec<DiscoveryRow> = ex.discovered.into_values().collect();
    discoveries.sort_by(|a, b| a.executed.cmp(&b.executed).then_with(|| a.id.cmp(&b.id)));
    let stats = ExplorationStats {
        seed: spec.seed,
        budget,
        grid_cells: ex.seed_count * ex.combos.len(),
        executed: ex.executed,
        fresh: ex.fresh,
        mutated: ex.mutated,
        faulted: ex.faulted,
        signatures: ex.map.distinct(),
        novel_from_mutation: ex.novel_from_mutation,
        novel_from_corpus: ex.novel_from_corpus,
        signatures_seen: ex.map.fingerprints(),
        corpus: ex.corpus,
        discoveries,
        shrinks,
    };
    CampaignOutcome {
        exploration: Some(stats),
        reproducers,
        ..outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_inputs;

    /// The `ty:` tag as it was written before it became a table: the
    /// variant's `Debug` text, lowercased, for every unparameterised type.
    fn debug_lowercase_tag(ty: &DataType) -> String {
        match ty {
            DataType::Decimal(_, _) => "decimal".into(),
            DataType::Char(_) => "char".into(),
            DataType::Varchar(_) => "varchar".into(),
            DataType::Array(_) => "array".into(),
            DataType::Map(_, _) => "map".into(),
            DataType::Struct(_) => "struct".into(),
            other => format!("{other:?}").to_ascii_lowercase(),
        }
    }

    #[test]
    fn type_tags_are_the_debug_lowercase_names() {
        for ty in DataType::primitives() {
            assert_eq!(type_tag(&ty), debug_lowercase_tag(&ty), "{ty:?}");
        }
    }

    /// An explore spec over `inputs` on the first experiment.
    fn explore_spec(
        inputs: &[TestInput],
        formats: &[StorageFormat],
        seed: u64,
        budget: usize,
    ) -> CampaignSpec {
        CampaignSpec {
            inputs: crate::InputSelection::Inline(inputs.to_vec()),
            experiments: vec![Experiment::ALL[0]],
            formats: formats.to_vec(),
            seed,
            explore_budget: Some(budget),
            ..CampaignSpec::default()
        }
    }

    /// `spec`'s exploration over its own resolved inputs.
    fn explore(spec: &CampaignSpec) -> CampaignOutcome {
        run_explore(spec, &spec.inputs.resolve(), None)
    }

    #[test]
    fn grid_cursor_visits_every_cell_exactly_once() {
        let inputs = generate_inputs();
        let spec = explore_spec(&inputs[..5], StorageFormat::ALL.as_ref(), 7, 1);
        let mut ex = Explorer::new(&spec, &inputs[..5], None);
        let cells = ex.seed_count * ex.combos.len();
        let mut seen = BTreeSet::new();
        for t in ex.grid.by_ref() {
            assert!(seen.insert((ex.pool[t.input_idx].id, t.combo)), "revisit");
        }
        assert_eq!(seen.len(), cells);
    }

    #[test]
    fn declared_type_parameters_split_reported_coverage_but_not_admission() {
        use csi_core::value::{Decimal, Value};
        // 1.00 under DECIMAL(10,2) and under DECIMAL(12,2), on one combo.
        let inputs: Vec<TestInput> = [10u8, 12]
            .iter()
            .enumerate()
            .map(|(id, &precision)| TestInput {
                id,
                column_type: DataType::Decimal(precision, 2),
                value: Value::Decimal(Decimal::parse("1.00").unwrap()),
                validity: Validity::Valid,
                label: format!("1.00 as DECIMAL({precision},2)"),
                expected_back: None,
            })
            .collect();
        let spec = explore_spec(&inputs, &[StorageFormat::Orc], 7, 1);
        let mut ex = Explorer::new(&spec, &inputs, None);
        let mut deployment = None;
        for input_idx in 0..inputs.len() {
            let trial = Trial {
                input_idx,
                combo: 0,
                fault: None,
            };
            let obs = ex.run_trial(trial, &mut deployment, &[]);
            ex.absorb(trial, obs);
        }
        assert_eq!(ex.map.distinct(), 2, "reported coverage tells them apart");
        assert_eq!(ex.sched_map.distinct(), 1, "scheduling does not");
        assert_eq!(ex.corpus.len(), 1, "so only the first is admitted");
    }

    #[test]
    fn exploration_is_deterministic_for_a_fixed_seed() {
        let inputs = generate_inputs();
        let spec = explore_spec(
            &inputs[..6],
            &[StorageFormat::Orc, StorageFormat::Avro],
            42,
            40,
        );
        let a = explore(&spec);
        let b = explore(&spec);
        assert_eq!(
            serde_json::to_string(&a.exploration).unwrap(),
            serde_json::to_string(&b.exploration).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
        assert_eq!(a.exploration.expect("explore mode").executed, 40);
    }

    #[test]
    fn corpus_grows_and_mutants_run_within_a_small_budget() {
        let inputs = generate_inputs();
        let spec = explore_spec(&inputs[..8], StorageFormat::ALL.as_ref(), 1, 120);
        let stats = explore(&spec).exploration.expect("explore mode");
        assert!(!stats.corpus.is_empty());
        assert!(stats.mutated > 0, "no mutants executed");
        assert!(stats.signatures > 1);
        assert_eq!(stats.fresh + stats.mutated + stats.faulted, stats.executed);
        assert_eq!(stats.signatures_seen.len(), stats.signatures);
    }

    #[test]
    fn corpus_region_is_scheduled_first_and_attributed_as_corpus() {
        // The catalogue plus a small corpus region above it.
        let spec = CampaignSpec {
            inputs: crate::InputSelection::Corpus {
                shape: crate::corpus::CorpusShape {
                    columns: 4,
                    ..Default::default()
                },
                seed: 5,
            },
            ..explore_spec(&[], &[StorageFormat::Orc], 3, 24)
        };
        let stats = explore(&spec).exploration.expect("explore mode");
        assert!(
            stats.novel_from_corpus >= 1,
            "no corpus-novel signature within the budget: {stats:?}"
        );
        assert!(
            stats.corpus.iter().any(|r| r.origin == "corpus"),
            "no corpus-origin admission: {:?}",
            stats.corpus
        );
        // Corpus-first scheduling: the very first admissions are corpus
        // inputs, not catalogue ones.
        assert_eq!(stats.corpus[0].origin, "corpus");
    }
}
