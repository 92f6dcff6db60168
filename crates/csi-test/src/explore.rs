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
//! [`crate::inject::fault_catalogue`] — all scheduled ahead of fresh draws
//! from the grid.
//!
//! Determinism is load-bearing, exactly as everywhere else in the harness:
//! scheduling is a pure function of (seed, inputs, budget); each round
//! goes through `shard::run_ordered`, and absorption happens in trial
//! order. A sharded explore run is byte-identical to a one-worker one,
//! pinned by `tests/explore.rs`.

use crate::classify::Classifier;
use crate::exec::{self, Deployment};
use crate::generator::{mutate_input, TestInput, Validity};
use crate::inject;
use crate::plan::{Experiment, TestPlan};
use crate::shard::run_ordered;
use crate::shrink;
use csi_core::boundary::{faulted, CrossingContext};
use csi_core::coverage::{CoverageMap, CoverageSignature};
use csi_core::fault::{classify_fault_outcome, Channel, FaultSpec, InjectedFault};
use csi_core::oracle::Observation;
use csi_core::report::{CorpusRow, DiscoveryRow, DiscrepancyReport, ExplorationStats};
use csi_core::value::DataType;
use minihive::metastore::StorageFormat;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Trials scheduled (and absorbed) per round. Rounds bound how stale the
/// coverage feedback can get under sharding: every worker sees a schedule
/// derived from all observations of the previous round.
const ROUND: usize = 64;

/// Mutants scheduled per corpus admission.
const MUTANTS_PER_ENTRY: usize = 4;

/// Fault-overlay trials scheduled per corpus admission.
const FAULTS_PER_ENTRY: usize = 2;

/// The result of one exploration run, consumed by `Campaign::run`.
pub(crate) struct ExploreResult {
    /// The classified report over every fault-free observation.
    pub report: DiscrepancyReport,
    /// Fault-free observations, grouped by experiment in canonical order,
    /// execution order within.
    pub observations: Vec<(Experiment, Observation)>,
    /// Corpus / coverage / shrink statistics for the `Render` path.
    pub stats: ExplorationStats,
    /// One minimized reproducer per shrunk discrepancy.
    pub reproducers: Vec<shrink::ShrunkReproducer>,
}

/// One scheduled execution: an input on a (experiment, plan, format) cell,
/// optionally under an injected fault.
#[derive(Debug, Clone)]
struct Trial {
    input_idx: usize,
    combo: usize,
    fault: Option<FaultSpec>,
}

struct Explorer {
    combos: Vec<(Experiment, TestPlan, StorageFormat)>,
    experiments: Vec<Experiment>,
    pool: Vec<TestInput>,
    seed_count: usize,
    /// Inputs with ids at or above this are mutants.
    first_mutant_id: usize,
    /// Seed inputs with ids in `corpus_floor..first_mutant_id` are
    /// synthesized corpus seeds (`InputSelection::Corpus` appends them
    /// above the catalogue); with no corpus region this equals
    /// `first_mutant_id` and nothing qualifies.
    corpus_floor: usize,
    /// Seed-grid visiting order: corpus-region indices first, so a small
    /// budget reaches realistic inputs in round one. Identity when there
    /// is no corpus region.
    order: Vec<usize>,
    next_id: usize,
    shards: usize,
    /// Cells already scheduled: (input id, combo, fault id).
    scheduled: BTreeSet<(usize, usize, Option<String>)>,
    pending: VecDeque<Trial>,
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
    // Grid cursor state: pass-major, input-minor, combo rotated per pass.
    pass: usize,
    cursor: usize,
    seed_rot: usize,
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
    fn new(
        inputs: &[TestInput],
        experiments: &[Experiment],
        formats: &[StorageFormat],
        seed: u64,
        shards: usize,
        corpus_floor: Option<usize>,
    ) -> Explorer {
        let mut combos = Vec::new();
        for &exp in experiments {
            for plan in exp.plans() {
                for &fmt in formats {
                    combos.push((exp, plan, fmt));
                }
            }
        }
        let first_mutant_id = inputs.iter().map(|i| i.id + 1).max().unwrap_or(0);
        let corpus_floor = corpus_floor.unwrap_or(first_mutant_id);
        let mut order: Vec<usize> = (0..inputs.len())
            .filter(|&i| inputs[i].id >= corpus_floor)
            .collect();
        order.extend((0..inputs.len()).filter(|&i| inputs[i].id < corpus_floor));
        let seed_rot = if combos.is_empty() {
            0
        } else {
            (seed % combos.len() as u64) as usize
        };
        // Only metastore and filesystem faults can fire inside a
        // cross-testing deployment; the rest of the catalogue targets
        // stacks the explore trials never build.
        let faults: Vec<FaultSpec> = inject::fault_catalogue(seed)
            .faults
            .into_iter()
            .filter(|f| matches!(f.channel, Channel::Metastore | Channel::Hdfs))
            .collect();
        Explorer {
            combos,
            experiments: experiments.to_vec(),
            pool: inputs.to_vec(),
            seed_count: inputs.len(),
            first_mutant_id,
            corpus_floor,
            order,
            next_id: first_mutant_id,
            shards,
            scheduled: BTreeSet::new(),
            pending: VecDeque::new(),
            map: CoverageMap::new(),
            sched_map: CoverageMap::new(),
            corpus_ids: BTreeSet::new(),
            corpus: Vec::new(),
            pass: 0,
            cursor: 0,
            seed_rot,
            executed: 0,
            fresh: 0,
            mutated: 0,
            faulted: 0,
            novel_from_mutation: 0,
            novel_from_corpus: 0,
            judge: Classifier::new(experiments),
            discovered: BTreeMap::new(),
            faults,
            fault_rotor: 0,
        }
    }

    fn trial_key(&self, t: &Trial) -> (usize, usize, Option<String>) {
        (
            self.pool[t.input_idx].id,
            t.combo,
            t.fault.as_ref().map(|f| f.id.clone()),
        )
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

    /// The position of a combo's experiment in `experiments` (and so in
    /// the classifier and a worker's deployments).
    fn exp_idx(&self, combo: usize) -> usize {
        let exp = self.combos[combo].0;
        self.experiments
            .iter()
            .position(|e| *e == exp)
            .expect("combo experiment is configured")
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

    /// The next unexecuted cell of the seed grid, rotating the combo per
    /// pass so early passes spread inputs across plans and formats. The
    /// [`Explorer::order`] vector puts the corpus region ahead of the
    /// catalogue within each pass.
    fn next_grid(&mut self) -> Option<Trial> {
        let c = self.combos.len();
        while self.pass < c {
            while self.cursor < self.seed_count {
                let i = self.order[self.cursor];
                self.cursor += 1;
                let combo = (i + self.pass + self.seed_rot) % c;
                let key = (self.pool[i].id, combo, None);
                if !self.scheduled.contains(&key) {
                    self.scheduled.insert(key);
                    return Some(Trial {
                        input_idx: i,
                        combo,
                        fault: None,
                    });
                }
            }
            self.cursor = 0;
            self.pass += 1;
        }
        None
    }

    /// Schedules up to `n` trials: the corpus-derived queue first, fresh
    /// grid draws as filler. Pure function of prior absorption order.
    fn schedule_round(&mut self, n: usize) -> Vec<Trial> {
        let mut batch = Vec::new();
        while batch.len() < n {
            if let Some(t) = self.pending.pop_front() {
                let key = self.trial_key(&t);
                if self.scheduled.contains(&key) {
                    continue;
                }
                self.scheduled.insert(key);
                batch.push(t);
                continue;
            }
            match self.next_grid() {
                Some(t) => batch.push(t),
                None => break,
            }
        }
        batch
    }

    fn run_trial(
        &self,
        trial: &Trial,
        deployments: &mut BTreeMap<usize, Deployment>,
    ) -> Observation {
        let (exp, plan, fmt) = self.combos[trial.combo];
        let input = &self.pool[trial.input_idx];
        match &trial.fault {
            Some(fault) => {
                // Hermetic: a fresh context pre-armed with exactly this
                // fault, exactly like a fault-matrix probe cell.
                let ctx = CrossingContext::new();
                ctx.arm(fault.clone());
                let d = Deployment::new(ctx);
                exec::run_one(&d, exp, plan, fmt, input, false)
            }
            None => {
                let d = deployments
                    .entry(self.exp_idx(trial.combo))
                    .or_insert_with(|| Deployment::new(CrossingContext::new()));
                // Recycling keeps each worker's metastore footprint at one
                // table and makes observations independent of what the
                // deployment ran before — the sharding byte-identity lever.
                exec::run_one(d, exp, plan, fmt, input, true)
            }
        }
    }

    /// Absorbs one observation, in trial order: coverage, corpus
    /// admission, and (for fault-free trials) the report stream.
    fn absorb(&mut self, trial: &Trial, obs: Observation) {
        self.executed += 1;
        let exp_idx = self.exp_idx(trial.combo);
        let input = &self.pool[trial.input_idx];
        let input_id = input.id;
        let is_mutant = input_id >= self.first_mutant_id;
        let mut sig = CoverageSignature::from_trace(&obs.trace);
        sig.tag(format_args!("ty:{}", type_tag(&input.column_type)));
        sig.tag(match input.validity {
            Validity::Valid => "valid",
            Validity::Invalid => "invalid",
        });
        if let Some(fault) = &trial.fault {
            self.faulted += 1;
            let fired: Vec<InjectedFault> = faulted(&obs.trace.crossings)
                .map(|(_, fault)| fault.clone())
                .collect();
            let bucket = classify_fault_outcome(&fired, obs.surfaced());
            sig.tag(format_args!("fault:{}:{bucket}", fault.channel));
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
    /// combo. Everything lands on the pending queue ahead of fresh draws.
    fn expand_corpus_entry(&mut self, input_idx: usize, parent_combo: usize, is_mutant: bool) {
        let c = self.combos.len();
        for combo in 0..c {
            self.pending.push_back(Trial {
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
                    self.pending.push_back(Trial {
                        input_idx: mi,
                        combo: (parent_combo + off + k) % c,
                        fault: None,
                    });
                }
            }
        }
        if !self.faults.is_empty() {
            for _ in 0..FAULTS_PER_ENTRY {
                let fault = self.faults[self.fault_rotor % self.faults.len()].clone();
                self.fault_rotor += 1;
                self.pending.push_back(Trial {
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

/// Runs a coverage-guided exploration of `budget` observations over the
/// given experiments and formats, then shrinks every reported discrepancy
/// to a 1-row/1-column reproducer.
///
/// `corpus_floor` is the id of the first synthesized corpus seed when the
/// input pool carries a corpus region
/// ([`InputSelection::corpus_floor`](crate::InputSelection::corpus_floor));
/// `None` treats every seed input as catalogue.
pub(crate) fn run_explore(
    inputs: &[TestInput],
    experiments: &[Experiment],
    formats: &[StorageFormat],
    seed: u64,
    budget: usize,
    shards: usize,
    corpus_floor: Option<usize>,
) -> ExploreResult {
    let mut ex = Explorer::new(inputs, experiments, formats, seed, shards, corpus_floor);
    while ex.executed < budget {
        let batch = ex.schedule_round(ROUND.min(budget - ex.executed));
        if batch.is_empty() {
            break;
        }
        // Each worker keeps its own recycling deployments for the round;
        // observations come back in trial order.
        let observations = run_ordered(ex.shards, batch.len(), BTreeMap::new, |deployments, i| {
            ex.run_trial(&batch[i], deployments)
        });
        for (trial, obs) in batch.iter().zip(observations) {
            ex.absorb(trial, obs);
        }
        ex.update_discoveries();
    }
    let (report, observations) = ex.judge.finish(&ex.pool, false);
    let (shrinks, reproducers) = shrink::shrink_report(&report, &ex.pool);
    let mut discoveries: Vec<DiscoveryRow> = ex.discovered.into_values().collect();
    discoveries.sort_by(|a, b| a.executed.cmp(&b.executed).then_with(|| a.id.cmp(&b.id)));
    let stats = ExplorationStats {
        seed,
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
    ExploreResult {
        report,
        observations,
        stats,
        reproducers,
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

    #[test]
    fn grid_cursor_visits_every_cell_exactly_once() {
        let inputs = generate_inputs();
        let mut ex = Explorer::new(
            &inputs[..5],
            &[Experiment::ALL[0]],
            StorageFormat::ALL.as_ref(),
            7,
            1,
            None,
        );
        let cells = ex.seed_count * ex.combos.len();
        let mut seen = BTreeSet::new();
        while let Some(t) = ex.next_grid() {
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
        let mut ex = Explorer::new(
            &inputs,
            &[Experiment::ALL[0]],
            &[StorageFormat::Orc],
            7,
            1,
            None,
        );
        let mut pools = BTreeMap::new();
        for input_idx in 0..inputs.len() {
            let trial = Trial {
                input_idx,
                combo: 0,
                fault: None,
            };
            let obs = ex.run_trial(&trial, &mut pools);
            ex.absorb(&trial, obs);
        }
        assert_eq!(ex.map.distinct(), 2, "reported coverage tells them apart");
        assert_eq!(ex.sched_map.distinct(), 1, "scheduling does not");
        assert_eq!(ex.corpus.len(), 1, "so only the first is admitted");
    }

    #[test]
    fn exploration_is_deterministic_for_a_fixed_seed() {
        let inputs = generate_inputs();
        let run = || {
            run_explore(
                &inputs[..6],
                &[Experiment::ALL[0]],
                &[StorageFormat::Orc, StorageFormat::Avro],
                42,
                40,
                1,
                None,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(
            serde_json::to_string(&a.stats).unwrap(),
            serde_json::to_string(&b.stats).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
        assert_eq!(a.stats.executed, 40);
    }

    #[test]
    fn corpus_grows_and_mutants_run_within_a_small_budget() {
        let inputs = generate_inputs();
        let result = run_explore(
            &inputs[..8],
            &[Experiment::ALL[0]],
            StorageFormat::ALL.as_ref(),
            1,
            120,
            1,
            None,
        );
        assert!(!result.stats.corpus.is_empty());
        assert!(result.stats.mutated > 0, "no mutants executed");
        assert!(result.stats.signatures > 1);
        assert_eq!(
            result.stats.fresh + result.stats.mutated + result.stats.faulted,
            result.stats.executed
        );
        assert_eq!(result.stats.signatures_seen.len(), result.stats.signatures);
    }

    #[test]
    fn corpus_region_is_scheduled_first_and_attributed_as_corpus() {
        // Three catalogue inputs plus a small corpus region above them.
        let mut inputs: Vec<TestInput> = generate_inputs().into_iter().take(3).collect();
        let floor = inputs.len();
        inputs.extend(crate::corpus::synthesize_inputs(
            &crate::corpus::CorpusShape {
                columns: 4,
                ..Default::default()
            },
            5,
            floor,
        ));
        let result = run_explore(
            &inputs,
            &[Experiment::ALL[0]],
            &[StorageFormat::Orc],
            3,
            24,
            1,
            Some(floor),
        );
        assert!(
            result.stats.novel_from_corpus >= 1,
            "no corpus-novel signature within the budget: {:?}",
            result.stats
        );
        assert!(
            result.stats.corpus.iter().any(|r| r.origin == "corpus"),
            "no corpus-origin admission: {:?}",
            result.stats.corpus
        );
        // Corpus-first scheduling: the very first admissions are corpus
        // inputs, not catalogue ones.
        assert_eq!(result.stats.corpus[0].origin, "corpus");
    }
}
