//! Compound campaigns: k-fault combinations crossed with multi-job
//! interleavings on a *shared* deployment.
//!
//! The paper's §7 observation is that most real cross-system incidents are
//! cascades: more than one thing is wrong at once, and the failure only
//! surfaces because two workloads meet inside a shared dependency (one
//! metastore, one filesystem). The single-fault matrix of
//! [`crate::inject`] cannot see those: every cell arms exactly one fault
//! against exactly one job. This module closes the gap.
//!
//! A *compound trial* runs several jobs — each an (experiment, plan,
//! format, input) cell decomposed into `create`/`insert`/`read` turns —
//! against **one** deployment, so they share the metastore, the
//! filesystem, and the crossing context — (crucially) including its
//! call counters. An [`InterleaveSchedule`] fixes the total
//! order of turns and [`run_compound_trial`] dispatches them in that
//! order, one after another on the calling thread, so which job observes
//! an `OnCall`-triggered fault is a deterministic function of the
//! schedule. The armed faults come as a [`FaultSet`] from
//! [`csi_core::fault::fault_combinations`] (k ≤ 3, seeded, serializable).
//!
//! [`run_compound`] searches the (fault-set × interleaving) product space
//! coverage-guided, clusters the resulting discrepancies by the shared
//! trace's *causal prefix* ([`InteractionTrace::causal_prefix`] hashed by
//! [`prefix_fingerprint`]), and ddmin-shrinks each cluster to a minimal
//! fault-set + interleaving reproducer. Determinism is load-bearing, as
//! everywhere else in the harness: trials are hermetic (fresh deployment
//! per trial), each round goes through `shard::run_ordered`, and absorption
//! happens in trial order — a sharded compound pass is byte-identical to
//! a one-worker one, pinned by `tests/kfault.rs`.

use crate::exec::{self, Deployment};
use crate::generator::TestInput;
use crate::inject;
use crate::plan::{scenario_key, Experiment, TestPlan};
use crate::shard::run_ordered;
use crate::shrink::ddmin_lite;
use csi_core::boundary::{faulted, CrossingContext, InteractionTrace};
use csi_core::coverage::{prefix_fingerprint, CoverageMap, CoverageSignature};
use csi_core::fault::{
    classify_fault_outcome, fault_combinations, Channel, FaultOutcome, FaultSet, InjectedFault,
};
use csi_core::report::{ClusterRow, CompoundStats};
use csi_core::rng::splitmix64;
use csi_core::value::Value;
use csi_core::InteractionError;
use minihive::metastore::StorageFormat;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Turns per job: `create`, `insert`, `read`.
pub const TURNS_PER_JOB: usize = 3;

/// Trials scheduled (and absorbed) per coverage round.
const ROUND: usize = 8;

/// Seeded interleavings drawn per campaign, beyond identity.
const SCHEDULES: usize = 3;

/// Seeded fault combinations drawn per arity (k = 2, 3).
const SETS_PER_K: usize = 6;

/// One job of a compound trial: a cross-test cell that will be decomposed
/// into create/insert/read turns on the shared deployment.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The experiment the job belongs to.
    pub experiment: Experiment,
    /// The interface pair: write via `plan.write`, read via `plan.read`.
    pub plan: TestPlan,
    /// The storage format of the job's table.
    pub format: StorageFormat,
    /// The single-row input the job writes and reads back.
    pub input: TestInput,
}

impl JobSpec {
    /// The scenario key, in the fault-matrix probe-cell notation.
    pub fn scenario(&self) -> String {
        scenario_key(
            &self.experiment.plan_label(self.plan),
            self.format.name(),
            None,
        )
    }
}

/// A deterministic total order over the turns of a multi-job trial.
///
/// `turns[k] = (job, turn)` means the `k`-th dispatched action is turn
/// `turn` (0 = create, 1 = insert, 2 = read) of job `job`. Per-job turn
/// order is always respected; schedules only permute *across* jobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterleaveSchedule {
    /// Stable identifier ("identity", or `ilv-{seed:x}` for seeded draws).
    pub id: String,
    /// The dispatch order: `(job index, turn index)` pairs.
    pub turns: Vec<(usize, usize)>,
}

impl InterleaveSchedule {
    /// The identity schedule: jobs run back-to-back, in job order — the
    /// single-job serial semantics of the rest of the harness.
    pub fn identity(jobs: usize, turns_per_job: usize) -> InterleaveSchedule {
        let turns = (0..jobs)
            .flat_map(|j| (0..turns_per_job).map(move |t| (j, t)))
            .collect();
        InterleaveSchedule {
            id: "identity".into(),
            turns,
        }
    }

    /// A seeded permutation of boundary-crossing turns: repeatedly pick,
    /// via a splitmix draw, among the jobs that still have turns left.
    /// Pure function of `(jobs, turns_per_job, seed)`.
    pub fn seeded(jobs: usize, turns_per_job: usize, seed: u64) -> InterleaveSchedule {
        let mut state = seed ^ 0x0D15_EA5E_50DD_BA11_u64;
        let mut next_turn = vec![0usize; jobs];
        let mut turns = Vec::with_capacity(jobs * turns_per_job);
        while turns.len() < jobs * turns_per_job {
            let alive: Vec<usize> = (0..jobs)
                .filter(|&j| next_turn[j] < turns_per_job)
                .collect();
            let pick = alive[(splitmix64(&mut state) % alive.len() as u64) as usize];
            turns.push((pick, next_turn[pick]));
            next_turn[pick] += 1;
        }
        InterleaveSchedule {
            id: format!("ilv-{seed:x}"),
            turns,
        }
    }
}

/// One oracle-positive job outcome of a compound trial: a fault fired
/// during the job's turns and the §9 classification came back as
/// swallowed, mistranslated, or a crash.
#[derive(Debug, Clone, Serialize)]
pub struct CompoundDiscrepancy {
    /// The armed fault combination.
    pub fault_set: FaultSet,
    /// The schedule the trial ran under.
    pub schedule: InterleaveSchedule,
    /// Index of the job that misbehaved.
    pub job: usize,
    /// The job's scenario key.
    pub scenario: String,
    /// The §9 bucket the job's error handling landed in.
    pub outcome: FaultOutcome,
    /// `channel/op` of the first faulted crossing inside the job's turns.
    pub crack: String,
    /// Length of the shared trace's causal prefix.
    pub prefix_len: usize,
    /// [`prefix_fingerprint`] of the shared trace's causal prefix — the
    /// co-failure clustering key. Identical for every discrepancy of one
    /// trial, because the trace is shared.
    pub fingerprint: u64,
}

/// The outcome of one compound trial.
#[derive(Debug, Clone)]
pub struct CompoundTrialReport {
    /// The shared boundary-crossing trace, all jobs merged in causal order.
    pub trace: InteractionTrace,
    /// Oracle-positive job outcomes, in job order.
    pub discrepancies: Vec<CompoundDiscrepancy>,
}

struct JobRun {
    table: String,
    create: Option<Result<(), InteractionError>>,
    insert: Option<Result<(), InteractionError>>,
    read: Option<Result<Vec<Value>, InteractionError>>,
    /// Crossing-index ranges `[start, end)` of each executed turn.
    spans: Vec<(usize, usize)>,
}

impl JobRun {
    fn surfaced(&self) -> Option<InteractionError> {
        if let Some(Err(e)) = &self.create {
            return Some(e.clone());
        }
        if let Some(Err(e)) = &self.insert {
            return Some(e.clone());
        }
        if let Some(Err(e)) = &self.read {
            return Some(e.clone());
        }
        None
    }

    fn write_ok(&self) -> bool {
        matches!(self.create, Some(Ok(()))) && matches!(self.insert, Some(Ok(())))
    }
}

fn run_turn(d: &Deployment, spec: &JobSpec, run: &mut JobRun, turn: usize) {
    let n0 = d.crossing.trace().len();
    match turn {
        0 => {
            let r = exec::create_via(d, spec.plan.write, &run.table, &spec.input, spec.format);
            run.create = Some(r);
        }
        1 => {
            if matches!(run.create, Some(Ok(()))) {
                let r = exec::insert_via(d, spec.plan.write, &run.table, &spec.input);
                run.insert = Some(r);
            }
        }
        _ => {
            if run.write_ok() {
                run.read = Some(exec::read_via(d, spec.plan.read, &run.table));
            }
        }
    }
    run.spans.push((n0, d.crossing.trace().len()));
}

/// Executes one compound trial: `jobs` share a single deployment, `set` is
/// armed on the shared crossing context, and the turns of `schedule` run
/// in schedule order. Hermetic and deterministic: a fresh deployment per
/// call, no wall clock, no randomness.
pub fn run_compound_trial(
    jobs: &[JobSpec],
    set: &FaultSet,
    schedule: &InterleaveSchedule,
) -> CompoundTrialReport {
    let ctx = CrossingContext::new();
    ctx.arm_set(set);
    let d = Deployment::new(ctx);
    let mut runs: Vec<JobRun> = jobs
        .iter()
        .enumerate()
        .map(|(j, spec)| JobRun {
            table: format!(
                "kj{j}_{}_{}",
                spec.experiment.short(),
                spec.format.name().to_ascii_lowercase()
            ),
            create: None,
            insert: None,
            read: None,
            spans: Vec::new(),
        })
        .collect();
    for &(job, turn) in &schedule.turns {
        if job < jobs.len() && turn < TURNS_PER_JOB {
            run_turn(&d, &jobs[job], &mut runs[job], turn);
        }
    }
    let trace = d.crossing.trace();
    let prefix = trace.causal_prefix();
    let fingerprint = prefix_fingerprint(&prefix);
    let mut discrepancies = Vec::new();
    for (j, (spec, run)) in jobs.iter().zip(&runs).enumerate() {
        // A job's turns never overlap and run in turn order, so walking
        // its spans walks its crossings in trace order.
        let in_spans = |&(a, b): &(usize, usize)| faulted(&trace.crossings[a..b]);
        let hits: Vec<_> = run.spans.iter().flat_map(in_spans).collect();
        let Some((cracked, _)) = hits.first() else {
            continue;
        };
        let fired: Vec<InjectedFault> = hits.iter().map(|(_, fault)| (*fault).clone()).collect();
        let surfaced = run.surfaced();
        let outcome = classify_fault_outcome(&fired, surfaced.as_ref());
        if !matches!(
            outcome,
            FaultOutcome::Swallowed | FaultOutcome::Mistranslated | FaultOutcome::Crash
        ) {
            continue;
        }
        let crack = format!("{}/{}", cracked.call.channel, cracked.call.op);
        discrepancies.push(CompoundDiscrepancy {
            fault_set: set.clone(),
            schedule: schedule.clone(),
            job: j,
            scenario: spec.scenario(),
            outcome,
            crack,
            prefix_len: prefix.len(),
            fingerprint,
        });
    }
    CompoundTrialReport {
        trace,
        discrepancies,
    }
}

/// The default job roster: `n` probe-input cells spread across the
/// experiment catalogue, cross-system pairs first — the workloads most
/// likely to meet inside the shared metastore and filesystem.
pub fn default_jobs(n: usize) -> Vec<JobSpec> {
    let order = [
        Experiment::SparkToHive,
        Experiment::HiveToSpark,
        Experiment::SparkToSpark,
    ];
    let mut combos = Vec::new();
    for exp in order {
        for plan in exp.plans() {
            for &fmt in StorageFormat::ALL.iter() {
                combos.push((exp, plan, fmt));
            }
        }
    }
    (0..n)
        .map(|j| {
            let (experiment, plan, format) = combos[(j * 7) % combos.len()];
            JobSpec {
                experiment,
                plan,
                format,
                input: inject::probe_input(),
            }
        })
        .collect()
}

/// Configuration of a compound (fault-set × interleaving) campaign.
#[derive(Debug, Clone)]
pub struct CompoundConfig {
    /// Seed for the fault catalogue, the combination draws, and the
    /// interleaving draws.
    pub seed: u64,
    /// Maximum fault-set arity (clamped to 1..=3).
    pub kfaults: usize,
    /// Number of jobs sharing each trial's deployment (clamped to 1..=4).
    pub jobs: usize,
    /// Maximum trials executed by the coverage-guided search (the shrink
    /// pass runs outside this budget and is accounted in
    /// [`CompoundStats::shrink_checks`]).
    pub budget: usize,
    /// Worker threads; `0` or `1` runs serially. Byte-identical results at
    /// any worker count.
    pub shards: usize,
}

impl CompoundConfig {
    /// The standard compound campaign: two jobs, a 96-trial budget.
    pub fn new(seed: u64, kfaults: usize) -> CompoundConfig {
        CompoundConfig {
            seed,
            kfaults,
            jobs: 2,
            budget: 96,
            shards: 1,
        }
    }
}

/// The result of [`run_compound`].
#[derive(Debug, Clone)]
pub struct CompoundResult {
    /// Aggregates for the `Render` path.
    pub stats: CompoundStats,
    /// One row per co-failure cluster, in fingerprint order, each carrying
    /// its shrunk reproducer.
    pub clusters: Vec<ClusterRow>,
    /// Every discrepancy the search found, in trial order.
    pub discrepancies: Vec<CompoundDiscrepancy>,
}

/// Runs the coverage-guided compound campaign: enumerate the (fault-set ×
/// interleaving) product space, execute trials round by round (promoting
/// every schedule of a fault set whose trial produced a novel signature
/// *and* a discrepancy), cluster the discrepancies by causal-prefix
/// fingerprint, and shrink each cluster to a minimal fault-set +
/// interleaving reproducer.
pub fn run_compound(config: &CompoundConfig) -> CompoundResult {
    let jobs = default_jobs(config.jobs.clamp(1, 4));
    let kfaults = config.kfaults.clamp(1, 3);
    let catalogue: Vec<_> = inject::fault_catalogue(config.seed)
        .faults
        .into_iter()
        .filter(|f| matches!(f.channel, Channel::Metastore | Channel::Hdfs))
        .collect();
    let sets = fault_combinations(&catalogue, kfaults, config.seed, SETS_PER_K);
    let mut schedules = vec![InterleaveSchedule::identity(jobs.len(), TURNS_PER_JOB)];
    for i in 0..SCHEDULES {
        schedules.push(InterleaveSchedule::seeded(
            jobs.len(),
            TURNS_PER_JOB,
            config.seed.wrapping_add(i as u64 + 1),
        ));
    }
    // Seeded draws can collide with identity (always, for one job); keep
    // the first occurrence of each distinct turn order.
    let mut seen_turns = BTreeSet::new();
    schedules.retain(|s| seen_turns.insert(s.turns.clone()));

    let space = sets.len() * schedules.len();
    let mut map = CoverageMap::new();
    let mut scheduled: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut pending: VecDeque<(usize, usize)> = VecDeque::new();
    let mut cursor = 0usize;
    let mut executed = 0usize;
    let mut discrepancies: Vec<CompoundDiscrepancy> = Vec::new();
    while executed < config.budget {
        let mut batch = Vec::new();
        while batch.len() < ROUND.min(config.budget - executed) {
            let next = pending.pop_front().or_else(|| {
                // Grid filler: fault-set-major, schedule-minor.
                while cursor < space {
                    let key = (cursor / schedules.len(), cursor % schedules.len());
                    cursor += 1;
                    if !scheduled.contains(&key) {
                        return Some(key);
                    }
                }
                None
            });
            // Note the closure above returns un-filtered pending keys too.
            let Some(key) = next else { break };
            if scheduled.contains(&key) {
                continue;
            }
            scheduled.insert(key);
            batch.push(key);
        }
        if batch.is_empty() {
            break;
        }
        let reports = run_ordered(
            config.shards,
            batch.len(),
            || (),
            |(), i| {
                let (si, hi) = batch[i];
                run_compound_trial(&jobs, &sets[si], &schedules[hi])
            },
        );
        for (&(si, _hi), report) in batch.iter().zip(reports) {
            executed += 1;
            let mut sig = CoverageSignature::from_trace(&report.trace);
            sig.tag(format_args!("k:{}", sets[si].len()));
            for d in &report.discrepancies {
                sig.tag(format_args!("j{}:{}", d.job, d.outcome));
            }
            let novel = map.observe(&sig, executed);
            if novel && !report.discrepancies.is_empty() {
                // A fault set that just exposed new behaviour earns its
                // remaining interleavings ahead of fresh grid draws.
                for hi in 0..schedules.len() {
                    if !scheduled.contains(&(si, hi)) {
                        pending.push_back((si, hi));
                    }
                }
            }
            discrepancies.extend(report.discrepancies);
        }
    }

    // ---- Co-failure clustering by shared causal-prefix fingerprint. ----
    let mut clusters: BTreeMap<u64, Vec<CompoundDiscrepancy>> = BTreeMap::new();
    for d in &discrepancies {
        clusters.entry(d.fingerprint).or_default().push(d.clone());
    }

    // ---- Per-cluster ddmin shrink to a minimal reproducer. ----
    let identity = InterleaveSchedule::identity(jobs.len(), TURNS_PER_JOB);
    let mut shrink_checks = 0usize;
    let mut rows = Vec::new();
    for (&fp, members) in &clusters {
        let rep = &members[0];
        let mut best_set = rep.fault_set.clone();
        let mut best_sched = rep.schedule.clone();
        let mut reproduces =
            |set: &FaultSet, sched: &InterleaveSchedule| -> Option<CompoundDiscrepancy> {
                shrink_checks += 1;
                run_compound_trial(&jobs, set, sched)
                    .discrepancies
                    .into_iter()
                    .find(|d| d.fingerprint == fp)
            };
        // Interleaving first: the identity schedule is the simplest
        // reproducer a bug report can carry.
        if best_sched.turns != identity.turns && reproduces(&best_set, &identity).is_some() {
            best_sched = identity.clone();
        }
        // Then the fault set.
        let fewer_faults = ddmin_lite(&best_set.faults, |faults| {
            reproduces(&FaultSet::new(faults.to_vec()), &best_sched).is_some()
        });
        if let Some(faults) = fewer_faults {
            best_set = FaultSet::new(faults);
        }
        // The final reproducer run pins the row's scenario; fall back to
        // the representative if the shrunk pair regressed (it cannot, but
        // the fallback keeps the row total even if it did).
        let witness = reproduces(&best_set, &best_sched);
        let (scenario, crack, prefix_len) = match &witness {
            Some(d) => (d.scenario.clone(), d.crack.clone(), d.prefix_len),
            None => (rep.scenario.clone(), rep.crack.clone(), rep.prefix_len),
        };
        rows.push(ClusterRow {
            fingerprint: format!("{fp:016x}"),
            members: members.len(),
            crack,
            prefix_len,
            fault_set: best_set.id.clone(),
            faults: best_set.len(),
            schedule: best_sched.id.clone(),
            scenario,
        });
    }

    let stats = CompoundStats {
        seed: config.seed,
        kfaults,
        jobs: jobs.len(),
        executed,
        space,
        signatures: map.distinct(),
        discrepancies: discrepancies.len(),
        shrink_checks,
    };
    CompoundResult {
        stats,
        clusters: rows,
        discrepancies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_schedule_runs_jobs_back_to_back() {
        let s = InterleaveSchedule::identity(2, 3);
        assert_eq!(
            s.turns,
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        );
        assert_eq!(s.id, "identity");
    }

    #[test]
    fn seeded_schedules_are_deterministic_order_preserving_permutations() {
        let a = InterleaveSchedule::seeded(3, 3, 7);
        assert_eq!(a, InterleaveSchedule::seeded(3, 3, 7));
        assert_ne!(a.turns, InterleaveSchedule::seeded(3, 3, 8).turns);
        assert_eq!(a.turns.len(), 9);
        // Every (job, turn) appears exactly once and per-job turn order is
        // respected.
        let mut next = [0usize; 3];
        for &(job, turn) in &a.turns {
            assert_eq!(turn, next[job], "out-of-order turn for job {job}");
            next[job] += 1;
        }
        assert_eq!(next, [3, 3, 3]);
        // Round-trips through serde.
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(
            serde_json::from_str::<InterleaveSchedule>(&json).unwrap(),
            a
        );
    }

    #[test]
    fn a_clean_compound_trial_has_no_discrepancies() {
        let jobs = default_jobs(2);
        let report = run_compound_trial(
            &jobs,
            &FaultSet::empty(),
            &InterleaveSchedule::identity(2, TURNS_PER_JOB),
        );
        assert!(report.discrepancies.is_empty());
        assert!(!report.trace.crossings.is_empty());
        // Nothing faulted, so the causal prefix is the whole trace.
        assert_eq!(
            report.trace.causal_prefix().len(),
            report.trace.crossings.len()
        );
    }

    #[test]
    fn compound_trials_are_deterministic() {
        let jobs = default_jobs(2);
        let catalogue: Vec<_> = inject::fault_catalogue(1)
            .faults
            .into_iter()
            .filter(|f| matches!(f.channel, Channel::Metastore | Channel::Hdfs))
            .collect();
        let set = FaultSet::new(catalogue[..2].to_vec());
        let sched = InterleaveSchedule::seeded(2, TURNS_PER_JOB, 5);
        let a = run_compound_trial(&jobs, &set, &sched);
        let b = run_compound_trial(&jobs, &set, &sched);
        assert_eq!(a.trace.compact(), b.trace.compact());
        assert_eq!(a.discrepancies.len(), b.discrepancies.len());
    }
}
