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
//! coverage-guided (on the `shard::Frontier` explore also uses: promoted
//! keys first, then the set-major grid, no key twice), clusters the
//! resulting discrepancies by the shared trace's *causal prefix*
//! ([`InteractionTrace::causal_prefix`] hashed by [`prefix_fingerprint`]),
//! and ddmin-shrinks each cluster to a minimal fault-set + interleaving
//! reproducer. Determinism is load-bearing, as
//! everywhere else in the harness: trials are hermetic (fresh deployment
//! per trial), each round goes through `shard::run_ordered`, and absorption
//! happens in trial order — a sharded compound pass is byte-identical to
//! a one-worker one, pinned by `tests/kfault.rs`.

use crate::campaign::{crack, is_finding, CampaignOutcome, Evidence, Finding};
use crate::exec::{self, Deployment};
use crate::generator::TestInput;
use crate::inject;
use crate::plan::{self, scenario_key, Experiment, TestPlan};
use crate::shard::{run_ordered, worker_states, Frontier};
use crate::shrink::ddmin_lite;
use crate::spec::CampaignSpec;
use csi_core::boundary::{faulted, CrossingContext, InteractionTrace};
use csi_core::coverage::{prefix_fingerprint, CoverageMap, CoverageSignature};
use csi_core::fault::{classify_fault_outcome, fault_combinations, FaultOutcome, FaultSet};
use csi_core::report::{ClusterRow, CompoundStats};
use csi_core::rng::splitmix64;
use csi_core::value::Value;
use csi_core::InteractionError;
use minihive::metastore::StorageFormat;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Turns per job: `create`, `insert`, `read`.
pub const TURNS_PER_JOB: usize = 3;

/// Trials scheduled (and absorbed) per coverage round.
const ROUND: usize = 8;

/// Seeded interleavings drawn per campaign, beyond identity.
const SCHEDULES: usize = 3;

/// Seeded fault combinations drawn per arity (k = 2, 3).
const SETS_PER_K: usize = 6;

/// Trials the search executes when the spec sets no explore budget.
const DEFAULT_BUDGET: usize = 96;

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
    /// Index of the job that misbehaved.
    pub job: usize,
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
    fn surfaced(&self) -> Option<&InteractionError> {
        let written = [&self.create, &self.insert].into_iter().flatten();
        let read = self.read.as_ref().and_then(|r| r.as_ref().err());
        written.filter_map(|r| r.as_ref().err()).chain(read).next()
    }

    fn write_ok(&self) -> bool {
        matches!(self.create, Some(Ok(()))) && matches!(self.insert, Some(Ok(())))
    }
}

fn run_turn(d: &Deployment, spec: &JobSpec, run: &mut JobRun, turn: usize) {
    let n0 = d.crossing.trace_len();
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
    run.spans.push((n0, d.crossing.trace_len()));
}

/// Executes one compound trial in the default Spark configuration: `jobs`
/// share a single deployment, `set` is armed on the shared crossing
/// context, and the turns of `schedule` run in schedule order. Hermetic
/// and deterministic: a fresh deployment per call, no wall clock, no
/// randomness. [`run_compound`] runs its trials the same way, in the
/// spec's configuration.
pub fn run_compound_trial(
    jobs: &[JobSpec],
    set: &FaultSet,
    schedule: &InterleaveSchedule,
) -> CompoundTrialReport {
    compound_trial(jobs, set, schedule, &[])
}

/// [`run_compound_trial`] on a stack built with `spark_overrides`.
fn compound_trial(
    jobs: &[JobSpec],
    set: &FaultSet,
    schedule: &InterleaveSchedule,
    spark_overrides: &[(String, String)],
) -> CompoundTrialReport {
    let d = Deployment::new(CrossingContext::new(), spark_overrides);
    d.crossing.rearm(&set.faults);
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
    for (j, run) in runs.iter().enumerate() {
        // A job's turns never overlap and run in turn order, so walking
        // its spans walks its crossings in trace order.
        let in_spans = |&(a, b): &(usize, usize)| faulted(&trace.crossings[a..b]);
        let hits: Vec<_> = run.spans.iter().flat_map(in_spans).collect();
        let Some(crack) = crack(hits.iter().copied()) else {
            continue;
        };
        let fired = hits.iter().map(|&(_, fault)| fault);
        let outcome = classify_fault_outcome(fired, run.surfaced());
        if !is_finding(outcome) {
            continue;
        }
        discrepancies.push(CompoundDiscrepancy {
            job: j,
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
    let combos: Vec<_> = plan::cells(&order, &StorageFormat::ALL).collect();
    (0..n)
        .map(|j| {
            let (_, experiment, plan, format) = combos[(j * 7) % combos.len()];
            JobSpec {
                experiment,
                plan,
                format,
                input: inject::probe_input(),
            }
        })
        .collect()
}

/// Runs `spec`'s coverage-guided compound pass: enumerate the (fault-set ×
/// interleaving) product space, execute trials round by round (promoting
/// every schedule of a fault set whose trial produced a novel signature
/// *and* a discrepancy), cluster the discrepancies by causal-prefix
/// fingerprint, and shrink each cluster to a minimal fault-set +
/// interleaving reproducer. Fills `outcome`'s `compound` stats and
/// `clusters`, and appends one finding per cluster, in cluster order.
///
/// Which spec fields the pass reads is its column of
/// [`FIELD_MODES`](crate::spec::FIELD_MODES). `spec.explore_budget` is the
/// trial budget, 96 trials without it; the shrink pass runs outside it and
/// is accounted in [`CompoundStats::shrink_checks`].
pub fn run_compound(spec: &CampaignSpec, outcome: &mut CampaignOutcome) {
    let jobs = default_jobs(spec.jobs);
    let budget = spec.explore_budget.unwrap_or(DEFAULT_BUDGET);
    let catalogue = inject::deployment_faults(spec.seed);
    let sets = fault_combinations(&catalogue, spec.kfaults, spec.seed, SETS_PER_K);
    let mut schedules = vec![InterleaveSchedule::identity(jobs.len(), TURNS_PER_JOB)];
    for i in 0..SCHEDULES {
        schedules.push(InterleaveSchedule::seeded(
            jobs.len(),
            TURNS_PER_JOB,
            spec.seed.wrapping_add(i as u64 + 1),
        ));
    }
    // Seeded draws can collide with identity (always, for one job); keep
    // the first occurrence of each distinct turn order.
    let mut seen_turns = BTreeSet::new();
    schedules.retain(|s| seen_turns.insert(s.turns.clone()));

    let space = sets.len() * schedules.len();
    let mut map = CoverageMap::new();
    // Trial keys are (fault set, schedule) index pairs; the frontier's
    // filler walks them fault-set-major, schedule-minor.
    let mut frontier = Frontier::new();
    let mut grid = (0..sets.len()).flat_map(|si| (0..schedules.len()).map(move |hi| (si, hi)));
    let mut executed = 0usize;
    // A compound trial builds its own deployment: the workers hold nothing.
    let mut workers: Vec<()> = worker_states(spec.shards);
    // Every discrepancy found, with the (fault set, schedule) of its trial.
    let mut discrepancies: Vec<((usize, usize), CompoundDiscrepancy)> = Vec::new();
    while executed < budget {
        let batch = frontier.round(ROUND.min(budget - executed), || grid.next());
        if batch.is_empty() {
            break;
        }
        let reports = run_ordered(&mut workers, batch.len(), |(), i| {
            let (si, hi) = batch[i];
            compound_trial(&jobs, &sets[si], &schedules[hi], &spec.spark_overrides)
        });
        for (&(si, hi), report) in batch.iter().zip(reports) {
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
                    frontier.promote((si, hi));
                }
            }
            discrepancies.extend(report.discrepancies.into_iter().map(|d| ((si, hi), d)));
        }
    }

    // ---- Co-failure clustering by shared causal-prefix fingerprint. ----
    let mut clusters: BTreeMap<u64, Vec<_>> = BTreeMap::new();
    for (trial, d) in discrepancies {
        clusters.entry(d.fingerprint).or_default().push((trial, d));
    }

    // ---- Per-cluster ddmin shrink to a minimal reproducer. ----
    let identity = InterleaveSchedule::identity(jobs.len(), TURNS_PER_JOB);
    let mut shrink_checks = 0usize;
    for (&fp, members) in &clusters {
        let ((si, hi), rep) = &members[0];
        let mut best_set = sets[*si].clone();
        let mut best_sched = schedules[*hi].clone();
        let mut reproduces =
            |set: &FaultSet, sched: &InterleaveSchedule| -> Option<CompoundDiscrepancy> {
                shrink_checks += 1;
                compound_trial(&jobs, set, sched, &spec.spark_overrides)
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
        // The final reproducer run pins the row; fall back to the
        // representative if the shrunk pair regressed (it cannot, but the
        // fallback keeps the row total even if it did).
        let witness = reproduces(&best_set, &best_sched).unwrap_or_else(|| rep.clone());
        let fingerprint = format!("{fp:016x}");
        outcome.findings.push(Finding {
            id: fingerprint.clone(),
            evidence: Evidence::Cluster(outcome.clusters.len()),
            crack: Some(witness.crack.clone()),
        });
        outcome.clusters.push(ClusterRow {
            fingerprint,
            members: members.len(),
            crack: witness.crack,
            prefix_len: witness.prefix_len,
            fault_set: best_set.id.clone(),
            faults: best_set.len(),
            schedule: best_sched.id.clone(),
            scenario: jobs[witness.job].scenario(),
        });
    }

    outcome.compound = Some(CompoundStats {
        seed: spec.seed,
        kfaults: spec.kfaults,
        jobs: jobs.len(),
        executed,
        space,
        signatures: map.distinct(),
        discrepancies: clusters.values().map(Vec::len).sum(),
        shrink_checks,
    });
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
        let catalogue = inject::deployment_faults(1);
        let set = FaultSet::new(catalogue[..2].to_vec());
        let sched = InterleaveSchedule::seeded(2, TURNS_PER_JOB, 5);
        let a = run_compound_trial(&jobs, &set, &sched);
        let b = run_compound_trial(&jobs, &set, &sched);
        assert_eq!(a.trace.compact(), b.trace.compact());
        assert_eq!(a.discrepancies.len(), b.discrepancies.len());
    }
}
