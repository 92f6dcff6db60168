//! The one executor: an ordered worker pool, and the cross-test grid on it.
//!
//! `run_ordered` is the only place the harness spawns threads. Every
//! [`crate::Campaign`] mode hands it `n` independent jobs — grid shards
//! here, fault-matrix cells in [`crate::inject`], explore rounds in
//! [`crate::explore`], compound trials in [`crate::multi`] — and gets the
//! results back in index order, whatever worker ran them. The caller owns
//! one state per worker, so a worker's deployment serves every run it
//! makes for the whole campaign, across rounds, and faults are armed per
//! run, not per deployment. Serial is one worker state: the same closure,
//! inline on the calling thread. The two
//! searching modes pick each round's jobs off one `Frontier`: keys that
//! feedback promoted first, then the mode's grid filler, none twice.
//!
//! The cross-test grid (`run_cross_test`) shards the (experiment, plan,
//! format, input) space into (experiment, plan, format, input-chunk) work
//! units, walking the cells in [`crate::plan`]'s one order:
//!
//! - **One deployment per worker** — a worker builds one
//!   Metastore/MiniHdfs/SparkSession/HiveQl stack and runs every shard it
//!   claims on it, whatever the experiment, faulted or not. Every
//!   observation is hermetic: `run_one` arms exactly its faults, resets
//!   the crossing context and drains the sink before it starts, and
//!   disarms and drops its table when it ends, so what a stack ran before
//!   never reaches the next observation. A detecting worker judges each
//!   observation with `exec::judged_run`, whose fault-free twin runs on
//!   the same stack.
//! - **Deterministic merge** — workers only *record* observations. The
//!   merger walks the shards in canonical (experiment, plan, format,
//!   input-id) order and hands each observation to the one
//!   `classify::Classifier`, so failures are produced in the same order
//!   and the [`DiscrepancyReport`] is byte-identical at any worker count.
//! - **Campaign metrics** — observations/sec, per-phase wall time, and
//!   per-worker utilization are surfaced in [`CampaignMetrics`].
//!
//! [`DiscrepancyReport`]: csi_core::report::DiscrepancyReport

use crate::campaign::CampaignOutcome;
use crate::classify::Classifier;
use crate::exec::{judged_run, run_one, Deployment};
use crate::generator::TestInput;
use crate::plan::{cells, Experiment, TestPlan};
use crate::spec::CampaignSpec;
use csi_core::boundary::CrossingContext;
use csi_core::detect::{DetectionTap, DetectorSpec};
use csi_core::oracle::Observation;
use minihive::metastore::StorageFormat;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Runs `job(state, i)` for every `i` in `0..n` on one thread per worker
/// state, and returns the results in index order.
///
/// Workers claim indices off a bump counter, so the indices any one
/// worker sees are strictly increasing; each result lands in its own
/// slot, so no worker waits on another to store one. The caller owns the
/// states, so a state (a deployment, a worker's statistics) outlives the
/// call. Only the first `n` states are used; one state runs the closures
/// inline on the calling thread, with no spawn. `workers` must not be
/// empty while `n > 0`. A panicking job panics the caller either way.
pub(crate) fn run_ordered<S: Send, T: Send>(
    workers: &mut [S],
    n: usize,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let used = n.min(workers.len());
    let workers = &mut workers[..used];
    if let [state] = workers {
        return (0..n).map(|i| job(state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for state in workers {
            let (next, slots, job) = (&next, &slots, &job);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = job(state, i);
                *slots[i].lock() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index was claimed"))
        .collect()
}

/// One state per worker of `spec.shards` (`0` and `1` both mean one),
/// each `S::default()`.
pub(crate) fn worker_states<S: Default>(shards: usize) -> Vec<S> {
    (0..shards.max(1)).map(|_| S::default()).collect()
}

/// The one work list of the searching modes (explore's trials, the
/// compound pass's (fault set, schedule) keys): keys promoted by feedback
/// run first, in promotion order, then the filler's, and no key is ever
/// scheduled twice.
pub(crate) struct Frontier<K> {
    scheduled: BTreeSet<K>,
    promoted: VecDeque<K>,
}

impl<K: Ord + Copy> Frontier<K> {
    pub(crate) fn new() -> Frontier<K> {
        Frontier {
            scheduled: BTreeSet::new(),
            promoted: VecDeque::new(),
        }
    }

    /// Queues `key` ahead of every filler key, unless it was already
    /// scheduled.
    pub(crate) fn promote(&mut self, key: K) {
        if !self.scheduled.contains(&key) {
            self.promoted.push_back(key);
        }
    }

    /// The next round: up to `n` keys never scheduled before, the promoted
    /// ones first, then `filler`'s, until both run dry.
    pub(crate) fn round(&mut self, n: usize, mut filler: impl FnMut() -> Option<K>) -> Vec<K> {
        let mut batch = Vec::with_capacity(n);
        while batch.len() < n {
            let Some(key) = self.promoted.pop_front().or_else(&mut filler) else {
                break;
            };
            if self.scheduled.insert(key) {
                batch.push(key);
            }
        }
        batch
    }
}

/// Execution statistics for one worker of the pool.
#[derive(Debug, Clone, Default, Serialize)]
pub struct WorkerStats {
    /// Worker index within the pool: the worker's state, which outlives
    /// the pool, in the order the campaign built them.
    pub worker: usize,
    /// Shards this worker executed.
    pub shards: usize,
    /// Observations this worker recorded.
    pub observations: usize,
    /// Time spent executing shards, in microseconds.
    pub busy_micros: u64,
    /// `busy` as a fraction of the execute phase's wall time (0.0–1.0).
    pub utilization: f64,
}

/// Wall-time and throughput metrics for one cross-test campaign.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignMetrics {
    /// Workers in the pool.
    pub workers: usize,
    /// Work units the campaign was sharded into.
    pub shards: usize,
    /// Total observations recorded.
    pub observations: usize,
    /// Wall time of the execute phase, in microseconds; a detecting,
    /// faulted grid's fault-free twin runs are part of it.
    pub execute_micros: u64,
    /// Wall time of the merge phase (oracles + classification) — the
    /// campaign's oracle overhead, in microseconds.
    pub oracle_micros: u64,
    /// End-to-end wall time, in microseconds.
    pub total_micros: u64,
    /// Observations recorded per second of execute-phase wall time.
    pub observations_per_sec: f64,
    /// Per-worker breakdown.
    pub per_worker: Vec<WorkerStats>,
}

/// One work unit: a contiguous slice of the input catalogue under a fixed
/// (experiment, plan, format). Shards are generated in canonical executor
/// order, so a shard's position in the vector *is* its merge position.
struct Shard {
    experiment_idx: usize,
    experiment: Experiment,
    plan: TestPlan,
    format: StorageFormat,
    lo: usize,
    hi: usize,
}

/// Enumerates shards in the canonical nesting order: the cells of
/// `plan::cells`, then input chunks.
fn build_shards(inputs_len: usize, spec: &CampaignSpec) -> Vec<Shard> {
    let chunk_size = spec.chunk_size.max(1);
    cells(&spec.experiments, &spec.formats)
        .flat_map(|(experiment_idx, experiment, plan, format)| {
            (0..inputs_len).step_by(chunk_size).map(move |lo| Shard {
                experiment_idx,
                experiment,
                plan,
                format,
                lo,
                hi: (lo + chunk_size).min(inputs_len),
            })
        })
        .collect()
}

/// One worker's private state on the grid: its deployment, built with its
/// first shard, and its counts, which the campaign completes into its
/// [`WorkerStats`] when the execute phase ends.
#[derive(Default)]
struct GridWorker {
    deployment: Option<Deployment>,
    stats: WorkerStats,
}

/// Runs `spec`'s grid over `inputs` on `spec.shards` workers (`0` and `1`
/// both mean one: the calling thread) with at most `spec.chunk_size`
/// inputs per shard, and merges the shard results in canonical order: the
/// executor behind every grid [`crate::Campaign`]. Observations, failure
/// ordering, and the classified report are the same at any worker count
/// and chunk size; see the module docs for how the merge guarantees this.
///
/// Every observation runs on its worker's one deployment, which carries
/// `spec`'s Spark overrides, with `spec.faults` armed for that run. With
/// `spec.detect`, every observation is a [`judged_run`] on that
/// deployment, and every detection goes to `tap`.
pub(crate) fn run_cross_test(
    spec: &CampaignSpec,
    inputs: &[TestInput],
    tap: Option<DetectionTap>,
) -> CampaignOutcome {
    let detector = spec.detect.then(|| DetectorSpec {
        config: spec.detector_config,
        tap,
    });
    let faults = spec.faults.as_ref().map_or(&[][..], |plan| &plan.faults);
    let campaign_started = Instant::now();
    let shards = build_shards(inputs.len(), spec);
    let mut workers: Vec<GridWorker> = worker_states(spec.shards.min(shards.len()));

    let batches: Vec<Vec<Observation>> = run_ordered(&mut workers, shards.len(), |worker, i| {
        let shard = &shards[i];
        let shard_started = Instant::now();
        let d = worker
            .deployment
            .get_or_insert_with(|| Deployment::new(CrossingContext::new(), &spec.spark_overrides));
        let batch: Vec<Observation> = inputs[shard.lo..shard.hi]
            .iter()
            .map(|input| {
                judged_run(faults, detector.as_ref(), |faults| {
                    run_one(d, shard.experiment, shard.plan, shard.format, input, faults)
                })
            })
            .collect();
        worker.stats.shards += 1;
        worker.stats.observations += batch.len();
        worker.stats.busy_micros += shard_started.elapsed().as_micros() as u64;
        batch
    });

    let execute_micros = campaign_started.elapsed().as_micros() as u64;
    // The deployments go before the merge, which never needs them.
    let per_worker: Vec<WorkerStats> = workers
        .into_iter()
        .enumerate()
        .map(|(worker, w)| WorkerStats {
            worker,
            utilization: w.stats.busy_micros as f64 / execute_micros.max(1) as f64,
            ..w.stats
        })
        .collect();
    let merge_started = Instant::now();

    // Deterministic merge: batch order is canonical shard order, so walking
    // the batches hands the classifier the grid's observation sequence —
    // each experiment sealed as the walk leaves it — and the report is the
    // same at any worker count.
    let mut judge = Classifier::new(&spec.experiments);
    for (i, (shard, batch)) in shards.iter().zip(batches).enumerate() {
        for (input, obs) in inputs[shard.lo..shard.hi].iter().zip(batch) {
            judge.absorb(shard.experiment_idx, input, obs);
        }
        let next = shards.get(i + 1).map(|next| next.experiment_idx);
        if next != Some(shard.experiment_idx) {
            judge.seal(shard.experiment_idx);
        }
    }
    let outcome = judge.finish(inputs, detector.is_some());

    let oracle_micros = merge_started.elapsed().as_micros() as u64;
    let total_micros = campaign_started.elapsed().as_micros() as u64;
    let metrics = CampaignMetrics {
        workers: per_worker.len(),
        shards: shards.len(),
        observations: outcome.observations.len(),
        execute_micros,
        oracle_micros,
        total_micros,
        observations_per_sec: outcome.observations.len() as f64
            / (execute_micros.max(1) as f64 / 1_000_000.0),
        per_worker,
    };
    CampaignOutcome {
        metrics: Some(metrics),
        ..outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Validity;
    use csi_core::value::{DataType, Value};
    use proptest::prelude::*;

    fn small_inputs() -> Vec<TestInput> {
        [
            (DataType::Byte, Value::Byte(5), Validity::Valid),
            (DataType::Int, Value::Int(7), Validity::Valid),
            (DataType::Byte, Value::Int(4096), Validity::Invalid),
            (DataType::String, Value::Str("x".into()), Validity::Valid),
        ]
        .into_iter()
        .enumerate()
        .map(|(id, (column_type, value, validity))| TestInput {
            id,
            column_type,
            value,
            validity,
            label: format!("input {id}"),
            expected_back: None,
        })
        .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any worker count gives the plain serial `map`; every index is
        /// claimed by exactly one state, and the states, which the caller
        /// owns, keep their counts from one call to the next.
        #[test]
        fn run_ordered_equals_the_serial_map(n in 0usize..200, workers in 1usize..8) {
            let mut claimed = vec![0usize; workers];
            for call in 1..=2 {
                let out = run_ordered(&mut claimed, n, |claimed, i| {
                    *claimed += 1;
                    i * i + 1
                });
                prop_assert_eq!(out, (0..n).map(|i| i * i + 1).collect::<Vec<_>>());
                prop_assert_eq!(claimed.iter().sum::<usize>(), call * n);
            }
        }
    }

    #[test]
    fn run_ordered_with_one_worker_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_ordered(&mut [()], 5, |(), _| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
        // More workers than jobs clamps: one job is one inline worker.
        let ids = run_ordered(&mut [(); 8], 1, |(), _| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn a_panicking_job_panics_the_caller_inline_and_threaded() {
        for workers in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                run_ordered(&mut vec![(); workers], 10, |(), i| {
                    assert!(i != 6, "job 6 fails");
                    i
                })
            });
            assert!(caught.is_err(), "workers = {workers} swallowed the panic");
        }
    }

    #[test]
    fn a_frontier_runs_promoted_keys_first_and_no_key_twice() {
        let mut frontier = Frontier::new();
        let mut filler = [1, 2, 3, 4, 5, 6].into_iter();
        frontier.promote(9);
        frontier.promote(4);
        frontier.promote(9);
        // Promoted keys in promotion order, the repeat dropped, then filler.
        assert_eq!(frontier.round(3, || filler.next()), vec![9, 4, 1]);
        // 1 has run: promoting it again schedules nothing, and the filler's
        // 4 is skipped because it ran as a promoted key.
        frontier.promote(1);
        frontier.promote(7);
        assert_eq!(frontier.round(3, || filler.next()), vec![7, 2, 3]);
        // Both sources run dry: a short round, then an empty one.
        assert_eq!(frontier.round(4, || filler.next()), vec![5, 6]);
        assert_eq!(frontier.round(4, || filler.next()), Vec::<i32>::new());
    }

    #[test]
    fn shards_cover_the_space_in_canonical_order() {
        let spec = CampaignSpec {
            chunk_size: 3,
            ..CampaignSpec::default()
        };
        let shards = build_shards(10, &spec);
        // 8 plans x 3 formats x ceil(10 / 3) chunks.
        assert_eq!(shards.len(), 8 * 3 * 4);
        let mut prev = (0, 0);
        let mut covered = 0;
        for s in &shards {
            assert!((s.experiment_idx, s.lo) >= (prev.0, 0));
            prev = (s.experiment_idx, s.lo);
            assert!(s.lo < s.hi && s.hi <= 10);
            covered += s.hi - s.lo;
        }
        assert_eq!(covered, 8 * 3 * 10);
    }

    #[test]
    fn worker_count_and_chunk_size_do_not_change_the_outcome() {
        let inputs = small_inputs();
        let serial = run_cross_test(&CampaignSpec::default(), &inputs, None);
        let metrics = serial.metrics.as_ref().expect("grid metrics");
        assert_eq!(metrics.workers, 1);
        assert_eq!(metrics.per_worker.len(), 1);
        for (shards, chunk_size) in [(1, 2), (3, 2), (2, 1)] {
            let spec = CampaignSpec {
                shards,
                chunk_size,
                ..CampaignSpec::default()
            };
            let out = run_cross_test(&spec, &inputs, None);
            assert_eq!(out.observations, serial.observations);
            assert_eq!(out.report, serial.report);
            let metrics = out.metrics.expect("grid metrics");
            assert_eq!(metrics.workers, shards);
            assert_eq!(metrics.observations, serial.observations.len());
            let by_worker: usize = metrics.per_worker.iter().map(|w| w.observations).sum();
            assert_eq!(by_worker, serial.observations.len());
        }
    }

    #[test]
    fn metrics_are_serializable_to_json() {
        let inputs = small_inputs();
        let spec = CampaignSpec {
            shards: 2,
            chunk_size: 2,
            ..CampaignSpec::default()
        };
        let out = run_cross_test(&spec, &inputs, None);
        let json = serde_json::to_string(&out.metrics).expect("metrics serialize");
        assert!(json.contains("\"observations_per_sec\""));
        assert!(json.contains("\"per_worker\""));
    }
}
