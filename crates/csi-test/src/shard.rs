//! The one executor: an ordered worker pool, and the cross-test grid on it.
//!
//! `run_merging` (and `run_ordered`, its collecting form) is the only
//! place the harness spawns threads. Every [`crate::Campaign`] mode hands
//! it `n` independent jobs — grid shards here, fault-matrix cells in
//! [`crate::inject`], explore rounds in [`crate::explore`], compound
//! trials in [`crate::multi`] — and the calling thread gets the results
//! in index order, whatever worker ran them, each as soon as every one
//! before it has landed. The caller owns one state per worker, so a
//! worker's deployment serves every run it makes for the whole campaign,
//! across rounds, and faults are armed per run, not per deployment.
//! Serial is one worker state: the same closure, inline on the calling
//! thread, each job merged before the next runs. The two
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
//!   calling thread takes the shards in canonical (experiment, plan,
//!   format, input-id) order as they land and hands each observation to
//!   the one `classify::Classifier`, sealing each experiment as the walk
//!   leaves it, so failures are produced in the same order and the
//!   [`DiscrepancyReport`] is byte-identical at any worker count. With
//!   two or more workers the merge runs while they run. A one-worker grid
//!   large enough to pay for the threads (`OVERLAP_OBSERVATIONS`), on a
//!   host with two cores, runs on two workers, so both cores execute
//!   while the calling thread merges; a smaller one runs inline, each
//!   shard merged before the next runs. Only the judge's tail,
//!   `Classifier::finish`, runs after the last shard.
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
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::Instant;

/// Runs `job(state, i)` for every `i` in `0..n` on one thread per worker
/// state, and returns the results in index order: [`run_merging`],
/// collecting. One state runs the jobs inline on the calling thread.
pub(crate) fn run_ordered<S: Send, T: Send>(
    workers: &mut [S],
    n: usize,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let mut results = Vec::with_capacity(n);
    run_merging(workers, n, job, |_, result| results.push(result));
    results
}

/// The one executor: runs `job(state, i)` for every `i` in `0..n` on one
/// thread per worker state, and hands each result to `merge(i, result)`
/// on the calling thread, in index order, as soon as it and every result
/// before it have landed.
///
/// Workers claim indices off a bump counter, so the indices any one
/// worker sees are strictly increasing; a result that lands ahead of its
/// turn waits on the calling thread until the ones before it have been
/// merged. The caller owns the states, so a state (a deployment, a
/// worker's statistics) outlives the call. Only the first `n` states are
/// used. One state runs inline on the calling thread, each job followed
/// by its merge, with no spawn. `workers` must not be empty while
/// `n > 0`. A panicking job panics the caller either way, with the job's
/// own payload.
pub(crate) fn run_merging<S: Send, T: Send>(
    workers: &mut [S],
    n: usize,
    job: impl Fn(&mut S, usize) -> T + Sync,
    mut merge: impl FnMut(usize, T),
) {
    let used = n.min(workers.len());
    let workers = &mut workers[..used];
    if let [state] = workers {
        for i in 0..n {
            merge(i, job(state, i));
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let (landed, results) = mpsc::channel();
    // The stacks the workers build, handed to the calling thread's record.
    #[cfg(test)]
    let built = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let threads: Vec<_> = workers
            .iter_mut()
            .map(|state| {
                let (next, job, landed) = (&next, &job, landed.clone());
                #[cfg(test)]
                let built = &built;
                scope.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        // A caller that stopped merging (it panicked) stops
                        // the workers at their next job.
                        if i >= n || landed.send((i, job(state, i))).is_err() {
                            break;
                        }
                    }
                    #[cfg(test)]
                    crate::exec::BUILT.with(|mine| built.lock().unwrap().extend(mine.take()));
                })
            })
            .collect();
        drop(landed);
        let mut early = BTreeMap::new();
        let mut due = 0;
        for (i, result) in results {
            early.insert(i, result);
            while let Some(result) = early.remove(&due) {
                merge(due, result);
                due += 1;
            }
        }
        for thread in threads {
            thread.join().unwrap_or_else(|p| panic::resume_unwind(p));
        }
        assert_eq!(due, n, "every index was claimed");
    });
    #[cfg(test)]
    crate::exec::BUILT.with(|mine| mine.borrow_mut().extend(built.into_inner().unwrap()));
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
    /// The merge is not `busy`: a worker inline on the calling thread
    /// merges between its shards, and reads below one by that much; a
    /// worker on a thread of its own reads below one by its start, its
    /// hand-offs, and the merge that runs on after its last shard.
    pub utilization: f64,
}

/// Wall-time and throughput metrics for one cross-test campaign.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignMetrics {
    /// Workers in the pool: the campaign's `shards`, or two for a
    /// one-worker grid of 4,096 or more observations on a two-core host;
    /// never more than there are shards.
    pub workers: usize,
    /// Work units the campaign was sharded into.
    pub shards: usize,
    /// Total observations recorded.
    pub observations: usize,
    /// Wall time of the execute phase, in microseconds: until the last
    /// shard has run and been merged. The merge's per-observation oracles
    /// and each experiment's differential run in it, on the calling
    /// thread beside the workers or between an inline worker's shards; a
    /// detecting, faulted grid's fault-free twin runs are part of it.
    pub execute_micros: u64,
    /// Wall time of the judge's tail after the execute phase
    /// (attribution, the report and its findings), in microseconds.
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

/// Grid observations from which a one-worker grid, on a host with two
/// cores, runs on two workers while the calling thread classifies. The
/// second worker costs a fixed amount (a second deployment, two starts
/// and joins, a hand-off per shard), and a small grid alone on a two-core
/// host reads slower for it. `serve` runs grids of 64 and 1,024
/// observations on two daemon workers that already keep both cores busy,
/// where more threads only contend: both stay inline here, and the §8
/// campaign's 10,128 run on two workers (EXPERIMENTS.md, "The §8 grid
/// executes on both cores").
const OVERLAP_OBSERVATIONS: usize = 4_096;

/// Whether the host runs two threads at once; asked once per process
/// (the answer reads the scheduler's affinity and cgroup limits).
pub(crate) fn two_cores() -> bool {
    static TWO: OnceLock<bool> = OnceLock::new();
    *TWO.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2))
}

/// Runs `spec`'s grid over `inputs` on `spec.shards` workers (`0` and `1`
/// both mean one) with at most `spec.chunk_size` inputs per shard, and
/// merges the shard results in canonical order on the calling thread as
/// they land: the executor behind every grid [`crate::Campaign`].
/// Observations, failure ordering, and the classified report are the
/// same at any worker count and chunk size; see the module docs for how
/// the merge guarantees this.
///
/// One worker runs on the calling thread, between merges, unless the
/// grid has [`OVERLAP_OBSERVATIONS`] or more observations and the host
/// two cores: then the grid runs on two workers while the calling
/// thread merges. Two or more workers always run beside the merging
/// caller.
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
    run_grid(spec, inputs, tap, OVERLAP_OBSERVATIONS)
}

/// [`run_cross_test`], with a one-worker grid run on two workers from
/// `overlap_from` observations on.
pub(crate) fn run_grid(
    spec: &CampaignSpec,
    inputs: &[TestInput],
    tap: Option<DetectionTap>,
    overlap_from: usize,
) -> CampaignOutcome {
    let detector = spec.detect.then(|| DetectorSpec {
        config: spec.detector_config,
        tap,
    });
    let faults = spec.faults.as_ref().map_or(&[][..], |plan| &plan.faults);
    let campaign_started = Instant::now();
    let shards = build_shards(inputs.len(), spec);
    let observations: usize = shards.iter().map(|shard| shard.hi - shard.lo).sum();
    let pool = match spec.shards.max(1) {
        1 if observations >= overlap_from && two_cores() => 2,
        asked => asked,
    };
    let mut workers: Vec<GridWorker> = worker_states(pool.min(shards.len()));

    // Deterministic merge: results reach the merge in canonical shard
    // order, so it hands the classifier the grid's observation sequence —
    // each experiment sealed as the walk leaves it — and the report is the
    // same at any worker count.
    let mut judge = Classifier::new(&spec.experiments);
    let job = |worker: &mut GridWorker, i: usize| {
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
    };
    run_merging(&mut workers, shards.len(), job, |i, batch| {
        let shard = &shards[i];
        for (input, obs) in inputs[shard.lo..shard.hi].iter().zip(batch) {
            judge.absorb(shard.experiment_idx, input, obs);
        }
        let next = shards.get(i + 1).map(|next| next.experiment_idx);
        if next != Some(shard.experiment_idx) {
            judge.seal(shard.experiment_idx);
        }
    });

    let execute_micros = campaign_started.elapsed().as_micros() as u64;
    // The deployments go before the judge's tail, which never needs them.
    let per_worker: Vec<WorkerStats> = workers
        .into_iter()
        .enumerate()
        .map(|(worker, w)| WorkerStats {
            worker,
            utilization: w.stats.busy_micros as f64 / execute_micros.max(1) as f64,
            ..w.stats
        })
        .collect();
    let finish_started = Instant::now();
    let outcome = judge.finish(inputs, detector.is_some());

    let oracle_micros = finish_started.elapsed().as_micros() as u64;
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
    use crate::Campaign;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The merge sees `0..n` in order, each index once, whichever
        /// worker ran it.
        #[test]
        fn run_merging_hands_the_caller_every_index_in_order(
            n in 0usize..200,
            workers in 1usize..=8,
        ) {
            let mut seen = Vec::new();
            run_merging(&mut vec![(); workers], n, |(), i| i * 3, |i, result| {
                seen.push(i);
                assert_eq!(result, i * 3, "the result of job {i}");
            });
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_job_panics_the_caller_inline_and_threaded() {
        for workers in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                run_merging(
                    &mut vec![(); workers],
                    10,
                    |(), i| {
                        assert!(i != 6, "job 6 fails");
                        i
                    },
                    |_, _| {},
                )
            });
            let payload = caught.expect_err("the caller swallowed the panic");
            // The job's own message, not the scope's.
            let message = payload.downcast_ref::<&str>().copied();
            assert_eq!(message, Some("job 6 fails"), "workers = {workers}");
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

    /// A one-worker grid forced onto two workers writes the inline run's
    /// observations, report and rendering, plain and faulted under the
    /// detector.
    #[test]
    fn the_two_worker_grid_is_the_inline_grid() {
        let inputs = small_inputs();
        let faulted = CampaignSpec {
            faults: Some(crate::inject::small_fault_catalogue(7)),
            detect: true,
            ..CampaignSpec::default()
        };
        for spec in [CampaignSpec::default(), faulted] {
            let inline = run_grid(&spec, &inputs, None, usize::MAX);
            assert_eq!(inline.metrics.as_ref().expect("grid metrics").workers, 1);
            let two = run_grid(&spec, &inputs, None, 0);
            assert_eq!(two.observations, inline.observations);
            assert_eq!(two.report, inline.report);
            assert_eq!(two.render(), inline.render());
            let metrics = two.metrics.expect("grid metrics");
            assert_eq!(metrics.workers, 1 + usize::from(two_cores()));
            let by_worker: usize = metrics.per_worker.iter().map(|w| w.observations).sum();
            assert_eq!(by_worker, inline.observations.len());
        }
    }

    /// The full catalogue runs on two workers; `serve`'s two grid shapes,
    /// 64 and 4 inputs over two formats, stay inline on one.
    #[test]
    fn only_a_large_grid_overlaps() {
        let full = Campaign::new(&crate::generate_inputs()).run();
        assert_eq!(full.observations.len(), 10_128);
        let workers =
            |outcome: &CampaignOutcome| outcome.metrics.as_ref().expect("grid metrics").workers;
        assert_eq!(workers(&full), 1 + usize::from(two_cores()));
        for prefix in [64, 4] {
            let spec = CampaignSpec {
                inputs: crate::spec::InputSelection::CataloguePrefix(prefix),
                formats: vec![StorageFormat::Orc, StorageFormat::Parquet],
                ..CampaignSpec::default()
            };
            let outcome = Campaign::from_spec(spec).expect("a valid spec").run();
            assert_eq!(outcome.observations.len(), prefix * 16);
            assert_eq!(workers(&outcome), 1, "{prefix} inputs");
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
