//! The one executor: an ordered worker pool, and the cross-test grid on it.
//!
//! `run_ordered` is the only place the harness spawns threads. Every
//! [`crate::Campaign`] mode hands it `n` independent jobs — grid shards
//! here, fault-matrix cells in [`crate::inject`], explore rounds in
//! [`crate::explore`], compound trials in [`crate::multi`] — and gets the
//! results back in index order, whatever worker ran them. Serial is
//! `workers = 1`: the same closure, inline on the calling thread.
//!
//! The cross-test grid (`run_cross_test`) shards the (experiment, plan,
//! format, input) space into (experiment, plan, format, input-chunk) work
//! units:
//!
//! - **One deployment per worker per experiment** — a worker builds a
//!   Metastore/MiniHdfs/SparkSession/HiveQl stack for one experiment and
//!   no other. Shard indices are claimed in increasing order and shards
//!   are experiment-major, so when a worker first claims a shard of the
//!   next experiment it is done with the previous one: it drops that
//!   stack and builds the next.
//! - **Deterministic merge** — workers only *record* observations. The
//!   merger walks the shards in canonical (experiment, plan, format,
//!   input-id) order and hands each observation to the one
//!   `classify::Classifier`, so failures are produced in the same order
//!   and the [`DiscrepancyReport`] is byte-identical at any worker count.
//! - **Campaign metrics** — observations/sec, per-phase wall time, and
//!   per-worker utilization are surfaced in [`CampaignMetrics`].
//!
//! [`DiscrepancyReport`]: csi_core::report::DiscrepancyReport

use crate::classify::Classifier;
use crate::exec::{run_one, CrossTestConfig, Deployment};
use crate::generator::TestInput;
use crate::plan::{Experiment, TestPlan};
use csi_core::oracle::Observation;
use csi_core::report::DiscrepancyReport;
use minihive::metastore::StorageFormat;
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Runs `job(state, i)` for every `i` in `0..n` on up to `workers`
/// threads and returns the results in index order.
///
/// Workers claim indices off a bump counter, so the indices any one
/// worker sees are strictly increasing; each result lands in its own
/// slot, so no worker waits on another to store one. Every worker builds
/// its private `state` with `init_worker_state` (called at most `workers`
/// times) and drops it when the indices run out. `workers` is clamped to
/// `1..=n`; one worker runs the closures inline on the calling thread,
/// with no spawn. A panicking job panics the caller either way.
pub(crate) fn run_ordered<S, T: Send>(
    workers: usize,
    n: usize,
    init_worker_state: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        let mut state = init_worker_state();
        return (0..n).map(|i| job(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init_worker_state();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = job(&mut state, i);
                    *slots[i].lock() = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index was claimed"))
        .collect()
}

/// Execution statistics for one worker of the pool.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerStats {
    /// Worker index within the pool, in the order workers finished.
    pub worker: usize,
    /// Shards this worker executed.
    pub shards: usize,
    /// Observations this worker recorded.
    pub observations: usize,
    /// Time spent executing shards, in microseconds.
    pub busy_micros: u64,
    /// `busy` as a fraction of the worker's lifetime (0.0–1.0).
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
    /// Wall time of the execute phase, in microseconds.
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

/// The result of [`run_cross_test`].
pub(crate) struct CrossTestRun {
    /// The deduplicated discrepancy report.
    pub report: DiscrepancyReport,
    /// Every observation, tagged with its experiment, in canonical order.
    pub observations: Vec<(Experiment, Observation)>,
    /// Throughput and utilization metrics.
    pub metrics: CampaignMetrics,
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

/// Enumerates shards in the canonical nesting order: experiment, then
/// plan, then format, then input chunks.
fn build_shards(inputs_len: usize, config: &CrossTestConfig, chunk_size: usize) -> Vec<Shard> {
    let mut shards = Vec::new();
    for (experiment_idx, &experiment) in config.experiments.iter().enumerate() {
        for plan in experiment.plans() {
            for &format in &config.formats {
                let mut lo = 0;
                while lo < inputs_len {
                    let hi = (lo + chunk_size).min(inputs_len);
                    shards.push(Shard {
                        experiment_idx,
                        experiment,
                        plan,
                        format,
                        lo,
                        hi,
                    });
                    lo = hi;
                }
            }
        }
    }
    shards
}

/// One worker's private state on the grid: the deployment it currently
/// holds and its share of the campaign metrics. Dropping it drops the
/// deployment and files the worker's [`WorkerStats`].
struct GridWorker<'a> {
    config: &'a CrossTestConfig,
    stats: &'a Mutex<Vec<WorkerStats>>,
    started: Instant,
    /// The held deployment and the index of the experiment it serves.
    deployment: Option<(usize, Deployment)>,
    shards: usize,
    observations: usize,
    busy_micros: u64,
}

impl GridWorker<'_> {
    /// The deployment for `experiment_idx`, replacing the one held for an
    /// earlier experiment: claimed shard indices only grow, so this worker
    /// will not see that experiment again.
    fn deployment_for(&mut self, experiment_idx: usize) -> &Deployment {
        if !matches!(self.deployment, Some((held, _)) if held == experiment_idx) {
            self.deployment = Some((experiment_idx, Deployment::armed(self.config)));
        }
        &self.deployment.as_ref().expect("just built").1
    }
}

impl Drop for GridWorker<'_> {
    fn drop(&mut self) {
        let lifetime_micros = self.started.elapsed().as_micros().max(1) as u64;
        let mut stats = self.stats.lock();
        let worker = stats.len();
        stats.push(WorkerStats {
            worker,
            shards: self.shards,
            observations: self.observations,
            busy_micros: self.busy_micros,
            utilization: self.busy_micros as f64 / lifetime_micros as f64,
        });
    }
}

/// Runs the full cross-test on `workers` workers (`0` and `1` both mean
/// one: the calling thread) with at most `chunk_size` inputs per shard,
/// and merges the shard results in canonical order — the executor behind
/// every cross-test [`crate::Campaign`]. Observations, failure ordering,
/// and the classified report are the same at any worker count and chunk
/// size; see the module docs for how the merge guarantees this.
pub(crate) fn run_cross_test(
    inputs: &[TestInput],
    config: &CrossTestConfig,
    workers: usize,
    chunk_size: usize,
) -> CrossTestRun {
    let campaign_started = Instant::now();
    let shards = build_shards(inputs.len(), config, chunk_size.max(1));
    let workers = workers.clamp(1, shards.len().max(1));
    let stats: Mutex<Vec<WorkerStats>> = Mutex::new(Vec::with_capacity(workers));

    let batches: Vec<Vec<Observation>> = run_ordered(
        workers,
        shards.len(),
        || GridWorker {
            config,
            stats: &stats,
            started: Instant::now(),
            deployment: None,
            shards: 0,
            observations: 0,
            busy_micros: 0,
        },
        |worker, i| {
            let shard = &shards[i];
            let shard_started = Instant::now();
            let deployment = worker.deployment_for(shard.experiment_idx);
            let batch: Vec<Observation> = inputs[shard.lo..shard.hi]
                .iter()
                .map(|input| {
                    run_one(
                        deployment,
                        shard.experiment,
                        shard.plan,
                        shard.format,
                        input,
                        true,
                    )
                })
                .collect();
            worker.shards += 1;
            worker.observations += batch.len();
            worker.busy_micros += shard_started.elapsed().as_micros() as u64;
            batch
        },
    );

    let execute_micros = campaign_started.elapsed().as_micros() as u64;
    let merge_started = Instant::now();

    // Deterministic merge: batch order is canonical shard order, so walking
    // the batches hands the classifier the grid's observation sequence —
    // each experiment sealed as the walk leaves it — and the report is the
    // same at any worker count.
    let mut judge = Classifier::new(&config.experiments);
    for (i, (shard, batch)) in shards.iter().zip(batches).enumerate() {
        for (input, obs) in inputs[shard.lo..shard.hi].iter().zip(batch) {
            judge.absorb(shard.experiment_idx, input, obs);
        }
        let next = shards.get(i + 1).map(|next| next.experiment_idx);
        if next != Some(shard.experiment_idx) {
            judge.seal(shard.experiment_idx);
        }
    }
    let (report, observations) = judge.finish(inputs, config.detector.is_some());

    let oracle_micros = merge_started.elapsed().as_micros() as u64;
    let total_micros = campaign_started.elapsed().as_micros() as u64;
    let metrics = CampaignMetrics {
        workers,
        shards: shards.len(),
        observations: observations.len(),
        execute_micros,
        oracle_micros,
        total_micros,
        observations_per_sec: observations.len() as f64
            / (execute_micros.max(1) as f64 / 1_000_000.0),
        per_worker: stats.into_inner(),
    };
    CrossTestRun {
        report,
        observations,
        metrics,
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

        /// Any worker count gives the plain serial `map`, and no more
        /// worker states are built than workers asked for.
        #[test]
        fn run_ordered_equals_the_serial_map(n in 0usize..200, workers in 1usize..8) {
            let inits = AtomicUsize::new(0);
            let out = run_ordered(
                workers,
                n,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |claimed, i| {
                    // Private state persists across one worker's jobs.
                    *claimed += 1;
                    assert!(*claimed <= n);
                    i * i + 1
                },
            );
            prop_assert_eq!(out, (0..n).map(|i| i * i + 1).collect::<Vec<_>>());
            let inits = inits.into_inner();
            prop_assert!((1..=workers).contains(&inits), "{} inits", inits);
        }
    }

    #[test]
    fn run_ordered_with_one_worker_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_ordered(1, 5, || (), |(), _| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
        // More workers than jobs clamps: one job is one inline worker.
        let ids = run_ordered(8, 1, || (), |(), _| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn a_panicking_job_panics_the_caller_inline_and_threaded() {
        for workers in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                run_ordered(
                    workers,
                    10,
                    || (),
                    |(), i| {
                        assert!(i != 6, "job 6 fails");
                        i
                    },
                )
            });
            assert!(caught.is_err(), "workers = {workers} swallowed the panic");
        }
    }

    #[test]
    fn shards_cover_the_space_in_canonical_order() {
        let config = CrossTestConfig::default();
        let shards = build_shards(10, &config, 3);
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
        let config = CrossTestConfig::default();
        let serial = run_cross_test(&inputs, &config, 1, 64);
        assert_eq!(serial.metrics.workers, 1);
        assert_eq!(serial.metrics.per_worker.len(), 1);
        for (workers, chunk_size) in [(1, 2), (3, 2), (2, 1)] {
            let out = run_cross_test(&inputs, &config, workers, chunk_size);
            assert_eq!(out.observations, serial.observations);
            assert_eq!(out.report, serial.report);
            assert_eq!(out.metrics.workers, workers);
            assert_eq!(out.metrics.observations, serial.observations.len());
            let by_worker: usize = out.metrics.per_worker.iter().map(|w| w.observations).sum();
            assert_eq!(by_worker, serial.observations.len());
        }
    }

    #[test]
    fn metrics_are_serializable_to_json() {
        let inputs = small_inputs();
        let out = run_cross_test(&inputs, &CrossTestConfig::default(), 2, 2);
        let json = serde_json::to_string(&out.metrics).expect("metrics serialize");
        assert!(json.contains("\"observations_per_sec\""));
        assert!(json.contains("\"per_worker\""));
    }
}
