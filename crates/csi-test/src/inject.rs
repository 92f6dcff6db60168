//! The fault-matrix campaign: deterministic boundary-fault injection
//! crossed with the cross-testing space.
//!
//! Every fault of a [`FaultPlan`] is exercised against the scenarios that
//! exist for its channel — metastore and HDFS faults against the full
//! (experiment × plan × format) probe cross of the campaign executor,
//! Kafka faults against the broker API directly and through Spark's Kafka
//! connector, YARN faults against the Flink driver loop (FLINK-12342's
//! home) and Spark's cluster-metrics connector, HBase faults against the
//! location-caching key-value client under both retry policies
//! (HBASE-16621's home) — and the caller-visible
//! result of each cell is classified with
//! [`classify_fault_outcome`] into the paper's error-handling taxonomy:
//! swallowed, mistranslated, propagated-with-context, or crash.
//!
//! A cell's body arms its fault for its one run. Probe cells run on their
//! worker's one deployment, in the spec's Spark configuration, which
//! every observation leaves as it found it; Kafka, YARN and HBase cells
//! build their broker, RM or client and a fresh crossing context per run.
//! Cells are hermetic either way, so [`crate::Campaign::shards`]
//! reproduces the one-worker report byte-for-byte at any worker count.

use crate::campaign::{crack, is_finding, CampaignOutcome, Evidence, Finding};
use crate::exec::{run_one, Deployment};
use crate::generator::{TestInput, Validity};
use crate::plan::{self, scenario_key, Experiment, TestPlan};
use crate::shard::{run_ordered, worker_states};
use crate::spec::CampaignSpec;
use csi_core::boundary::{faulted, CrossingContext, InteractionTrace};
use csi_core::detect::{DetectionTally, DetectionTap, DetectorSpec};
use csi_core::fault::{
    classify_fault_outcome, Channel, FaultKind, FaultPlan, FaultSpec, InjectedFault, Trigger,
};
use csi_core::report::DiscrepancyReport;
pub use csi_core::report::{FaultCase, FaultMatrixReport};
use csi_core::rng::xorshift64;
use csi_core::value::{DataType, Value};
use csi_core::InteractionError;
use miniflink::yarn_driver::{run_driver_traced, DriverMode, DriverRun};
use minihbase::{ClusterState, HBaseClient, RetryPolicy, ServerId};
use minihive::metastore::StorageFormat;
use minikafka::{KafkaError, MiniKafka, PartitionId};
use minispark::connectors::kafka::{consume_range, plan_range, OffsetModel};
use miniyarn::{Resource, ResourceManager};
use std::collections::BTreeMap;

const KAFKA_TOPIC: &str = "t";
const P0: PartitionId = PartitionId(0);

fn spec(id: &str, channel: Channel, op: &str, kind: FaultKind, trigger: Trigger) -> FaultSpec {
    FaultSpec {
        id: id.to_string(),
        channel,
        op: op.to_string(),
        kind,
        trigger,
    }
}

/// The standard boundary-fault catalogue: at least one fault per
/// interaction channel, with timeout and latency magnitudes derived
/// deterministically from `seed`.
pub fn fault_catalogue(seed: u64) -> FaultPlan {
    let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
    let ms_timeout = 10_000 + xorshift64(&mut s) % 20_000;
    let hdfs_timeout = 5_000 + xorshift64(&mut s) % 10_000;
    let kafka_timeout = 30_000 + xorshift64(&mut s) % 30_000;
    // FLINK-12342 regime: injected allocation latency must exceed the
    // driver's 500 ms heartbeat interval.
    let yarn_latency = 600 + xorshift64(&mut s) % 400;
    FaultPlan {
        seed,
        faults: vec![
            spec(
                "ms-unavail-get",
                Channel::Metastore,
                "get_table",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "ms-timeout-create",
                Channel::Metastore,
                "create_table",
                FaultKind::Timeout { ms: ms_timeout },
                Trigger::Always,
            ),
            spec(
                "ms-corrupt-get",
                Channel::Metastore,
                "get_table",
                FaultKind::CorruptPayload,
                Trigger::OnCall(0),
            ),
            spec(
                "hdfs-unavail-create",
                Channel::Hdfs,
                "create",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "hdfs-timeout-read",
                Channel::Hdfs,
                "read",
                FaultKind::Timeout { ms: hdfs_timeout },
                Trigger::Always,
            ),
            spec(
                "hdfs-corrupt-read",
                Channel::Hdfs,
                "read",
                FaultKind::CorruptPayload,
                Trigger::OnCall(0),
            ),
            spec(
                "kafka-unavail-fetch",
                Channel::Kafka,
                "fetch",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "kafka-timeout-ends",
                Channel::Kafka,
                "log_end_offset",
                FaultKind::Timeout { ms: kafka_timeout },
                Trigger::Always,
            ),
            spec(
                "kafka-corrupt-fetch",
                Channel::Kafka,
                "fetch",
                FaultKind::CorruptPayload,
                Trigger::OnCall(0),
            ),
            spec(
                "kafka-unavail-produce",
                Channel::Kafka,
                "produce",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "yarn-latency-alloc",
                Channel::Yarn,
                "allocate",
                FaultKind::Latency { ms: yarn_latency },
                Trigger::Always,
            ),
            spec(
                "yarn-unavail-alloc",
                Channel::Yarn,
                "allocate",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "yarn-unavail-metrics",
                Channel::Yarn,
                "get_cluster_metrics",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "yarn-swallow-ask",
                Channel::Yarn,
                "add_container_request",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "hbase-unavail-route",
                Channel::HBase,
                "route",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            // HBASE-16621's shape: the first location lookup is poisoned,
            // so the cached entry points at a server that never served the
            // region; whether that surfaces depends on the retry policy.
            spec(
                "hbase-stale-locate",
                Channel::HBase,
                "locate",
                FaultKind::CorruptPayload,
                Trigger::OnCall(0),
            ),
        ],
    }
}

/// The faults of [`fault_catalogue`]`(seed)` that can fire inside a
/// cross-testing deployment: its metastore and filesystem faults. The
/// rest of the catalogue targets stacks a deployment never builds.
pub(crate) fn deployment_faults(seed: u64) -> Vec<FaultSpec> {
    let mut faults = fault_catalogue(seed).faults;
    faults.retain(|f| matches!(f.channel, Channel::Metastore | Channel::Hdfs));
    faults
}

/// A small smoke-test subset of [`fault_catalogue`]: one cheap fault per
/// channel, for CI and property tests.
pub fn small_fault_catalogue(seed: u64) -> FaultPlan {
    let full = fault_catalogue(seed);
    let keep = [
        "ms-unavail-get",
        "hdfs-corrupt-read",
        "kafka-unavail-fetch",
        "yarn-unavail-alloc",
        "hbase-unavail-route",
    ];
    FaultPlan {
        seed,
        faults: full
            .faults
            .into_iter()
            .filter(|f| keep.contains(&f.id.as_str()))
            .collect(),
    }
}

/// A unit of fault-matrix work. Cells are hermetic: running one never
/// observes state from another, which is what makes the merge-by-index
/// byte-identical at any worker count.
#[derive(Debug, Clone)]
enum Cell {
    /// One (experiment, plan, format) probe observation under a single
    /// armed fault.
    Probe {
        fault: FaultSpec,
        experiment: Experiment,
        plan: TestPlan,
        format: StorageFormat,
    },
    /// Direct broker API calls (produce, log_end_offset, fetch).
    KafkaDirect { fault: FaultSpec },
    /// Spark's Kafka source connector (plan + consume).
    KafkaConnector { fault: FaultSpec },
    /// The Flink YARN driver heartbeat loop.
    YarnDriver { fault: FaultSpec },
    /// Spark's YARN cluster-metrics connector.
    YarnMetrics { fault: FaultSpec },
    /// The HBase location-caching client under one retry policy.
    HBaseRoute {
        fault: FaultSpec,
        policy: RetryPolicy,
    },
}

/// The matrix's cells: every fault of `faults` crossed with the
/// scenarios of its channel, metastore and HDFS faults probing `spec`'s
/// (experiment × plan × format) cross.
fn enumerate_cells(spec: &CampaignSpec, faults: &FaultPlan) -> Vec<Cell> {
    let mut cells = Vec::new();
    for fault in &faults.faults {
        match fault.channel {
            Channel::Metastore | Channel::Hdfs => {
                cells.extend(plan::cells(&spec.experiments, &spec.formats).map(
                    |(_, experiment, plan, format)| Cell::Probe {
                        fault: fault.clone(),
                        experiment,
                        plan,
                        format,
                    },
                ));
            }
            Channel::Kafka => {
                cells.push(Cell::KafkaDirect {
                    fault: fault.clone(),
                });
                // Produce faults have no path through the (read-side)
                // Spark connector.
                if fault.op != "produce" {
                    cells.push(Cell::KafkaConnector {
                        fault: fault.clone(),
                    });
                }
            }
            Channel::Yarn => {
                if fault.op == "get_cluster_metrics" {
                    cells.push(Cell::YarnMetrics {
                        fault: fault.clone(),
                    });
                } else {
                    cells.push(Cell::YarnDriver {
                        fault: fault.clone(),
                    });
                }
            }
            Channel::HBase => {
                for policy in [RetryPolicy::TrustCache, RetryPolicy::RefreshAndRetry] {
                    cells.push(Cell::HBaseRoute {
                        fault: fault.clone(),
                        policy,
                    });
                }
            }
        }
    }
    cells
}

pub(crate) fn probe_input() -> TestInput {
    TestInput {
        id: 0,
        column_type: DataType::Int,
        value: Value::Int(7),
        validity: Validity::Valid,
        label: "fault probe".into(),
        expected_back: None,
    }
}

/// Runs one hermetic cell body with `fault` armed and, given the matrix's
/// `detector`, judges it.
///
/// `body` arms the faults it is handed for its one run and returns what
/// surfaced, a detail line, and the run's trace. With detection on, the
/// body first runs with nothing armed, as the cell's fault-free twin,
/// then again with `fault` armed, and [`DetectorSpec::detect`] judges
/// the second trace against the twin's. Each run is hermetic — a probe
/// observation recycles its deployment, every other body builds its own
/// substrate and context — so the twin can never leak into the judged run,
/// the property that keeps sharded matrices byte-identical to serial ones.
fn run_cell_body<F>(
    fault: &FaultSpec,
    scenario: String,
    detector: Option<&DetectorSpec>,
    body: F,
) -> FaultCase
where
    F: Fn(&[FaultSpec]) -> (Option<InteractionError>, String, InteractionTrace),
{
    let baseline = detector.map(|detector| (detector, body(&[]).2));
    let (surfaced, detail, trace) = body(std::slice::from_ref(fault));
    let detections = match &baseline {
        Some((detector, baseline)) => {
            detector.detect(&scenario, &trace, baseline, surfaced.as_ref())
        }
        None => Vec::new(),
    };
    let fired: Vec<InjectedFault> = faulted(&trace.crossings)
        .map(|(_, fault)| fault.clone())
        .collect();
    let outcome = if fired.is_empty() {
        None
    } else {
        Some(classify_fault_outcome(&fired, surfaced.as_ref()))
    };
    FaultCase {
        fault: fault.clone(),
        scenario,
        fired,
        surfaced,
        outcome,
        detail,
        trace,
        detections,
    }
}

/// Runs a Kafka, YARN or HBase cell: `body` builds its broker, RM or
/// client around the context it is handed, a fresh one per run, armed
/// with that run's faults.
fn run_substrate_cell<F>(
    fault: &FaultSpec,
    scenario: String,
    detector: Option<&DetectorSpec>,
    body: F,
) -> FaultCase
where
    F: Fn(&CrossingContext) -> (Option<InteractionError>, String),
{
    run_cell_body(fault, scenario, detector, |faults| {
        let ctx = CrossingContext::new();
        ctx.rearm(faults);
        let (surfaced, detail) = body(&ctx);
        (surfaced, detail, ctx.trace())
    })
}

/// A probe cell, run on the worker's `deployment` (built on first use,
/// with `spark_overrides`).
fn run_probe_cell(
    fault: &FaultSpec,
    experiment: Experiment,
    plan: TestPlan,
    format: StorageFormat,
    deployment: &mut Option<Deployment>,
    spark_overrides: &[(String, String)],
    detector: Option<&DetectorSpec>,
) -> FaultCase {
    let scenario = scenario_key(&experiment.plan_label(plan), format.name(), None);
    let d =
        deployment.get_or_insert_with(|| Deployment::new(CrossingContext::new(), spark_overrides));
    run_cell_body(fault, scenario, detector, |faults| {
        let obs = run_one(d, experiment, plan, format, &probe_input(), faults);
        let detail = match (&obs.write.result, obs.read.as_ref().map(|r| &r.result)) {
            (Err(e), _) => format!("write failed: {}", e.signature()),
            (Ok(()), Some(Err(e))) => format!("read failed: {}", e.signature()),
            (Ok(()), Some(Ok(rows))) => format!("write+read ok ({} rows)", rows.len()),
            (Ok(()), None) => "write ok; read skipped".to_string(),
        };
        (obs.surfaced().cloned(), detail, obs.trace)
    })
}

/// A broker with 5 seeded records on `t`-0 wired to `ctx`, counters and
/// trace scoped to the scenario about to run.
fn seeded_broker(ctx: &CrossingContext) -> MiniKafka {
    let mut broker = MiniKafka::new();
    broker.create_topic(KAFKA_TOPIC, 1);
    for i in 0..5u8 {
        broker
            .produce(KAFKA_TOPIC, P0, Some(&[i]), Some(&[i]), u64::from(i))
            .expect("seeding an injection-free broker");
    }
    broker.set_crossing(ctx.clone());
    ctx.reset();
    broker
}

fn run_kafka_direct_cell(fault: &FaultSpec, detector: Option<&DetectorSpec>) -> FaultCase {
    run_substrate_cell(fault, "kafka:direct".to_string(), detector, |ctx| {
        let mut broker = seeded_broker(ctx);
        let result = (|| {
            broker.produce(KAFKA_TOPIC, P0, Some(b"k"), Some(b"v"), 5)?;
            broker.log_end_offset(KAFKA_TOPIC, P0)?;
            broker.fetch(KAFKA_TOPIC, P0, 0, usize::MAX)?;
            Ok::<(), KafkaError>(())
        })();
        let detail = match &result {
            Ok(()) => "produce+ends+fetch ok".to_string(),
            Err(e) => format!("broker call failed: {}", e.code()),
        };
        (result.err().map(InteractionError::from), detail)
    })
}

fn run_kafka_connector_cell(fault: &FaultSpec, detector: Option<&DetectorSpec>) -> FaultCase {
    run_substrate_cell(
        fault,
        "kafka:spark-connector".to_string(),
        detector,
        |ctx| {
            let broker = seeded_broker(ctx);
            let result = plan_range(&broker, KAFKA_TOPIC, P0, 0, ctx).and_then(|range| {
                consume_range(
                    &broker,
                    KAFKA_TOPIC,
                    P0,
                    range,
                    OffsetModel::TolerateGaps,
                    ctx,
                )
                .map(|records| records.len())
            });
            let detail = match &result {
                Ok(n) => format!("connector consumed {n} records"),
                Err(e) => format!("connector failed: {}", e.code()),
            };
            (result.err().map(InteractionError::from), detail)
        },
    )
}

fn run_yarn_driver_cell(fault: &FaultSpec, detector: Option<&DetectorSpec>) -> FaultCase {
    run_substrate_cell(fault, "yarn:flink-driver".to_string(), detector, |ctx| {
        // A small job in the no-storm regime on its own parameters: any
        // storm observed below is the injected fault's doing.
        let target = 20;
        let stats = run_driver_traced(
            DriverRun {
                mode: DriverMode::BuggySync,
                target,
                interval_ms: 500,
                alloc_service_ms: 1,
                start_latency_ms: 5,
                deadline_ms: 15_000,
            },
            Some(ctx.clone()),
        );
        let detail = format!(
            "driver: {} asks for target {target}, started {}, completed={}",
            stats.total_requested,
            stats.started,
            stats.completed_at.is_some()
        );
        (stats.error.map(InteractionError::from), detail)
    })
}

fn run_yarn_metrics_cell(fault: &FaultSpec, detector: Option<&DetectorSpec>) -> FaultCase {
    run_substrate_cell(fault, "yarn:spark-connector".to_string(), detector, |ctx| {
        let mut rm = ResourceManager::with_nodes(4, Resource::new(8192, 8));
        rm.set_crossing(ctx.clone());
        let result = minispark::connectors::yarn::cluster_metrics(&rm, ctx);
        let detail = match &result {
            Ok(m) => format!("metrics ok ({} node managers)", m.num_node_managers),
            Err(e) => format!("connector failed: {}", e.code()),
        };
        (result.err().map(InteractionError::from), detail)
    })
}

/// The HBASE-16621 scenario cell: a location-caching client routes one
/// request for a region under an armed fault, with the given retry
/// policy. A poisoned `locate` surfaces as `NotServingRegionException`
/// under [`RetryPolicy::TrustCache`] but is silently healed by
/// [`RetryPolicy::RefreshAndRetry`]'s clean re-lookup.
fn run_hbase_cell(
    fault: &FaultSpec,
    policy: RetryPolicy,
    detector: Option<&DetectorSpec>,
) -> FaultCase {
    let policy_name = match policy {
        RetryPolicy::TrustCache => "trust-cache",
        RetryPolicy::RefreshAndRetry => "refresh-retry",
    };
    let scenario = format!("hbase:kv-client({policy_name})");
    run_substrate_cell(fault, scenario, detector, |ctx| {
        let mut cluster = ClusterState::new();
        cluster.assign("t,region-0", ServerId(2));
        let mut client = HBaseClient::new();
        let result = client.route_with(&cluster, "t,region-0", policy, Some(ctx));
        let detail = match &result {
            Ok(s) => format!(
                "routed to server {} after {} master lookups",
                s.0,
                client.master_lookups()
            ),
            Err(e) => format!("route failed: {}", e.code()),
        };
        (result.err().map(InteractionError::from), detail)
    })
}

/// Runs `cell`; a probe cell runs on the worker's `deployment`, which
/// carries `spark_overrides`.
fn run_cell(
    cell: &Cell,
    deployment: &mut Option<Deployment>,
    spark_overrides: &[(String, String)],
    detector: Option<&DetectorSpec>,
) -> FaultCase {
    match cell {
        Cell::Probe {
            fault,
            experiment,
            plan,
            format,
        } => run_probe_cell(
            fault,
            *experiment,
            *plan,
            *format,
            deployment,
            spark_overrides,
            detector,
        ),
        Cell::KafkaDirect { fault } => run_kafka_direct_cell(fault, detector),
        Cell::KafkaConnector { fault } => run_kafka_connector_cell(fault, detector),
        Cell::YarnDriver { fault } => run_yarn_driver_cell(fault, detector),
        Cell::YarnMetrics { fault } => run_yarn_metrics_cell(fault, detector),
        Cell::HBaseRoute { fault, policy } => run_hbase_cell(fault, *policy, detector),
    }
}

/// The matrix runner behind [`crate::Campaign::fault_matrix`]: every cell
/// of `spec.faults` (or, without it, of [`fault_catalogue`] at
/// `spec.matrix_seed`) through [`run_ordered`] on `spec.shards` workers
/// (`0` and `1` both mean the calling thread), cases in canonical cell
/// order. Because every cell is hermetic, the report is byte-identical at
/// any worker count. With `spec.detect`, every cell is judged and its
/// detections handed to `tap`.
///
/// The outcome's report carries the matrix's detection aggregates, so the
/// one [`Render`](csi_core::report::Render) path shows them beside the
/// fault cells. A cell whose §9 bucket is swallowed, mistranslated or
/// crash is a finding, in cell order.
pub(crate) fn run_fault_matrix(spec: &CampaignSpec, tap: Option<DetectionTap>) -> CampaignOutcome {
    let seed = spec.matrix_seed.expect("matrix mode");
    let faults = spec.faults.clone().unwrap_or_else(|| fault_catalogue(seed));
    let detector = spec.detect.then(|| DetectorSpec {
        config: spec.detector_config,
        tap,
    });
    let cells = enumerate_cells(spec, &faults);
    // Each worker runs every probe cell it claims on its one deployment.
    let mut deployments: Vec<Option<Deployment>> = worker_states(spec.shards);
    let cases = run_ordered(&mut deployments, cells.len(), |d, i| {
        run_cell(&cells[i], d, &spec.spark_overrides, detector.as_ref())
    });
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    let mut tally = DetectionTally::default();
    let mut findings = Vec::new();
    for (at, case) in cases.iter().enumerate() {
        let key = case.outcome.map_or("unfired".into(), |o| o.to_string());
        *outcomes.entry(key).or_insert(0) += 1;
        if detector.is_some() {
            tally.record(&case.detections, &case.fired, case.surfaced.as_ref());
        }
        if case.outcome.is_some_and(is_finding) {
            findings.push(Finding {
                id: format!("{} x {}", case.fault.id, case.scenario),
                evidence: Evidence::Case(at),
                crack: crack(faulted(&case.trace.crossings)),
            });
        }
    }
    let report = DiscrepancyReport {
        detector_enabled: detector.is_some(),
        detection_kinds: tally.kinds.clone(),
        detection_totals: tally.totals.clone(),
        detector_agreement: tally.agreement,
        ..DiscrepancyReport::default()
    };
    let matrix = FaultMatrixReport {
        seed,
        detector_enabled: detector.is_some(),
        cases,
        outcomes,
        detection_kinds: tally.kinds,
        detection_totals: tally.totals,
        agreement: tally.agreement,
    };
    CampaignOutcome {
        report,
        matrix: Some(matrix),
        findings,
        ..CampaignOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use csi_core::boundary::channel_totals;
    use csi_core::fault::FaultOutcome;

    #[test]
    fn catalogue_covers_every_channel() {
        let plan = fault_catalogue(42);
        for channel in Channel::ALL {
            assert!(
                plan.faults.iter().any(|f| f.channel == channel),
                "no fault for {channel}"
            );
        }
        // Ids are unique.
        let mut ids: Vec<&str> = plan.faults.iter().map(|f| f.id.as_str()).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn catalogue_is_seed_deterministic_and_seed_sensitive() {
        assert_eq!(fault_catalogue(7), fault_catalogue(7));
        assert_ne!(fault_catalogue(7), fault_catalogue(8));
        // The small catalogue is a subset of the full one.
        let full = fault_catalogue(3);
        for f in &small_fault_catalogue(3).faults {
            assert!(full.faults.contains(f));
        }
    }

    #[test]
    fn metastore_fault_propagates_through_hiveql_but_not_spark() {
        let plan = fault_catalogue(1);
        let fault = plan
            .faults
            .iter()
            .find(|f| f.id == "ms-unavail-get")
            .unwrap();
        let report = Campaign::new(&[])
            .fault_matrix(1)
            .formats(vec![StorageFormat::Orc])
            .faults(FaultPlan {
                seed: 1,
                faults: vec![fault.clone()],
            })
            .run()
            .matrix
            .expect("matrix mode");
        let outcomes: Vec<&FaultOutcome> = report
            .cases
            .iter()
            .filter_map(|c| c.outcome.as_ref())
            .collect();
        assert!(!outcomes.is_empty());
        // HiveQL-written plans surface the native MetaException; Spark
        // plans collapse it into Analysis(HIVE_METASTORE) — the paper's
        // context-loss narrative, observable per cell.
        assert!(outcomes.contains(&&FaultOutcome::PropagatedWithContext));
        assert!(outcomes.contains(&&FaultOutcome::Mistranslated));
    }

    #[test]
    fn kafka_corruption_is_rejected_directly_but_mistranslated_by_spark() {
        let plan = fault_catalogue(1);
        let fault = plan
            .faults
            .iter()
            .find(|f| f.id == "kafka-corrupt-fetch")
            .unwrap();
        let direct = run_kafka_direct_cell(fault, None);
        assert_eq!(direct.outcome, Some(FaultOutcome::PropagatedWithContext));
        let connector = run_kafka_connector_cell(fault, None);
        assert_eq!(connector.outcome, Some(FaultOutcome::Mistranslated));
    }

    #[test]
    fn yarn_latency_is_swallowed_as_a_silent_storm() {
        let plan = fault_catalogue(1);
        let fault = plan
            .faults
            .iter()
            .find(|f| f.id == "yarn-latency-alloc")
            .unwrap();
        let case = run_yarn_driver_cell(fault, None);
        assert_eq!(case.outcome, Some(FaultOutcome::Swallowed));
        // The FLINK-12342 signature: far more asks than containers needed,
        // and no error anywhere.
        assert!(case.surfaced.is_none());
        assert!(
            case.detail.contains("asks for target 20"),
            "{}",
            case.detail
        );
        let asks: u64 = case
            .detail
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(asks > 60, "expected a storm, detail: {}", case.detail);
    }

    #[test]
    fn poisoned_hbase_locate_splits_on_retry_policy() {
        let plan = fault_catalogue(1);
        let fault = plan
            .faults
            .iter()
            .find(|f| f.id == "hbase-stale-locate")
            .unwrap();
        // Shipped policy: the poisoned location surfaces as a generic
        // NotServingRegionException — the corruption's identity is lost.
        let shipped = run_hbase_cell(fault, RetryPolicy::TrustCache, None);
        assert_eq!(shipped.outcome, Some(FaultOutcome::Mistranslated));
        // Fixed policy: the clean retry heals the request and nothing
        // surfaces at all.
        let fixed = run_hbase_cell(fault, RetryPolicy::RefreshAndRetry, None);
        assert_eq!(fixed.outcome, Some(FaultOutcome::Swallowed));
        assert!(fixed.surfaced.is_none());
        // Both cells carry their crossing sequence.
        assert!(!shipped.trace.is_empty());
        assert_eq!(channel_totals([&fixed.trace])["hbase"], 3);
    }

    /// Matching an observation's behavior by streaming it is `Behavior`
    /// equality, pair by pair: within each input group of the default
    /// grid, across the `fault_matrix(42)` probe cells, and across
    /// multi-row and no-read variants of one observation.
    #[test]
    fn a_streamed_behavior_match_is_behavior_equality() {
        use csi_core::oracle::{Behavior, Observation};
        let mut groups: BTreeMap<(usize, usize), Vec<Observation>> = BTreeMap::new();
        for (experiment, obs) in Campaign::new(crate::generator::catalogue())
            .run()
            .observations
        {
            let at = Experiment::ALL.iter().position(|e| *e == experiment);
            groups
                .entry((at.unwrap(), obs.input_id))
                .or_default()
                .push(obs);
        }
        let d = crate::exec::test_stack();
        let probes: Vec<Observation> =
            enumerate_cells(&CampaignSpec::default(), &fault_catalogue(42))
                .into_iter()
                .filter_map(|cell| match cell {
                    Cell::Probe {
                        fault,
                        experiment,
                        plan,
                        format,
                    } => Some(run_one(
                        &d,
                        experiment,
                        plan,
                        format,
                        &probe_input(),
                        &[fault],
                    )),
                    _ => None,
                })
                .collect();
        groups.insert((usize::MAX, 0), probes);
        // One clean single-row observation, read back as two different
        // three-row results, as the same three rows twice, and unread.
        let base = groups
            .values()
            .flatten()
            .find(|o| matches!(&o.read, Some(r) if r.result.as_ref().is_ok_and(|v| v.len() == 1)))
            .unwrap()
            .clone();
        let rows = |values: Vec<Value>| {
            let mut obs = base.clone();
            obs.read.as_mut().unwrap().result = Ok(values);
            obs
        };
        let mut unread = base.clone();
        unread.read = None;
        groups.insert(
            (usize::MAX, 1),
            vec![
                base.clone(),
                rows(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
                rows(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
                rows(vec![Value::Int(1), Value::Int(2), Value::Int(4)]),
                unread,
            ],
        );

        let (mut same, mut differ) = (0, 0);
        let mut shapes = BTreeMap::new();
        for group in groups.values() {
            let behaviors: Vec<Behavior> = group.iter().map(Observation::behavior).collect();
            for (a, behavior) in group.iter().zip(&behaviors) {
                let shape = match (&a.write.result, a.read.as_ref().map(|r| &r.result)) {
                    (Err(_), _) => "failed write",
                    (Ok(()), Some(Err(_))) => "failed read",
                    (Ok(()), Some(Ok(v))) if v.len() == 1 => "one-row read",
                    (Ok(()), Some(Ok(v))) if v.len() > 1 => "multi-row read",
                    _ => "other",
                };
                *shapes.entry(shape).or_insert(0) += 1;
                for b in &behaviors {
                    let equal = behavior == b;
                    assert_eq!(a.has_behavior(b), equal, "{behavior} vs {b}");
                    if equal {
                        same += 1;
                    } else {
                        differ += 1;
                    }
                }
            }
        }
        for shape in [
            "failed write",
            "failed read",
            "one-row read",
            "multi-row read",
        ] {
            assert!(shapes.contains_key(shape), "no {shape} in {shapes:?}");
        }
        assert!(same > 0 && differ > 0, "{same} same, {differ} differ");
    }

    #[test]
    fn sharded_matrix_is_byte_identical_to_serial() {
        // The small catalogue against one experiment and one format.
        let json = |shards| {
            let spec = CampaignSpec {
                matrix_seed: Some(11),
                experiments: vec![Experiment::ALL[0]],
                formats: vec![StorageFormat::Orc],
                faults: Some(small_fault_catalogue(11)),
                shards,
                ..CampaignSpec::default()
            };
            serde_json::to_string(&run_fault_matrix(&spec, None).matrix).unwrap()
        };
        let serial = json(1);
        assert_eq!(serial, json(0));
        assert_eq!(serial, json(3));
    }

    #[test]
    fn hbase_region_server_down_propagates_with_context() {
        let plan = fault_catalogue(1);
        let fault = plan
            .faults
            .iter()
            .find(|f| f.id == "hbase-unavail-route")
            .unwrap();
        for policy in [RetryPolicy::TrustCache, RetryPolicy::RefreshAndRetry] {
            let case = run_hbase_cell(fault, policy, None);
            assert_eq!(case.outcome, Some(FaultOutcome::PropagatedWithContext));
        }
    }
}
