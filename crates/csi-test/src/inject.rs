//! The fault-matrix campaign: deterministic boundary-fault injection
//! crossed with the cross-testing space.
//!
//! A matrix cell is one (fault, scenario) pair, and one table says which
//! scenarios a fault reaches. A fault on a probe channel (metastore or
//! HDFS) reaches the full (experiment × plan × format) probe cross of
//! [`crate::plan`]; every other fault reaches the substrate scenarios
//! (`SUBSTRATES`) whose channel and ops it names: Kafka's broker API,
//! directly and through Spark's connector; YARN's Flink driver loop
//! (FLINK-12342's home) and Spark's cluster-metrics connector; the
//! location-caching HBase client under both retry policies (HBASE-16621's
//! home). The caller-visible result of each cell is classified with
//! [`classify_fault_outcome`] into the paper's error-handling taxonomy:
//! swallowed, mistranslated, propagated-with-context, or crash.
//!
//! A cell arms its fault for its one run, and under `detect` is judged
//! against its fault-free twin by `exec::judged_run`, the rule the grid
//! and explore share. Probe cells run on their worker's one deployment,
//! in the spec's Spark configuration, which every observation leaves as
//! it found it; a substrate cell builds its broker, RM or client and a
//! fresh crossing context per run. Cells are hermetic either way, so
//! [`crate::Campaign::shards`] reproduces the one-worker report
//! byte-for-byte at any worker count.

use crate::campaign::{crack, is_finding, CampaignOutcome, Evidence, Finding};
use crate::exec::{judged_run, run_one, Deployment};
use crate::generator::{TestInput, Validity};
use crate::plan::{self, scenario_key, Experiment, TestPlan};
use crate::shard::{run_ordered, worker_states};
use crate::spec::CampaignSpec;
use csi_core::boundary::{faulted, CrossingContext};
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

/// The channels the probe scenarios reach: the (experiment × plan ×
/// format) cells of [`plan::cells`], run on a cross-testing deployment,
/// cross its metastore and filesystem and nothing else. Every other
/// channel is reached only by the rows of [`SUBSTRATES`].
const PROBE_CHANNELS: [Channel; 2] = [Channel::Metastore, Channel::Hdfs];

/// The faults of [`fault_catalogue`]`(seed)` that can fire inside a
/// cross-testing deployment: those on a [`PROBE_CHANNELS`] channel. The
/// rest of the catalogue targets stacks a deployment never builds.
pub(crate) fn deployment_faults(seed: u64) -> Vec<FaultSpec> {
    let mut faults = fault_catalogue(seed).faults;
    faults.retain(|f| PROBE_CHANNELS.contains(&f.channel));
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

/// One substrate scenario of the fault matrix: a body that builds its
/// broker, RM or client around the crossing context it is handed, armed
/// with the run's faults, and drives one interaction through it.
struct Substrate {
    /// The scenario key its cells and their detections carry.
    key: &'static str,
    channel: Channel,
    /// Which ops of `channel` it reaches.
    ops: fn(&str) -> bool,
    /// What surfaced to the caller, and a detail line.
    body: fn(&CrossingContext) -> (Option<InteractionError>, String),
}

impl Substrate {
    /// Whether this scenario is one of `fault`'s cells.
    fn reaches(&self, fault: &FaultSpec) -> bool {
        fault.channel == self.channel && (self.ops)(&fault.op)
    }
}

/// The substrate scenarios, in the order a fault's cells run them: the
/// one list of what a Kafka, YARN or HBase fault reaches.
static SUBSTRATES: [Substrate; 6] = [
    Substrate {
        key: "kafka:direct",
        channel: Channel::Kafka,
        ops: |_| true,
        body: kafka_direct,
    },
    // A produce fault has no path through the read-side connector.
    Substrate {
        key: "kafka:spark-connector",
        channel: Channel::Kafka,
        ops: |op| op != "produce",
        body: kafka_connector,
    },
    Substrate {
        key: "yarn:flink-driver",
        channel: Channel::Yarn,
        ops: |op| op != "get_cluster_metrics",
        body: yarn_driver,
    },
    Substrate {
        key: "yarn:spark-connector",
        channel: Channel::Yarn,
        ops: |op| op == "get_cluster_metrics",
        body: yarn_metrics,
    },
    Substrate {
        key: "hbase:kv-client(trust-cache)",
        channel: Channel::HBase,
        ops: |_| true,
        body: |ctx| hbase_route(ctx, RetryPolicy::TrustCache),
    },
    Substrate {
        key: "hbase:kv-client(refresh-retry)",
        channel: Channel::HBase,
        ops: |_| true,
        body: |ctx| hbase_route(ctx, RetryPolicy::RefreshAndRetry),
    },
];

/// Where a matrix cell runs its fault.
#[derive(Clone, Copy)]
enum Scenario {
    /// One (experiment, plan, format) probe observation.
    Probe(Experiment, TestPlan, StorageFormat),
    Substrate(&'static Substrate),
}

/// The matrix's cells: every fault of `faults` crossed with the
/// scenarios that reach it, the probe cells of `spec`'s (experiment ×
/// plan × format) cross first, then [`SUBSTRATES`] in order. Cells are
/// hermetic: running one never observes state from another, which is
/// what makes the merge-by-index byte-identical at any worker count.
fn enumerate_cells<'a>(
    spec: &CampaignSpec,
    faults: &'a FaultPlan,
) -> Vec<(&'a FaultSpec, Scenario)> {
    let mut cells = Vec::new();
    for fault in &faults.faults {
        if PROBE_CHANNELS.contains(&fault.channel) {
            cells.extend(
                plan::cells(&spec.experiments, &spec.formats)
                    .map(|(_, e, plan, format)| (fault, Scenario::Probe(e, plan, format))),
            );
        }
        let rows = SUBSTRATES.iter().filter(|row| row.reaches(fault));
        cells.extend(rows.map(|row| (fault, Scenario::Substrate(row))));
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

/// Runs the cell of `fault` in `scenario`, a [`judged_run`] under the
/// matrix's `detector`. A probe runs on the worker's `deployment` (built
/// on first use, with `spark_overrides`), which every observation leaves
/// as it found it; a substrate row builds its stack around a fresh
/// crossing context per run.
fn run_cell(
    fault: &FaultSpec,
    scenario: Scenario,
    deployment: &mut Option<Deployment>,
    spark_overrides: &[(String, String)],
    detector: Option<&DetectorSpec>,
) -> FaultCase {
    let key = match scenario {
        Scenario::Probe(experiment, plan, format) => {
            scenario_key(&experiment.plan_label(plan), format.name(), None)
        }
        Scenario::Substrate(row) => row.key.to_string(),
    };
    judged_run(std::slice::from_ref(fault), detector, |faults| {
        let (surfaced, detail, trace) = match scenario {
            Scenario::Probe(experiment, plan, format) => {
                let d = deployment.get_or_insert_with(|| {
                    Deployment::new(CrossingContext::new(), spark_overrides)
                });
                let obs = run_one(d, experiment, plan, format, &probe_input(), faults);
                let detail = match (&obs.write.result, obs.read.as_ref().map(|r| &r.result)) {
                    (Err(e), _) => format!("write failed: {}", e.signature()),
                    (Ok(()), Some(Err(e))) => format!("read failed: {}", e.signature()),
                    (Ok(()), Some(Ok(rows))) => format!("write+read ok ({} rows)", rows.len()),
                    (Ok(()), None) => "write ok; read skipped".to_string(),
                };
                (obs.surfaced().cloned(), detail, obs.trace)
            }
            Scenario::Substrate(row) => {
                let ctx = CrossingContext::new();
                ctx.rearm(faults);
                let (surfaced, detail) = (row.body)(&ctx);
                (surfaced, detail, ctx.trace())
            }
        };
        let fired: Vec<InjectedFault> = faulted(&trace.crossings)
            .map(|(_, fault)| fault.clone())
            .collect();
        let outcome =
            (!fired.is_empty()).then(|| classify_fault_outcome(&fired, surfaced.as_ref()));
        FaultCase {
            fault: fault.clone(),
            scenario: key.clone(),
            fired,
            surfaced,
            outcome,
            detail,
            trace,
            detections: Vec::new(),
        }
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

/// Direct broker API calls: produce, log_end_offset, fetch.
fn kafka_direct(ctx: &CrossingContext) -> (Option<InteractionError>, String) {
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
}

/// Spark's Kafka source connector: plan a range, then consume it.
fn kafka_connector(ctx: &CrossingContext) -> (Option<InteractionError>, String) {
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
}

/// The Flink YARN driver's heartbeat loop, FLINK-12342's home.
fn yarn_driver(ctx: &CrossingContext) -> (Option<InteractionError>, String) {
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
}

/// Spark's YARN cluster-metrics connector.
fn yarn_metrics(ctx: &CrossingContext) -> (Option<InteractionError>, String) {
    let mut rm = ResourceManager::with_nodes(4, Resource::new(8192, 8));
    rm.set_crossing(ctx.clone());
    let result = minispark::connectors::yarn::cluster_metrics(&rm, ctx);
    let detail = match &result {
        Ok(m) => format!("metrics ok ({} node managers)", m.num_node_managers),
        Err(e) => format!("connector failed: {}", e.code()),
    };
    (result.err().map(InteractionError::from), detail)
}

/// HBASE-16621's home: a location-caching client routes one request for
/// a region under `policy`. A poisoned `locate` surfaces as
/// `NotServingRegionException` under [`RetryPolicy::TrustCache`] but is
/// silently healed by [`RetryPolicy::RefreshAndRetry`]'s clean re-lookup.
fn hbase_route(ctx: &CrossingContext, policy: RetryPolicy) -> (Option<InteractionError>, String) {
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
        let (fault, scenario) = cells[i];
        run_cell(fault, scenario, d, &spec.spark_overrides, detector.as_ref())
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
    use std::collections::BTreeSet;

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

    /// The cell of catalogue fault `id` in the substrate scenario `key`,
    /// through the `run_cell` path the matrix takes.
    fn substrate_cell(id: &str, key: &str) -> FaultCase {
        let plan = fault_catalogue(1);
        let fault = plan.faults.iter().find(|f| f.id == id).unwrap();
        let row = SUBSTRATES.iter().find(|row| row.key == key).unwrap();
        assert!(row.reaches(fault), "{id} x {key} is no matrix cell");
        run_cell(fault, Scenario::Substrate(row), &mut None, &[], None)
    }

    #[test]
    fn kafka_corruption_is_rejected_directly_but_mistranslated_by_spark() {
        let direct = substrate_cell("kafka-corrupt-fetch", "kafka:direct");
        assert_eq!(direct.outcome, Some(FaultOutcome::PropagatedWithContext));
        let connector = substrate_cell("kafka-corrupt-fetch", "kafka:spark-connector");
        assert_eq!(connector.outcome, Some(FaultOutcome::Mistranslated));
    }

    #[test]
    fn yarn_latency_is_swallowed_as_a_silent_storm() {
        let case = substrate_cell("yarn-latency-alloc", "yarn:flink-driver");
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
        // Shipped policy: the poisoned location surfaces as a generic
        // NotServingRegionException — the corruption's identity is lost.
        let shipped = substrate_cell("hbase-stale-locate", "hbase:kv-client(trust-cache)");
        assert_eq!(shipped.outcome, Some(FaultOutcome::Mistranslated));
        // Fixed policy: the clean retry heals the request and nothing
        // surfaces at all.
        let fixed = substrate_cell("hbase-stale-locate", "hbase:kv-client(refresh-retry)");
        assert_eq!(fixed.outcome, Some(FaultOutcome::Swallowed));
        assert!(fixed.surfaced.is_none());
        // Both cells carry their crossing sequence.
        assert!(!shipped.trace.is_empty());
        assert_eq!(channel_totals([&fixed.trace])["hbase"], 3);
    }

    #[test]
    fn hbase_region_server_down_propagates_with_context() {
        for key in [
            "hbase:kv-client(trust-cache)",
            "hbase:kv-client(refresh-retry)",
        ] {
            let case = substrate_cell("hbase-unavail-route", key);
            assert_eq!(case.outcome, Some(FaultOutcome::PropagatedWithContext));
        }
    }

    /// The table's reach rules are what the bodies do: a row reaches a
    /// catalogue fault exactly when its fault-free run crosses the
    /// fault's (channel, op).
    #[test]
    fn a_substrate_row_reaches_exactly_the_ops_its_fault_free_run_crosses() {
        let catalogue = fault_catalogue(1);
        for row in &SUBSTRATES {
            let ctx = CrossingContext::new();
            (row.body)(&ctx);
            let trace = ctx.trace();
            let crossed: BTreeSet<(Channel, &str)> = trace
                .crossings
                .iter()
                .map(|c| (c.call.channel, &*c.call.op))
                .collect();
            for fault in &catalogue.faults {
                assert_eq!(
                    row.reaches(fault),
                    crossed.contains(&(fault.channel, fault.op.as_str())),
                    "{} x {}: the run crosses {crossed:?}",
                    fault.id,
                    row.key
                );
            }
        }
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
        let catalogue = fault_catalogue(42);
        let probes: Vec<Observation> = enumerate_cells(&CampaignSpec::default(), &catalogue)
            .into_iter()
            .filter_map(|(fault, scenario)| match scenario {
                Scenario::Probe(experiment, plan, format) => Some(run_one(
                    &d,
                    experiment,
                    plan,
                    format,
                    &probe_input(),
                    std::slice::from_ref(fault),
                )),
                Scenario::Substrate(_) => None,
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
}
