//! Properties of the online CSI failure detector.
//!
//! The tentpole contract: detections are *deterministic* (serial and
//! sharded campaigns produce byte-identical detection sets), *silent on
//! healthy runs* (a fault-free campaign yields zero detections), and
//! *complete against the offline oracle* (every cell of the standard
//! fault matrix that `classify_fault_outcome` labels swallowed or
//! mistranslated is flagged online — recall 1.0 — with no false flags on
//! the propagated/crash cells — precision 1.0).

use csi_core::detect::{flags_error_handling, DetectionKind, DetectionTap, DetectorConfig};
use csi_core::fault::{Channel, FaultKind, FaultOutcome, FaultPlan, FaultSpec, Trigger};
use csi_core::hash::Fnv1a;
use csi_test::{generate_inputs, small_fault_catalogue, Campaign, Experiment};
use minihive::metastore::StorageFormat;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

/// Latency faults on the metastore and on HDFS at once: they delay rather
/// than abort, so one observation crosses both degraded channels.
fn two_latency_faults() -> FaultPlan {
    FaultPlan {
        seed: 7,
        faults: vec![
            FaultSpec {
                id: "ms-slow".into(),
                channel: Channel::Metastore,
                op: "get_table".into(),
                kind: FaultKind::Latency { ms: 800 },
                trigger: Trigger::Always,
            },
            FaultSpec {
                id: "hdfs-slow".into(),
                channel: Channel::Hdfs,
                op: "create".into(),
                kind: FaultKind::Latency { ms: 800 },
                trigger: Trigger::Always,
            },
        ],
    }
}

/// FNV-1a over everything a detecting campaign hands its caller — the
/// rendered report, the report and matrix JSON, every observation — and
/// over every detection its tap streamed. A serial campaign's stream is
/// digested in arrival order; a sharded one hears its workers in whatever
/// order they finish, so its stream is digested sorted.
fn detecting_digest(campaign: Campaign) -> u64 {
    let serial = campaign.spec().shards <= 1;
    let streamed = Arc::new(Mutex::new(Vec::new()));
    let sink = streamed.clone();
    let outcome = campaign
        .detection_tap(DetectionTap::new(move |d| {
            sink.lock().expect("no tap panicked").push(json(d))
        }))
        .run();
    let mut digest = Fnv1a::new();
    digest.bytes(outcome.render().as_bytes());
    digest.bytes(json(&outcome.report).as_bytes());
    digest.bytes(json(&outcome.matrix).as_bytes());
    for tagged in &outcome.observations {
        digest.bytes(json(tagged).as_bytes());
    }
    let mut streamed = streamed.lock().expect("no tap panicked").clone();
    assert!(!streamed.is_empty(), "the campaign detected nothing");
    if !serial {
        streamed.sort();
    }
    for detection in &streamed {
        digest.bytes(detection.as_bytes());
    }
    digest.finish()
}

/// Four detecting campaigns pinned to digests committed before detection
/// became a function of the trace: the standard matrix, the same with a
/// storm threshold low enough for the FLINK-12342 cell to storm, a sharded
/// matrix at another seed, and the two-channel latency campaign whose
/// observations co-occur. A fifth, a sharded grid whose faults make its
/// observations diverge from their fault-free twins (pattern anomalies),
/// is pinned to the digest it had while a grid still learned its
/// baselines from a separate calibration campaign.
#[test]
fn detections_hold_their_committed_digests() {
    let inputs = generate_inputs();
    let shapes = [
        (
            "matrix 42",
            Campaign::new(&[]).fault_matrix(42).detect(true),
            0x1763_9ed9_880e_b51e,
        ),
        (
            "matrix 42, storm threshold 8",
            Campaign::new(&[])
                .fault_matrix(42)
                .detect(true)
                .detector_config(DetectorConfig {
                    storm_threshold: 8,
                    ..DetectorConfig::default()
                }),
            0xfb90_7b51_25e9_ff5f,
        ),
        (
            "matrix 7 on three workers",
            Campaign::new(&[]).fault_matrix(7).detect(true).shards(3),
            0xc1f9_5c77_3150_407d,
        ),
        (
            "two latency faults, co-occurring",
            Campaign::new(&inputs[..1])
                .faults(two_latency_faults())
                .detect(true),
            0x5ab5_6c6b_8a06_9865,
        ),
        (
            "24-input grid under metastore and HDFS faults on three workers",
            Campaign::new(&inputs[..24])
                .faults(small_fault_catalogue(42))
                .detect(true)
                .shards(3),
            0xb4eb_fb00_d991_1991,
        ),
    ];
    let mut moved = Vec::new();
    for (name, campaign, expected) in shapes {
        let got = detecting_digest(campaign);
        if got != expected {
            moved.push(format!("{name}: {got:#018x}"));
        }
    }
    assert!(moved.is_empty(), "digests moved: {moved:#?}");
}

#[test]
fn standard_matrix_detector_matches_the_offline_oracle_exactly() {
    let outcome = Campaign::new(&[]).fault_matrix(42).detect(true).run();
    let matrix = outcome.matrix.as_ref().expect("matrix mode");
    assert_eq!(matrix.cases.len(), 159, "standard matrix size");

    for case in &matrix.cases {
        match case.outcome {
            // The acceptance gate: every oracle-labeled error-handling
            // cell is flagged online, with the matching kind.
            Some(FaultOutcome::Swallowed) => assert!(
                case.detections
                    .iter()
                    .any(|d| d.kind == DetectionKind::SwallowedError),
                "cell {}/{} swallowed but not flagged: {:?}",
                case.fault.id,
                case.scenario,
                case.detections
            ),
            Some(FaultOutcome::Mistranslated) => assert!(
                case.detections
                    .iter()
                    .any(|d| d.kind == DetectionKind::MistranslatedError),
                "cell {}/{} mistranslated but not flagged: {:?}",
                case.fault.id,
                case.scenario,
                case.detections
            ),
            // No false flags: propagated/crash/unfired cells carry no
            // error-handling detections.
            _ => assert!(
                !flags_error_handling(&case.detections),
                "cell {}/{} ({:?}) falsely flagged: {:?}",
                case.fault.id,
                case.scenario,
                case.outcome,
                case.detections
            ),
        }
    }

    let agreement = matrix.agreement.expect("fired cells were scored");
    assert_eq!(agreement.false_negatives, 0, "recall must be 1.0");
    assert_eq!(agreement.false_positives, 0, "precision must be 1.0");
    assert!((agreement.recall() - 1.0).abs() < f64::EPSILON);
    assert!((agreement.precision() - 1.0).abs() < f64::EPSILON);

    // The campaign-level render shows the detector sections.
    let rendered = outcome.render();
    assert!(
        rendered.contains("online detections per kind:"),
        "{rendered}"
    );
    assert!(
        rendered.contains("detector vs offline oracle:"),
        "{rendered}"
    );

    // The same matrix on three workers is the same bytes.
    let sharded = Campaign::new(&[])
        .fault_matrix(42)
        .detect(true)
        .shards(3)
        .run();
    assert_eq!(json(&outcome.matrix), json(&sharded.matrix));
    assert_eq!(rendered, sharded.render());
}

#[test]
fn latency_storm_fires_on_the_flink_12342_regime() {
    // The FLINK-12342 cell: injected allocation latency above the driver's
    // heartbeat interval makes the buggy-sync driver re-request containers
    // on every beat. The 15 s simulated deadline caps the loop below the
    // default storm threshold, so tighten it to the scale of one driver
    // run.
    let outcome = Campaign::new(&[])
        .fault_matrix(42)
        .detect(true)
        .detector_config(DetectorConfig {
            storm_threshold: 8,
            ..DetectorConfig::default()
        })
        .run();
    let matrix = outcome.matrix.expect("matrix mode");
    let cell = matrix
        .cases
        .iter()
        .find(|c| c.fault.id == "yarn-latency-alloc" && c.scenario == "yarn:flink-driver")
        .expect("the FLINK-12342 cell exists");
    assert!(
        cell.detections
            .iter()
            .any(|d| d.kind == DetectionKind::LatencyStorm),
        "no latency storm on the driver cell: {:?}",
        cell.detections
    );
}

#[test]
fn co_occurrence_flags_a_multi_channel_fault_burst() {
    // A campaign with faults armed on two channels at once. Latency
    // faults delay rather than abort, so a single observation crosses
    // *both* degraded channels inside one causal window — the
    // cross-channel signature of a CSI failure cascading.
    let inputs = generate_inputs();
    let outcome = Campaign::new(&inputs[..1])
        .faults(two_latency_faults())
        .detect(true)
        .run();
    let co_occurrences: usize = outcome
        .observations
        .iter()
        .flat_map(|(_, obs)| &obs.detections)
        .filter(|d| d.kind == DetectionKind::CoOccurrence)
        .count();
    assert!(
        co_occurrences > 0,
        "no co-occurrence despite faults on two channels: {:?}",
        outcome.report.detection_kinds
    );
    assert!(outcome.report.detection_totals.contains_key("metastore"));
    assert!(outcome.report.detection_totals.contains_key("hdfs"));
}

#[test]
fn a_detecting_grid_judges_each_observation_against_its_fault_free_twin() {
    // An observation carries a pattern anomaly exactly when its (channel,
    // op) sequence differs from the one the same cell crosses fault-free.
    let inputs = generate_inputs();
    let grid = Campaign::new(&inputs[..8]).detect(true).shards(2);
    let twins = grid.clone().run();
    let outcome = grid.faults(small_fault_catalogue(42)).run();
    let ops = |trace: &csi_core::boundary::InteractionTrace| -> Vec<(Channel, String)> {
        let calls = trace.crossings.iter().map(|c| &c.call);
        calls
            .map(|call| (call.channel, call.op.to_string()))
            .collect()
    };
    let mut anomalies = 0;
    assert_eq!(outcome.observations.len(), twins.observations.len());
    for ((_, obs), (_, twin)) in outcome.observations.iter().zip(&twins.observations) {
        let anomalous = obs
            .detections
            .iter()
            .any(|d| d.kind == DetectionKind::PatternAnomaly);
        assert_eq!(
            anomalous,
            ops(&obs.trace) != ops(&twin.trace),
            "{} {} input {}: {:?}",
            obs.plan,
            obs.format,
            obs.input_id,
            obs.detections
        );
        anomalies += usize::from(anomalous);
    }
    assert!(anomalies > 0, "no observation diverged from its twin");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A fault-free campaign never detects anything, whatever slice of
    /// the catalogue it runs over.
    #[test]
    fn fault_free_campaigns_are_detection_free(start in 0usize..400) {
        let inputs = generate_inputs();
        let slice = &inputs[start..(start + 2).min(inputs.len())];
        let outcome = Campaign::new(slice).detect(true).run();
        prop_assert!(outcome.report.detector_enabled);
        prop_assert!(
            outcome.report.detection_kinds.is_empty(),
            "spurious detections: {:?}",
            outcome.report.detection_kinds
        );
        for (_, obs) in &outcome.observations {
            prop_assert!(obs.detections.is_empty());
        }
    }

    /// Detection output is deterministic across the serial and sharded
    /// executors: same campaign, any worker count, byte-identical report
    /// and per-observation detection sets.
    #[test]
    fn cross_test_detections_are_shard_invariant(workers in 2usize..5) {
        let inputs = generate_inputs();
        let serial = Campaign::new(&inputs[..6]).detect(true).run();
        let sharded = Campaign::new(&inputs[..6])
            .detect(true)
            .shards(workers)
            .chunk_size(1)
            .run();
        prop_assert_eq!(json(&serial.report), json(&sharded.report));
        prop_assert_eq!(serial.observations.len(), sharded.observations.len());
        for (s, p) in serial.observations.iter().zip(&sharded.observations) {
            prop_assert_eq!(json(&s.1.detections), json(&p.1.detections));
        }
    }

    /// Same for the fault matrix: the detector's per-cell output merges
    /// back byte-identically at any worker count and for any seed.
    #[test]
    fn matrix_detections_are_shard_invariant(seed in any::<u64>(), workers in 2usize..5) {
        let smoke = |shards: usize| {
            Campaign::new(&[])
                .fault_matrix(seed)
                .faults(small_fault_catalogue(seed))
                .experiments(vec![Experiment::ALL[0]])
                .formats(vec![StorageFormat::Orc])
                .detect(true)
                .shards(shards)
                .run()
        };
        let serial = smoke(1);
        let sharded = smoke(workers);
        prop_assert_eq!(json(&serial.matrix), json(&sharded.matrix));
        prop_assert_eq!(serial.render(), sharded.render());
    }
}
