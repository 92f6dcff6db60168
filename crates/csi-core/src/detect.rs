//! CSI failure detection over an observation's boundary-crossing trace.
//!
//! The offline oracle ([`crate::fault::classify_fault_outcome`]) judges an
//! observation from the faults that fired and the surfaced error.
//! [`DetectorSpec::detect`] judges it, when it closes, from the record the
//! observation already carries — its [`InteractionTrace`] of
//! metastore/HDFS/Kafka/YARN/HBase crossings — together with the error
//! the caller surfaced and the trace of its fault-free twin (the same
//! scenario run unarmed), and emits typed [`Detection`]s —
//!
//! - [`DetectionKind::SwallowedError`]: a fault fired at the boundary but
//!   no error surfaced to the caller (the paper's most common §9 bucket);
//! - [`DetectionKind::MistranslatedError`]: an error surfaced, but with a
//!   different kind/code than any fired fault's canonical signature —
//!   context was lost crossing the boundary;
//! - [`DetectionKind::LatencyStorm`]: the same (channel, op) crossing
//!   absorbed injected latency over and over, the FLINK-12342 shape where
//!   a slow dependency turns into a storm of slow control-plane calls;
//! - [`DetectionKind::PatternAnomaly`]: the observation's crossing
//!   sequence diverged from its fault-free twin's;
//! - [`DetectionKind::CoOccurrence`]: faults on *different* channels fired
//!   within one virtual-time window — the cross-system co-occurrence
//!   cluster signal ("Systemic Flakiness") that single-crossing judgement
//!   cannot see.
//!
//! Determinism contract: detections are a pure function of the trace, the
//! surfaced error, the twin's trace and the [`DetectorConfig`] —
//! never of wall-clock time or worker interleaving — so serial and sharded
//! campaigns produce byte-identical detection sets, and a stored trace is
//! judged again to the same detections.
//!
//! Compound campaigns (`csi_test::multi`: k-fault sets armed at once,
//! several jobs interleaved on one shared deployment) exercise exactly the
//! cascading scenarios [`DetectionKind::CoOccurrence`] exists for: the
//! shared [`CrossingContext`] records every job's crossings in one trace,
//! so faults that only co-fire under a particular interleaving land in the
//! same virtual-time window and become detectable — which a per-job trace
//! would never show.
//!
//! [`CrossingContext`]: crate::boundary::CrossingContext

use crate::boundary::{faulted, InteractionTrace};
use crate::error::InteractionError;
use crate::fault::{
    canonical_signature, classify_fault_outcome, Channel, FaultKind, FaultOutcome, InjectedFault,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The typed failure classes the online detector emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DetectionKind {
    /// A fault fired at the boundary, no error surfaced to the caller.
    SwallowedError,
    /// An error surfaced with a kind/code matching no fired fault's
    /// canonical signature.
    MistranslatedError,
    /// Repeated injected latency on one (channel, op) crossing.
    LatencyStorm,
    /// Crossing sequence diverged from the fault-free twin's.
    PatternAnomaly,
    /// Faults on distinct channels fired within one virtual-time window.
    CoOccurrence,
}

impl DetectionKind {
    /// All kinds, in canonical order.
    pub const ALL: [DetectionKind; 5] = [
        DetectionKind::SwallowedError,
        DetectionKind::MistranslatedError,
        DetectionKind::LatencyStorm,
        DetectionKind::PatternAnomaly,
        DetectionKind::CoOccurrence,
    ];

    /// Whether this kind mirrors an offline §9 error-handling bucket
    /// (swallowed / mistranslated) rather than a timing or shape signal.
    pub fn is_error_handling(self) -> bool {
        matches!(
            self,
            DetectionKind::SwallowedError | DetectionKind::MistranslatedError
        )
    }
}

impl fmt::Display for DetectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetectionKind::SwallowedError => "swallowed-error",
            DetectionKind::MistranslatedError => "mistranslated-error",
            DetectionKind::LatencyStorm => "latency-storm",
            DetectionKind::PatternAnomaly => "pattern-anomaly",
            DetectionKind::CoOccurrence => "co-occurrence",
        };
        f.write_str(s)
    }
}

/// One online detection: what fired, where in the stream, and why.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Detection {
    /// The failure class.
    pub kind: DetectionKind,
    /// The scenario (observation) the detection belongs to.
    pub scenario: String,
    /// The channels involved, in canonical order, deduplicated.
    pub channels: Vec<Channel>,
    /// Sequence number of the crossing that anchored the detection.
    pub seq: u64,
    /// Virtual time of the anchoring crossing, in milliseconds.
    pub at_ms: u64,
    /// Human-readable evidence.
    pub detail: String,
}

/// Detector thresholds. All windows are in *virtual* milliseconds — the
/// boundary clock, not wall time — so thresholds behave identically under
/// any worker interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Latency-fault firings on one (channel, op) that constitute a storm.
    pub storm_threshold: u64,
    /// Max gap between faulted crossings that still clusters them.
    pub co_window_ms: u64,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            storm_threshold: 32,
            co_window_ms: 60_000,
        }
    }
}

/// A streaming observer of detections, handed each [`Detection`] as the
/// observation it belongs to is judged — long before the campaign report
/// exists.
///
/// This is the push half of detection-as-a-service: `csi-serve` hands
/// every tenant's campaign a tap that writes detection frames to the
/// tenant's connection, so detections stream out incrementally while the
/// campaign is still running. Taps observe only; they cannot alter the
/// detection set, so a tapped campaign stays byte-identical to an
/// untapped one. A tap runs with no detector or boundary lock held.
#[derive(Clone)]
pub struct DetectionTap(Arc<dyn Fn(&Detection) + Send + Sync>);

impl DetectionTap {
    /// Wraps a callback as a tap.
    pub fn new(f: impl Fn(&Detection) + Send + Sync + 'static) -> DetectionTap {
        DetectionTap(Arc::new(f))
    }

    /// Invokes the tap with one detection.
    pub fn emit(&self, detection: &Detection) {
        (self.0)(detection)
    }
}

impl fmt::Debug for DetectionTap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DetectionTap")
    }
}

/// Detector configuration plus the tap its detections stream to. Cheap
/// to clone; the tap is shared.
#[derive(Debug, Clone)]
pub struct DetectorSpec {
    /// Thresholds.
    pub config: DetectorConfig,
    /// Streaming observer of detections, if any.
    pub tap: Option<DetectionTap>,
}

impl DetectorSpec {
    /// Judges one observation of `scenario` from its `trace`, the
    /// `baseline` trace its fault-free twin left, and the error that
    /// `surfaced` to the caller, if any. Detections come in a fixed
    /// order — latency storms in stream order, then the §9 error-handling
    /// judgement, then the pattern anomaly, then the co-occurrence
    /// clusters — and each is handed to the tap, if any, in that order, so
    /// a tap sees exactly the detections the report carries.
    pub fn detect(
        &self,
        scenario: &str,
        trace: &InteractionTrace,
        baseline: &InteractionTrace,
        surfaced: Option<&InteractionError>,
    ) -> Vec<Detection> {
        let crossings = &trace.crossings;
        let hits: Vec<_> = faulted(crossings).collect();
        let detection = |kind, channels, seq, at_ms, detail| Detection {
            kind,
            scenario: scenario.to_string(),
            channels,
            seq,
            at_ms,
            detail,
        };
        let mut detections = Vec::new();

        // Latency storms: one per (channel, op), anchored at the crossing
        // whose count of delayed calls reaches the threshold.
        let threshold = self.config.storm_threshold;
        let mut delayed: BTreeMap<(Channel, &str), u64> = BTreeMap::new();
        for &(crossing, fault) in &hits {
            if matches!(
                fault.kind,
                FaultKind::Latency { .. } | FaultKind::Timeout { .. }
            ) {
                let (channel, op) = (crossing.call.channel, &*crossing.call.op);
                let count = delayed.entry((channel, op)).or_insert(0);
                *count += 1;
                if *count == threshold {
                    detections.push(detection(
                        DetectionKind::LatencyStorm,
                        vec![channel],
                        crossing.seq,
                        crossing.at_ms,
                        format!("{count} delayed {channel}:{op} crossings (threshold {threshold})"),
                    ));
                }
            }
        }

        // §9 error handling, bucketed by the offline oracle's own table
        // and anchored at the first faulted crossing.
        if let Some(&(first, _)) = hits.first() {
            let fired: Vec<InjectedFault> = hits.iter().map(|&(_, f)| f.clone()).collect();
            let judged = match (classify_fault_outcome(&fired, surfaced), surfaced) {
                (FaultOutcome::Swallowed, _) => {
                    let ids: Vec<&str> = fired.iter().map(|f| f.spec_id.as_str()).collect();
                    Some((
                        DetectionKind::SwallowedError,
                        format!(
                            "{} fault(s) fired [{}] but no error surfaced",
                            fired.len(),
                            ids.join(", ")
                        ),
                    ))
                }
                (FaultOutcome::Mistranslated, Some(e)) => {
                    let expected: Vec<String> = fired
                        .iter()
                        .filter_map(|f| canonical_signature(f.channel, f.kind))
                        .map(|(kind, code)| format!("{kind}:{code}"))
                        .collect();
                    Some((
                        DetectionKind::MistranslatedError,
                        format!(
                            "surfaced {} matches none of [{}]",
                            e.signature(),
                            expected.join(", ")
                        ),
                    ))
                }
                // A crash is loud and a faithful propagation kept its
                // context: nothing slipped through a crack.
                _ => None,
            };
            if let Some((kind, detail)) = judged {
                let channels = distinct_channels(fired.iter().map(|f| f.channel));
                detections.push(detection(kind, channels, first.seq, first.at_ms, detail));
            }
        }

        // Crossing-pattern anomaly: the first (channel, op) that differs
        // from the twin's, or where the shorter sequence ends.
        let baseline = &baseline.crossings;
        let divergence = crossings
            .iter()
            .zip(baseline)
            .position(|(c, b)| c.call.channel != b.call.channel || c.call.op != b.call.op)
            .unwrap_or_else(|| crossings.len().min(baseline.len()));
        if divergence < crossings.len().max(baseline.len()) {
            let channel = crossings
                .get(divergence)
                .or_else(|| baseline.get(divergence));
            detections.push(detection(
                DetectionKind::PatternAnomaly,
                channel.map(|c| c.call.channel).into_iter().collect(),
                divergence as u64,
                0,
                format!(
                    "crossing sequence diverged from baseline at #{divergence} \
                     (observed {} ops, baseline {})",
                    crossings.len(),
                    baseline.len()
                ),
            ));
        }

        // Cross-channel co-occurrence: faulted crossings cluster while each
        // follows the previous one within the window; a cluster spanning
        // ≥2 channels is the signal.
        let window = self.config.co_window_ms;
        for cluster in hits.chunk_by(|(a, _), (b, _)| b.at_ms.saturating_sub(a.at_ms) <= window) {
            let channels = distinct_channels(cluster.iter().map(|(c, _)| c.call.channel));
            if channels.len() >= 2 {
                let (first, _) = cluster[0];
                let detail = format!(
                    "{} faulted crossings across {} channels within {window}ms windows",
                    cluster.len(),
                    channels.len()
                );
                detections.push(detection(
                    DetectionKind::CoOccurrence,
                    channels,
                    first.seq,
                    first.at_ms,
                    detail,
                ));
            }
        }

        if let Some(tap) = &self.tap {
            for d in &detections {
                tap.emit(d);
            }
        }
        detections
    }
}

fn distinct_channels(iter: impl Iterator<Item = Channel>) -> Vec<Channel> {
    let present: std::collections::BTreeSet<Channel> = iter.collect();
    Channel::ALL
        .into_iter()
        .filter(|c| present.contains(c))
        .collect()
}

/// Agreement between the online detector and the offline
/// [`classify_fault_outcome`] oracle, over observations where faults
/// fired. Positive = the oracle labels the outcome swallowed or
/// mistranslated; the detector's positive = it emitted a matching
/// error-handling detection. Counts are integers so reports serialize
/// byte-identically; ratios are derived at render time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorAgreement {
    /// Oracle positive, detector positive.
    pub true_positives: usize,
    /// Oracle negative, detector positive.
    pub false_positives: usize,
    /// Oracle positive, detector negative.
    pub false_negatives: usize,
    /// Oracle negative, detector negative.
    pub true_negatives: usize,
}

impl DetectorAgreement {
    /// Scores one observation.
    pub fn score(&mut self, oracle_positive: bool, detector_positive: bool) {
        match (oracle_positive, detector_positive) {
            (true, true) => self.true_positives += 1,
            (false, true) => self.false_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Number of scored observations.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }

    /// TP / (TP + FP); 1.0 when the detector never fired.
    pub fn precision(&self) -> f64 {
        let flagged = self.true_positives + self.false_positives;
        if flagged == 0 {
            1.0
        } else {
            self.true_positives as f64 / flagged as f64
        }
    }

    /// TP / (TP + FN); 1.0 when the oracle never fired.
    pub fn recall(&self) -> f64 {
        let positives = self.true_positives + self.false_negatives;
        if positives == 0 {
            1.0
        } else {
            self.true_positives as f64 / positives as f64
        }
    }
}

/// Whether a detection set contains an error-handling detection — the
/// detector-side positive when scoring against the offline oracle.
pub fn flags_error_handling(detections: &[Detection]) -> bool {
    detections.iter().any(|d| d.kind.is_error_handling())
}

/// The detection aggregates of one campaign: what a cross-test report and
/// a fault-matrix report both carry about the online detector. A campaign
/// that ran without the detector records nothing and reports the empty
/// tally.
#[derive(Debug, Default)]
pub struct DetectionTally {
    /// Detection count per [`DetectionKind`].
    pub kinds: BTreeMap<String, usize>,
    /// Detection count per channel involved (a detection spanning several
    /// channels counts once per channel).
    pub totals: BTreeMap<String, usize>,
    /// Agreement with the offline §9 oracle over the recorded units in
    /// which a fault fired; `None` until one did.
    pub agreement: Option<DetectorAgreement>,
}

impl DetectionTally {
    /// Records one observation or matrix cell: its detections, and — when
    /// `fired` is non-empty — one agreement score of the detector against
    /// the §9 bucket of (`fired`, `surfaced`).
    pub fn record(
        &mut self,
        detections: &[Detection],
        fired: &[InjectedFault],
        surfaced: Option<&InteractionError>,
    ) {
        for d in detections {
            *self.kinds.entry(d.kind.to_string()).or_insert(0) += 1;
            for channel in &d.channels {
                *self.totals.entry(channel.to_string()).or_insert(0) += 1;
            }
        }
        if fired.is_empty() {
            return;
        }
        let oracle_positive = matches!(
            classify_fault_outcome(fired, surfaced),
            FaultOutcome::Swallowed | FaultOutcome::Mistranslated
        );
        self.agreement
            .get_or_insert_with(DetectorAgreement::default)
            .score(oracle_positive, flags_error_handling(detections));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{BoundaryCall, Crossing, CrossingContext, CrossingOutcome};
    use crate::error::ErrorKind;
    use crate::fault::{FaultSpec, Trigger};
    use proptest::prelude::*;
    use std::borrow::Cow;

    fn ms_call(op: &'static str) -> BoundaryCall {
        BoundaryCall::new(Channel::Metastore, op)
    }

    fn spec(id: &str, channel: Channel, op: &str, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            id: id.into(),
            channel,
            op: op.into(),
            kind,
            trigger: Trigger::Always,
        }
    }

    fn build(config: DetectorConfig) -> DetectorSpec {
        DetectorSpec { config, tap: None }
    }

    /// Judges `ctx`'s trace against a twin that crossed exactly the same
    /// (channel, op) sequence, so no pattern anomaly can fire.
    fn judge(
        detector: &DetectorSpec,
        ctx: &CrossingContext,
        surfaced: Option<&InteractionError>,
    ) -> Vec<Detection> {
        let trace = ctx.trace();
        detector.detect("s", &trace, &trace, surfaced)
    }

    fn drive(ctx: &CrossingContext, calls: &[BoundaryCall]) {
        for call in calls {
            let _ = ctx.intercept(call.clone());
        }
    }

    /// The faults `ctx`'s trace shows fired.
    fn fired(ctx: &CrossingContext) -> Vec<InjectedFault> {
        faulted(&ctx.trace().crossings)
            .map(|(_, fault)| fault.clone())
            .collect()
    }

    #[test]
    fn clean_stream_yields_no_detections() {
        let detector = build(DetectorConfig::default());
        let ctx = CrossingContext::new();
        drive(&ctx, &[ms_call("get_table"), ms_call("create_table")]);
        assert!(judge(&detector, &ctx, None).is_empty());
    }

    #[test]
    fn swallowed_fault_is_detected_iff_oracle_agrees() {
        let detector = build(DetectorConfig::default());
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "u",
            Channel::Metastore,
            "get_table",
            FaultKind::Unavailable,
        ));
        drive(&ctx, &[ms_call("get_table")]);
        // No error surfaced: the oracle says swallowed, and so does the
        // detector, from the trace alone.
        let detections = judge(&detector, &ctx, None);
        assert_eq!(
            classify_fault_outcome(&fired(&ctx), None),
            FaultOutcome::Swallowed
        );
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].kind, DetectionKind::SwallowedError);
        assert_eq!(detections[0].channels, vec![Channel::Metastore]);
        assert!(
            detections[0].detail.contains("[u]"),
            "{}",
            detections[0].detail
        );
    }

    #[test]
    fn mistranslated_error_is_detected() {
        let detector = build(DetectorConfig::default());
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "u",
            Channel::Metastore,
            "get_table",
            FaultKind::Unavailable,
        ));
        drive(&ctx, &[ms_call("get_table")]);
        let generic = InteractionError::new("spark", ErrorKind::Rejected, "INTERNAL", "boom");
        assert_eq!(
            classify_fault_outcome(&fired(&ctx), Some(&generic)),
            FaultOutcome::Mistranslated
        );
        let detections = judge(&detector, &ctx, Some(&generic));
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].kind, DetectionKind::MistranslatedError);
        assert!(
            detections[0].detail.contains("rejected:INTERNAL"),
            "{}",
            detections[0].detail
        );
        assert!(
            detections[0]
                .detail
                .contains("unavailable:METASTORE_UNAVAILABLE"),
            "{}",
            detections[0].detail
        );
    }

    #[test]
    fn propagated_with_context_stays_silent() {
        let detector = build(DetectorConfig::default());
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "u",
            Channel::Metastore,
            "get_table",
            FaultKind::Unavailable,
        ));
        drive(&ctx, &[ms_call("get_table")]);
        let canonical = InteractionError::new(
            "hive",
            ErrorKind::Unavailable,
            "METASTORE_UNAVAILABLE",
            "down",
        );
        assert!(judge(&detector, &ctx, Some(&canonical)).is_empty());
    }

    #[test]
    fn crash_bucket_is_left_to_the_offline_oracle() {
        let detector = build(DetectorConfig::default());
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "u",
            Channel::Metastore,
            "get_table",
            FaultKind::Unavailable,
        ));
        drive(&ctx, &[ms_call("get_table")]);
        let crash = InteractionError::new("spark", ErrorKind::Crash, "NPE", "null");
        assert!(judge(&detector, &ctx, Some(&crash)).is_empty());
    }

    #[test]
    fn latency_storm_fires_online_at_the_threshold_exactly_once() {
        let detector = build(DetectorConfig {
            storm_threshold: 3,
            ..DetectorConfig::default()
        });
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "slow",
            Channel::Yarn,
            "allocate",
            FaultKind::Latency { ms: 700 },
        ));
        let call = BoundaryCall::new(Channel::Yarn, "allocate");
        drive(
            &ctx,
            &[call.clone(), call.clone(), call.clone(), call.clone()],
        );
        // 4 delayed crossings, threshold 3: exactly one storm detection,
        // anchored at the third crossing and reported first, plus the
        // swallowed-error mirror (latency faults fired, nothing surfaced).
        let detections = judge(&detector, &ctx, None);
        let storms: Vec<_> = detections
            .iter()
            .filter(|d| d.kind == DetectionKind::LatencyStorm)
            .collect();
        assert_eq!(storms.len(), 1);
        assert_eq!(detections[0].kind, DetectionKind::LatencyStorm);
        assert_eq!(storms[0].seq, 2);
        assert!(
            storms[0].detail.contains("yarn:allocate"),
            "{}",
            storms[0].detail
        );
        assert!(flags_error_handling(&detections));
    }

    #[test]
    fn pattern_anomaly_against_the_fault_free_twin() {
        // The twin's clean shape of the scenario...
        let twin = CrossingContext::new();
        drive(&twin, &[ms_call("get_table"), ms_call("create_table")]);
        let twin = twin.trace();

        // ...then a run with an extra crossing: anomaly at index 1.
        let detector = build(DetectorConfig::default());
        let ctx = CrossingContext::new();
        drive(
            &ctx,
            &[
                ms_call("get_table"),
                ms_call("drop_table"),
                ms_call("create_table"),
            ],
        );
        let detections = detector.detect("s", &ctx.trace(), &twin, None);
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].kind, DetectionKind::PatternAnomaly);
        assert_eq!(detections[0].seq, 1);

        // A faithful replay is silent; a run cut short diverges where it
        // ends, on the channel the twin crossed there.
        ctx.reset();
        drive(&ctx, &[ms_call("get_table"), ms_call("create_table")]);
        assert!(detector.detect("s", &ctx.trace(), &twin, None).is_empty());
        ctx.reset();
        drive(&ctx, &[ms_call("get_table")]);
        let detections = detector.detect("s", &ctx.trace(), &twin, None);
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].seq, 1);
        assert_eq!(detections[0].channels, vec![Channel::Metastore]);
    }

    #[test]
    fn cross_channel_co_occurrence_clusters_by_virtual_time() {
        let generic = InteractionError::new("hdfs", ErrorKind::Unavailable, "SAFE_MODE", "safe");
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "ms-slow",
            Channel::Metastore,
            "get_table",
            FaultKind::Latency { ms: 100 },
        ));
        ctx.arm(spec(
            "fs-down",
            Channel::Hdfs,
            "read",
            FaultKind::Unavailable,
        ));
        drive(
            &ctx,
            &[
                ms_call("get_table"),
                BoundaryCall::new(Channel::Hdfs, "read"),
            ],
        );
        let detector = build(DetectorConfig::default());
        let detections = judge(&detector, &ctx, Some(&generic));
        let co: Vec<_> = detections
            .iter()
            .filter(|d| d.kind == DetectionKind::CoOccurrence)
            .collect();
        assert_eq!(co.len(), 1);
        assert_eq!(co[0].channels, vec![Channel::Metastore, Channel::Hdfs]);

        // Same two channels, but separated by more than the window: no
        // cluster.
        let detector = build(DetectorConfig {
            co_window_ms: 50,
            ..DetectorConfig::default()
        });
        let detections = judge(&detector, &ctx, Some(&generic));
        assert!(detections
            .iter()
            .all(|d| d.kind != DetectionKind::CoOccurrence));
    }

    /// The streaming detector [`DetectorSpec::detect`] replaced, kept as
    /// the reference it must agree with: fed one crossing at a time, it
    /// reports a storm the moment a count reaches the threshold and judges
    /// everything else when the observation finishes.
    struct OnlineDetector<'a> {
        spec: &'a DetectorSpec,
        scenario: &'a str,
        fired: Vec<InjectedFault>,
        /// seq/at_ms/channel of every faulted crossing, in stream order.
        faulted: Vec<(u64, u64, Channel)>,
        latency_counts: BTreeMap<(Channel, Cow<'static, str>), u64>,
        ops: Vec<(Channel, Cow<'static, str>)>,
        detections: Vec<Detection>,
    }

    impl<'a> OnlineDetector<'a> {
        fn begin(spec: &'a DetectorSpec, scenario: &'a str) -> OnlineDetector<'a> {
            OnlineDetector {
                spec,
                scenario,
                fired: Vec::new(),
                faulted: Vec::new(),
                latency_counts: BTreeMap::new(),
                ops: Vec::new(),
                detections: Vec::new(),
            }
        }

        fn observe(&mut self, crossing: &Crossing) {
            self.ops
                .push((crossing.call.channel, crossing.call.op.clone()));
            if let CrossingOutcome::Faulted { fault } = &crossing.outcome {
                self.fired.push(fault.clone());
                self.faulted
                    .push((crossing.seq, crossing.at_ms, crossing.call.channel));
                if matches!(
                    fault.kind,
                    FaultKind::Latency { .. } | FaultKind::Timeout { .. }
                ) {
                    let key = (crossing.call.channel, crossing.call.op.clone());
                    let count = self.latency_counts.entry(key).or_insert(0);
                    *count += 1;
                    if *count == self.spec.config.storm_threshold {
                        self.detections.push(Detection {
                            kind: DetectionKind::LatencyStorm,
                            scenario: self.scenario.to_string(),
                            channels: vec![crossing.call.channel],
                            seq: crossing.seq,
                            at_ms: crossing.at_ms,
                            detail: format!(
                                "{} delayed {}:{} crossings (threshold {})",
                                count,
                                crossing.call.channel,
                                crossing.call.op,
                                self.spec.config.storm_threshold
                            ),
                        });
                    }
                }
            }
        }

        fn finish(
            mut self,
            baseline: &[(Channel, Cow<'static, str>)],
            surfaced: Option<&InteractionError>,
        ) -> Vec<Detection> {
            let scenario = self.scenario.to_string();
            if let Some(&(seq, at_ms, _)) = self.faulted.first() {
                let judged = match (classify_fault_outcome(&self.fired, surfaced), surfaced) {
                    (FaultOutcome::Swallowed, _) => {
                        let ids: Vec<&str> =
                            self.fired.iter().map(|f| f.spec_id.as_str()).collect();
                        Some((
                            DetectionKind::SwallowedError,
                            format!(
                                "{} fault(s) fired [{}] but no error surfaced",
                                self.fired.len(),
                                ids.join(", ")
                            ),
                        ))
                    }
                    (FaultOutcome::Mistranslated, Some(e)) => {
                        let expected: Vec<String> = self
                            .fired
                            .iter()
                            .filter_map(|f| canonical_signature(f.channel, f.kind))
                            .map(|(kind, code)| format!("{kind}:{code}"))
                            .collect();
                        Some((
                            DetectionKind::MistranslatedError,
                            format!(
                                "surfaced {} matches none of [{}]",
                                e.signature(),
                                expected.join(", ")
                            ),
                        ))
                    }
                    _ => None,
                };
                if let Some((kind, detail)) = judged {
                    self.detections.push(Detection {
                        kind,
                        scenario: scenario.clone(),
                        channels: distinct_channels(self.fired.iter().map(|f| f.channel)),
                        seq,
                        at_ms,
                        detail,
                    });
                }
            }

            if self.ops != baseline {
                let divergence = self
                    .ops
                    .iter()
                    .zip(baseline)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| self.ops.len().min(baseline.len()));
                let channels = match self
                    .ops
                    .get(divergence)
                    .or_else(|| baseline.get(divergence))
                {
                    Some((channel, _)) => vec![*channel],
                    None => Vec::new(),
                };
                self.detections.push(Detection {
                    kind: DetectionKind::PatternAnomaly,
                    scenario: scenario.clone(),
                    channels,
                    seq: divergence as u64,
                    at_ms: 0,
                    detail: format!(
                        "crossing sequence diverged from baseline at #{divergence} \
                         (observed {} ops, baseline {})",
                        self.ops.len(),
                        baseline.len()
                    ),
                });
            }

            let window = self.spec.config.co_window_ms;
            let mut cluster: Vec<(u64, u64, Channel)> = Vec::new();
            let mut clusters: Vec<Vec<(u64, u64, Channel)>> = Vec::new();
            for &event in &self.faulted {
                match cluster.last() {
                    Some(&(_, last_at, _)) if event.1.saturating_sub(last_at) <= window => {
                        cluster.push(event);
                    }
                    Some(_) => {
                        clusters.push(std::mem::take(&mut cluster));
                        cluster.push(event);
                    }
                    None => cluster.push(event),
                }
            }
            if !cluster.is_empty() {
                clusters.push(cluster);
            }
            for cluster in clusters {
                let channels = distinct_channels(cluster.iter().map(|&(_, _, c)| c));
                if channels.len() >= 2 {
                    let (seq, at_ms, _) = cluster[0];
                    self.detections.push(Detection {
                        kind: DetectionKind::CoOccurrence,
                        scenario: scenario.clone(),
                        channels: channels.clone(),
                        seq,
                        at_ms,
                        detail: format!(
                            "{} faulted crossings across {} channels within {window}ms windows",
                            cluster.len(),
                            channels.len()
                        ),
                    });
                }
            }
            self.detections
        }
    }

    const OPS: [&str; 3] = ["get_table", "create", "read"];

    /// Crossings from `(channel, op, class, gap)` draws: class 0 is clean,
    /// 1–4 a fault of each kind, 5 a note; `gap` is the virtual time since
    /// the previous crossing.
    fn crossings_of(draws: Vec<(usize, usize, u8, u64)>) -> Vec<Crossing> {
        let mut at_ms = 0;
        draws
            .into_iter()
            .enumerate()
            .map(|(i, (channel, op, class, gap))| {
                at_ms += gap;
                let (channel, op) = (Channel::ALL[channel], OPS[op]);
                let kind = match class {
                    1 => Some(FaultKind::Latency { ms: gap }),
                    2 => Some(FaultKind::Timeout { ms: gap }),
                    3 => Some(FaultKind::Unavailable),
                    4 => Some(FaultKind::CorruptPayload),
                    _ => None,
                };
                let outcome = match kind {
                    Some(kind) => CrossingOutcome::Faulted {
                        fault: InjectedFault {
                            spec_id: format!("f{i}"),
                            channel,
                            op: op.to_string(),
                            kind,
                            call: i as u64,
                        },
                    },
                    None if class == 5 => CrossingOutcome::Noted {
                        info: "served-by=primary".into(),
                    },
                    None => CrossingOutcome::Clean,
                };
                Crossing {
                    seq: i as u64,
                    at_ms,
                    call: BoundaryCall::new(channel, op),
                    outcome,
                }
            })
            .collect()
    }

    /// The surfaced error of class `class`: none, a crash, a rejection no
    /// fault translates to, or the canonical signature of the first faulted
    /// crossing that has one (the rejection when none does).
    fn surfaced_of(class: u8, crossings: &[Crossing]) -> Option<InteractionError> {
        let generic = InteractionError::new("spark", ErrorKind::Rejected, "INTERNAL", "boom");
        match class {
            0 => None,
            1 => Some(InteractionError::crash("spark", "NPE", "null")),
            2 => Some(generic),
            _ => Some(
                faulted(crossings)
                    .find_map(|(_, f)| canonical_signature(f.channel, f.kind))
                    .map_or(generic, |(kind, code)| {
                        InteractionError::new("hive", kind, code, "down")
                    }),
            ),
        }
    }

    fn arb_draws() -> impl Strategy<Value = Vec<(usize, usize, u8, u64)>> {
        proptest::collection::vec(
            (0..Channel::ALL.len(), 0..OPS.len(), 0u8..6, 0u64..40),
            0..24,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Judging a trace is feeding its crossings to the streaming
        /// detector, for every crossing class and fault kind, gaps,
        /// thresholds 1–4, windows, a twin that crossed the same sequence
        /// or a prefix of it plus other crossings, and every class of
        /// surfaced error.
        #[test]
        fn detect_is_the_streaming_reference(
            draws in arb_draws(),
            others in arb_draws(),
            (storm_threshold, co_window_ms, diverged, prefix) in
                (1u64..5, 0u64..60, any::<bool>(), 0usize..32),
            surfaced in 0u8..4,
        ) {
            let trace = InteractionTrace { crossings: crossings_of(draws) };
            let twin = if diverged {
                let mut crossings = trace.crossings[..prefix.min(trace.len())].to_vec();
                crossings.extend(crossings_of(others));
                InteractionTrace { crossings }
            } else {
                trace.clone()
            };
            let detector = build(DetectorConfig { storm_threshold, co_window_ms });
            let surfaced = surfaced_of(surfaced, &trace.crossings);
            let mut reference = OnlineDetector::begin(&detector, "s");
            for crossing in &trace.crossings {
                reference.observe(crossing);
            }
            let twin_ops: Vec<_> = twin
                .crossings
                .iter()
                .map(|c| (c.call.channel, c.call.op.clone()))
                .collect();
            prop_assert_eq!(
                detector.detect("s", &trace, &twin, surfaced.as_ref()),
                reference.finish(&twin_ops, surfaced.as_ref())
            );
        }
    }

    #[test]
    fn agreement_ratios() {
        let mut a = DetectorAgreement::default();
        assert_eq!(a.precision(), 1.0);
        assert_eq!(a.recall(), 1.0);
        a.score(true, true);
        a.score(true, true);
        a.score(false, false);
        a.score(true, false);
        a.score(false, true);
        assert_eq!(a.total(), 5);
        assert_eq!(a.true_positives, 2);
        assert_eq!(a.false_negatives, 1);
        assert_eq!(a.false_positives, 1);
        assert_eq!(a.true_negatives, 1);
        assert!((a.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.recall() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn detections_round_trip_through_serde() {
        let detection = Detection {
            kind: DetectionKind::CoOccurrence,
            scenario: "sh:spark-sql->hiveql:orc:i1".into(),
            channels: vec![Channel::Metastore, Channel::Hdfs],
            seq: 7,
            at_ms: 103,
            detail: "2 faulted crossings across 2 channels".into(),
        };
        let json = serde_json::to_string(&detection).unwrap();
        let back: Detection = serde_json::from_str(&json).unwrap();
        assert_eq!(back, detection);
    }
}
