//! The judge: the one module that turns observations into verdicts.
//!
//! Every [`crate::Campaign`] mode records [`Observation`]s and hands them
//! here. The `Classifier` runs the three oracles of Section 8.1 over them
//! (write–read or error-handling per observation, differential per
//! experiment), and groups the raw failures into the 15 distinct
//! discrepancies of Section 8.2:
//!
//! "There will be many more test failures produced than the ones listed,
//! but they correspond to the same discrepancies as those shown" — this
//! module performs that correspondence. Each discrepancy has a predicate
//! over (input, input-wide error summary, failure); a failure may evidence
//! several discrepancies (the paper's own category lists overlap), and a
//! failure matching none lands in `unattributed`.
//!
//! The grid merge, explore's absorption and the shrinker's triggering check
//! drive a `Classifier` incrementally; [`classify`] is the batch entry
//! over the same attribution, for callers that ran the oracles themselves.
//! Both end in one step that also writes each discrepancy's [`Finding`].

use crate::campaign::{crack, CampaignOutcome, Evidence, Finding};
use crate::generator::{TestInput, Validity};
use crate::plan::Experiment;
use csi_core::boundary::{channel_totals, faulted};
use csi_core::detect::DetectionTally;
use csi_core::fault::InjectedFault;
use csi_core::oracle::{
    check_differential, check_error_handling, check_write_read, differential_of, Observation,
    OracleFailure,
};
use csi_core::report::{Discrepancy, DiscrepancyReport, ProblemCategory};
use csi_core::value::{parse_timestamp, DataType, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Error codes observed anywhere for one input, across every plan/format.
#[derive(Debug, Default)]
struct InputSummary {
    /// Machine-readable error codes from writes and reads.
    codes: BTreeSet<String>,
}

impl InputSummary {
    fn fold(&mut self, obs: &Observation) {
        if let Err(e) = &obs.write.result {
            self.codes.insert(e.code.clone());
        }
        if let Some(Err(e)) = obs.read.as_ref().map(|read| &read.result) {
            self.codes.insert(e.code.clone());
        }
    }
}

fn ty_contains_small_int(ty: &DataType) -> bool {
    match ty {
        DataType::Byte | DataType::Short => true,
        DataType::Array(e) => ty_contains_small_int(e),
        DataType::Map(k, v) => ty_contains_small_int(k) || ty_contains_small_int(v),
        DataType::Struct(fields) => fields.iter().any(|f| ty_contains_small_int(&f.data_type)),
        _ => false,
    }
}

fn map_with_non_string_key(ty: &DataType) -> bool {
    match ty {
        DataType::Map(k, _) => **k != DataType::String,
        DataType::Array(e) => map_with_non_string_key(e),
        DataType::Struct(fields) => fields.iter().any(|f| map_with_non_string_key(&f.data_type)),
        _ => false,
    }
}

fn struct_with_mixed_case(ty: &DataType) -> bool {
    match ty {
        DataType::Struct(fields) => fields.iter().any(|f| {
            f.name.bytes().any(|b| b.is_ascii_uppercase()) || struct_with_mixed_case(&f.data_type)
        }),
        DataType::Array(e) => struct_with_mixed_case(e),
        DataType::Map(k, v) => struct_with_mixed_case(k) || struct_with_mixed_case(v),
        _ => false,
    }
}

fn timestamp_before(value: &Value, instant: &str) -> bool {
    match value {
        Value::Timestamp(us) => *us < parse_timestamp(instant).expect("static instant"),
        _ => false,
    }
}

fn date_out_of_range(value: &Value) -> bool {
    matches!(value, Value::Date(d)
        if !(minispark::types::MIN_DATE_DAYS..=minispark::types::MAX_DATE_DAYS).contains(d))
}

fn interval_negative(value: &Value) -> bool {
    matches!(value, Value::Interval { months, micros } if *months < 0 || *micros < 0)
}

struct Descriptor {
    id: &'static str,
    issue_keys: &'static [&'static str],
    title: &'static str,
    categories: &'static [ProblemCategory],
    /// The oracle that *identifies* this discrepancy (the artifact names
    /// each finding by its oracle: `ss_difft 0`, `ss_eh 198`, ...). Used to
    /// decide whether a discrepancy is still *active* under a different
    /// configuration: evidence from secondary oracles (e.g. a WR failure
    /// on a value legitimately stored in converted form) does not keep a
    /// resolved discrepancy alive.
    primary: csi_core::oracle::OracleKind,
    predicate: fn(&TestInput, &InputSummary, &OracleFailure) -> bool,
}

use ProblemCategory::{
    CannotReadWritten as CRW, CustomConfigReliance as CCR, InconsistentErrorBehavior as IEB,
    InternalConfigExposure as ICE, TypeViolation as TV,
};

/// The discrepancy catalogue (DESIGN.md's D01–D15 table).
const CATALOGUE: &[Descriptor] = &[
    Descriptor {
        id: "D01",
        primary: csi_core::oracle::OracleKind::WriteRead,
        issue_keys: &["SPARK-39075"],
        title: "BYTE/SHORT written through Avro cannot be read back (widened to INT, \
                narrowing case missing)",
        categories: &[CRW, ICE, IEB],
        predicate: |input, summary, _| {
            ty_contains_small_int(&input.column_type)
                && summary.codes.contains("INCOMPATIBLE_SCHEMA")
        },
    },
    Descriptor {
        id: "D02",
        primary: csi_core::oracle::OracleKind::WriteRead,
        issue_keys: &["SPARK-39158"],
        title: "Valid decimals written from DataFrame (runtime scale) cannot be read \
                from HiveQL (declared-scale validation)",
        categories: &[CRW, ICE],
        predicate: |input, summary, _| {
            matches!(input.column_type, DataType::Decimal(_, _))
                && input.validity == Validity::Valid
                && summary.codes.contains("SERDE_ERROR")
        },
    },
    Descriptor {
        id: "D03",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["HIVE-26533", "SPARK-40409"],
        title: "SparkSQL DDL widens BYTE/SHORT to INT and folds identifier case \
                ('not case preserving')",
        categories: &[TV, ICE],
        predicate: |input, _, failure| {
            // Valid BYTE/SHORT inputs come back widened ("i32:" in the
            // evidence); invalid ones get *silently accepted* because the
            // widened INT column no longer overflows — both are fruits of
            // the same DDL conversion.
            ty_contains_small_int(&input.column_type)
                && (failure.detail.contains("i32:") || input.validity == Validity::Invalid)
        },
    },
    Descriptor {
        id: "D04",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["HIVE-26531"],
        title: "Avro rejects non-STRING map keys; ORC and Parquet accept them",
        categories: &[ICE],
        predicate: |input, _, _| map_with_non_string_key(&input.column_type),
    },
    Descriptor {
        id: "D05",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["SPARK-40439"],
        title: "Numeric overflow: SparkSQL (ANSI) raises, DataFrame silently writes NULL",
        categories: &[IEB, CCR],
        predicate: |_, summary, _| summary.codes.contains("CAST_OVERFLOW"),
    },
    Descriptor {
        id: "D06",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["HIVE-26528"],
        title: "Pre-1900 timestamps in ORC: Spark raises, HiveQL writes NULL with a log line",
        categories: &[ICE],
        predicate: |input, summary, failure| {
            timestamp_before(&input.value, "1900-01-01 00:00:00")
                && (summary.codes.contains("ORC_TIMESTAMP_RANGE")
                    || failure.formats.iter().any(|f| f == "ORC"))
        },
    },
    Descriptor {
        id: "D07",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["HIVE-26528"],
        title: "Pre-1582 timestamps in Parquet: Hive writes Julian-rebased, Spark reads \
                the raw (shifted) instant",
        categories: &[],
        predicate: |input, _, failure| {
            timestamp_before(&input.value, "1582-10-15 00:00:00")
                && failure.formats.iter().any(|f| f == "PARQUET")
        },
    },
    Descriptor {
        id: "D08",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["SPARK-40616"],
        title: "CHAR/VARCHAR overflow: SparkSQL raises, HiveQL truncates",
        categories: &[TV, CCR],
        predicate: |_, summary, _| summary.codes.contains("EXCEEDS_CHAR_VARCHAR_LENGTH"),
    },
    Descriptor {
        id: "D09",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["SPARK-40525"],
        title: "Unparseable/unpadded inputs: SparkSQL (ANSI) raises CAST_INVALID_INPUT, \
                Hive and DataFrame coerce",
        categories: &[IEB, CCR],
        predicate: |input, summary, _| {
            summary.codes.contains("CAST_INVALID_INPUT") && input.column_type != DataType::Boolean
        },
    },
    Descriptor {
        id: "D10",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["SPARK-40624"],
        title: "INTERVAL columns: SparkSQL rejects the Hive table type, DataFrame stores \
                them as STRING",
        categories: &[IEB, CCR],
        predicate: |input, _, _| {
            input.column_type == DataType::Interval && !interval_negative(&input.value)
        },
    },
    Descriptor {
        id: "D11",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["SPARK-40624"],
        title: "Negative INTERVAL values: same root cause, resolved by the same \
                configuration",
        categories: &[IEB, CCR],
        predicate: |input, _, _| {
            input.column_type == DataType::Interval && interval_negative(&input.value)
        },
    },
    Descriptor {
        id: "D12",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["SPARK-40629"],
        title: "String-to-BOOLEAN: HiveQL accepts 't'/'1'/'yes', SparkSQL (ANSI) only \
                'true'/'false'",
        categories: &[IEB, CCR],
        predicate: |input, _, _| {
            input.column_type == DataType::Boolean && input.validity == Validity::Invalid
        },
    },
    Descriptor {
        id: "D13",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["spark.sql.legacy.charVarcharAsString"],
        title: "CHAR padding: SparkSQL reads blank-padded values, DataFrame trims them",
        categories: &[IEB, CCR],
        predicate: |input, _, _| {
            matches!(input.column_type, DataType::Char(_)) && input.validity == Validity::Valid
        },
    },
    Descriptor {
        id: "D14",
        primary: csi_core::oracle::OracleKind::Differential,
        issue_keys: &["SPARK-40637"],
        title: "Nested STRUCT field names: Hive folds to lowercase, Spark resolves \
                case-sensitively",
        categories: &[],
        predicate: |input, _, _| struct_with_mixed_case(&input.column_type),
    },
    Descriptor {
        id: "D15",
        primary: csi_core::oracle::OracleKind::ErrorHandling,
        issue_keys: &["SPARK-40630"],
        title: "Out-of-range DATE accepted silently by the DataFrame writer (inserted \
                and read back)",
        categories: &[CCR],
        predicate: |input, summary, _| {
            date_out_of_range(&input.value) || summary.codes.contains("DATE_OUT_OF_RANGE")
        },
    },
];

/// The catalogue ids a single failure evidences, given the per-input error
/// summary accumulated so far.
fn match_ids(
    input: &TestInput,
    summary: &InputSummary,
    failure: &OracleFailure,
) -> Vec<&'static str> {
    CATALOGUE
        .iter()
        .filter(|desc| (desc.predicate)(input, summary, failure))
        .map(|desc| desc.id)
        .collect()
}

/// The discrepancies *active* in a report: those with evidence from their
/// primary oracle.
///
/// This is the presence notion used to decide which discrepancies a custom
/// configuration resolves (Section 8.2: "developers pointed out that the
/// discrepancies can be resolved by custom configurations"): a discrepancy
/// identified by the differential oracle is resolved once all interfaces
/// behave consistently, even if individual write–read conversions remain.
pub fn active_ids(report: &DiscrepancyReport) -> Vec<String> {
    let primary: BTreeMap<&str, csi_core::oracle::OracleKind> =
        CATALOGUE.iter().map(|d| (d.id, d.primary)).collect();
    report
        .discrepancies
        .iter()
        .filter(|d| {
            let Some(kind) = primary.get(d.id.as_str()) else {
                return true;
            };
            d.evidence.iter().any(|f| f.oracle == *kind)
        })
        .map(|d| d.id.clone())
        .collect()
}

/// The incremental judge of one campaign: observations go in one at a
/// time, in the order the mode decides; failures and the report come out.
/// An experiment is named by its position in the list given to `new`, so
/// a list that repeats one keeps a differential group per entry.
pub(crate) struct Classifier {
    experiments: Vec<Experiment>,
    /// Observations per experiment, in absorb order.
    observations: Vec<Vec<Observation>>,
    /// Per-observation failures in absorb order; a sealed experiment's
    /// differential failures sit where the seal fell.
    failures: Vec<OracleFailure>,
    sealed: Vec<bool>,
    summaries: BTreeMap<usize, InputSummary>,
    index: DiscoveryIndex,
}

/// `discoveries`' own index of what was absorbed, extended from its
/// watermarks only when `discoveries` runs.
struct DiscoveryIndex {
    /// Observations already indexed, per experiment.
    looked: Vec<usize>,
    /// Per experiment: input id → positions of its observations.
    members: Vec<BTreeMap<usize, Vec<usize>>>,
    /// Failures already indexed.
    looked_failures: usize,
    /// Input id → positions of its failures in `failures`.
    failed_at: BTreeMap<usize, Vec<usize>>,
}

impl Classifier {
    pub(crate) fn new(experiments: &[Experiment]) -> Classifier {
        Classifier {
            experiments: experiments.to_vec(),
            observations: vec![Vec::new(); experiments.len()],
            failures: Vec::new(),
            sealed: vec![false; experiments.len()],
            summaries: BTreeMap::new(),
            index: DiscoveryIndex {
                looked: vec![0; experiments.len()],
                members: vec![BTreeMap::new(); experiments.len()],
                looked_failures: 0,
                failed_at: BTreeMap::new(),
            },
        }
    }

    /// Takes one observation of `input`: folds its error codes into the
    /// input's summary, then runs the per-observation oracle — write–read
    /// for a valid input, error-handling for an invalid one. A failure
    /// comes back with the catalogue ids it evidences under the summary
    /// *so far*; the report attributes under the complete one.
    pub(crate) fn absorb(
        &mut self,
        experiment: usize,
        input: &TestInput,
        obs: Observation,
    ) -> Option<(&OracleFailure, Vec<&'static str>)> {
        let summary = self.summaries.entry(obs.input_id).or_default();
        summary.fold(&obs);
        let failure = match input.validity {
            Validity::Valid => check_write_read(input.expected(), &obs),
            Validity::Invalid => check_error_handling(&input.value, &obs),
        };
        self.observations[experiment].push(obs);
        let failure = failure?;
        let ids = match_ids(input, summary, &failure);
        self.failures.push(failure);
        Some((self.failures.last()?, ids))
    }

    /// Declares an experiment complete: its differential failures take
    /// their place in the failure order here, ahead of anything absorbed
    /// later. The grid seals each experiment as its merge leaves it; a
    /// mode that interleaves experiments never seals, and every
    /// differential follows every per-observation failure.
    pub(crate) fn seal(&mut self, experiment: usize) {
        if !std::mem::replace(&mut self.sealed[experiment], true) {
            self.failures
                .extend(check_differential(&self.observations[experiment]));
        }
    }

    /// For each catalogue id not yet `known`, the input of the first
    /// failure so far that evidences it — explore's discovery tracker.
    /// Failures are visited as a full rescan would: the absorbed ones,
    /// then the differential of each open experiment in experiment order.
    ///
    /// `known` must hold every id an earlier call returned. A failure's
    /// evidence changes only when its input is absorbed again, so only
    /// the inputs absorbed since the last call are matched; every other
    /// failure evidences known ids. Runs no oracle once every id is known.
    pub(crate) fn discoveries(
        &mut self,
        inputs: &[TestInput],
        known: impl Fn(&str) -> bool,
    ) -> Vec<(&'static str, usize)> {
        let mut found: Vec<(&'static str, usize)> = Vec::new();
        if CATALOGUE.iter().all(|desc| known(desc.id)) {
            return found;
        }
        let index = &mut self.index;
        let mut touched = BTreeSet::new();
        for (e, observations) in self.observations.iter().enumerate() {
            for (at, obs) in observations.iter().enumerate().skip(index.looked[e]) {
                index.members[e].entry(obs.input_id).or_default().push(at);
                touched.insert(obs.input_id);
            }
            index.looked[e] = observations.len();
        }
        for (at, failure) in self.failures.iter().enumerate().skip(index.looked_failures) {
            index
                .failed_at
                .entry(failure.input_id)
                .or_default()
                .push(at);
        }
        index.looked_failures = self.failures.len();

        let mut note = |failure: &OracleFailure| {
            for id in evidenced(inputs, &self.summaries, failure).unwrap_or_default() {
                if !known(id) && found.iter().all(|(seen, _)| *seen != id) {
                    found.push((id, failure.input_id));
                }
            }
        };
        let mut failed: Vec<usize> = touched
            .iter()
            .filter_map(|id| index.failed_at.get(id))
            .flatten()
            .copied()
            .collect();
        failed.sort_unstable();
        for at in failed {
            note(&self.failures[at]);
        }
        for (e, observations) in self.observations.iter().enumerate() {
            if self.sealed[e] {
                continue;
            }
            for &id in &touched {
                let Some(group) = index.members[e].get(&id) else {
                    continue;
                };
                if let Some(failure) =
                    differential_of(id, group.iter().map(|&at| &observations[at]))
                {
                    note(&failure);
                }
            }
        }
        found
    }

    /// The campaign's outcome over `inputs`: its report and findings, and
    /// every observation tagged with its experiment, in absorb order.
    pub(crate) fn finish(
        mut self,
        inputs: &[TestInput],
        detector_enabled: bool,
    ) -> CampaignOutcome {
        // Sealing what is still open puts each open experiment's
        // differential after every absorbed failure, in experiment order:
        // the order `discoveries` visits.
        for experiment in 0..self.experiments.len() {
            self.seal(experiment);
        }
        let total = self.observations.iter().map(Vec::len).sum();
        let mut observations: Vec<(Experiment, Observation)> = Vec::with_capacity(total);
        let mut positions = Vec::with_capacity(total);
        for (experiment, of) in self.experiments.into_iter().zip(self.observations) {
            for obs in of {
                positions.push((obs.input_id, observations.len()));
                observations.push((experiment, obs));
            }
        }
        let (report, findings) = judge(
            inputs,
            &observations,
            &self.summaries,
            positions,
            self.failures,
            detector_enabled,
        );
        CampaignOutcome {
            report,
            observations,
            findings,
            ..CampaignOutcome::default()
        }
    }
}

/// The catalogue ids `failure` evidences under `summaries`; `None` when
/// its input is not among `inputs`.
fn evidenced(
    inputs: &[TestInput],
    summaries: &BTreeMap<usize, InputSummary>,
    failure: &OracleFailure,
) -> Option<Vec<&'static str>> {
    let input = inputs.iter().find(|i| i.id == failure.input_id)?;
    let empty = InputSummary::default();
    let summary = summaries.get(&failure.input_id).unwrap_or(&empty);
    Some(match_ids(input, summary, failure))
}

/// Classifies raw failures into the discrepancy catalogue — the batch
/// entry for a caller that ran the oracles itself, over the same step
/// `Classifier::finish` ends in.
///
/// `detector_enabled` marks whether the campaign ran the online detector:
/// it gates the detection aggregates so a detection-free report and a
/// detection-off report stay distinguishable.
pub fn classify(
    inputs: &[TestInput],
    observations: &[(Experiment, Observation)],
    failures: Vec<OracleFailure>,
    detector_enabled: bool,
) -> DiscrepancyReport {
    let mut summaries: BTreeMap<usize, InputSummary> = BTreeMap::new();
    let mut positions = Vec::with_capacity(observations.len());
    for (at, (_, obs)) in observations.iter().enumerate() {
        summaries.entry(obs.input_id).or_default().fold(obs);
        positions.push((obs.input_id, at));
    }
    let (report, _) = judge(
        inputs,
        observations,
        &summaries,
        positions,
        failures,
        detector_enabled,
    );
    report
}

/// The report, and one [`Finding`] per discrepancy: its `trace` is that of
/// the finding's first evidence observation that recorded one.
/// `summaries` folds every one of `observations` per input, and
/// `positions` holds each one's (input id, position) pair, so that the
/// caller's one walk over them serves both.
fn judge(
    inputs: &[TestInput],
    observations: &[(Experiment, Observation)],
    summaries: &BTreeMap<usize, InputSummary>,
    mut positions: Vec<(usize, usize)>,
    failures: Vec<OracleFailure>,
    detector_enabled: bool,
) -> (DiscrepancyReport, Vec<Finding>) {
    positions.sort_unstable();
    let mut evidence: BTreeMap<&'static str, Vec<OracleFailure>> = BTreeMap::new();
    let mut unattributed = Vec::new();
    for failure in &failures {
        let ids = evidenced(inputs, summaries, failure).unwrap_or_default();
        if ids.is_empty() {
            unattributed.push(failure.clone());
        }
        for id in ids {
            evidence.entry(id).or_default().push(failure.clone());
        }
    }
    let (discrepancies, findings): (Vec<Discrepancy>, Vec<Finding>) = CATALOGUE
        .iter()
        .filter_map(|desc| {
            let ev = evidence.remove(desc.id)?;
            let named = named_observations(&ev, observations, &positions);
            let mut traces = named.iter().map(|&at| &observations[at].1.trace);
            let first = traces.clone().next();
            let trace = traces.find(|t| !t.is_empty()).map(|t| t.compact());
            let finding = Finding {
                id: desc.id.to_string(),
                evidence: Evidence::Observations(named),
                crack: first.and_then(|t| crack(faulted(&t.crossings))),
            };
            let discrepancy = Discrepancy {
                id: desc.id.to_string(),
                issue_keys: desc.issue_keys.iter().map(|s| s.to_string()).collect(),
                title: desc.title.to_string(),
                categories: desc.categories.to_vec(),
                evidence: ev,
                trace: trace.unwrap_or_default(),
            };
            Some((discrepancy, finding))
        })
        .unzip();
    let trace_totals = channel_totals(observations.iter().map(|(_, obs)| &obs.trace));
    let mut tally = DetectionTally::default();
    if detector_enabled {
        for (_, obs) in observations {
            let fired: Vec<InjectedFault> = faulted(&obs.trace.crossings)
                .map(|(_, fault)| fault.clone())
                .collect();
            tally.record(&obs.detections, &fired, obs.surfaced());
        }
    }
    let valid = inputs
        .iter()
        .filter(|i| i.validity == Validity::Valid)
        .count();
    let report = DiscrepancyReport {
        inputs_total: inputs.len(),
        inputs_valid: valid,
        inputs_invalid: inputs.len() - valid,
        observations: observations.len(),
        raw_failures: failures,
        discrepancies,
        unattributed,
        trace_totals,
        detector_enabled,
        detection_totals: tally.totals,
        detection_kinds: tally.kinds,
        detector_agreement: tally.agreement,
    };
    (report, findings)
}

/// The positions of the observations `failures` name (same input, one of
/// the failure's plans and formats): failure by failure, each failure's in
/// outcome order, none twice. `positions` is every (input id, position)
/// pair of `observations`, sorted.
fn named_observations(
    failures: &[OracleFailure],
    observations: &[(Experiment, Observation)],
    positions: &[(usize, usize)],
) -> Vec<usize> {
    let mut seen = vec![false; observations.len()];
    let mut named = Vec::new();
    for failure in failures {
        let from = positions.partition_point(|&(id, _)| id < failure.input_id);
        let of_input = positions[from..]
            .iter()
            .take_while(|(id, _)| *id == failure.input_id);
        for &(_, at) in of_input {
            let obs = &observations[at].1;
            if failure.plans.contains(&obs.plan)
                && failure.formats.contains(&obs.format)
                && !std::mem::replace(&mut seen[at], true)
            {
                named.push(at);
            }
        }
    }
    named
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_the_paper_counts() {
        assert_eq!(CATALOGUE.len(), 15);
        let count = |c: ProblemCategory| {
            CATALOGUE
                .iter()
                .filter(|d| d.categories.contains(&c))
                .count()
        };
        // Section 8.2: 2 / 2 / 5 / 7 / 8.
        assert_eq!(count(CRW), 2, "cannot read what was written");
        assert_eq!(count(TV), 2, "type violations");
        assert_eq!(count(ICE), 5, "internal configuration exposure");
        assert_eq!(count(IEB), 7, "inconsistent error behavior");
        assert_eq!(count(CCR), 8, "custom configuration reliance");
    }

    #[test]
    fn the_incremental_and_the_batch_entry_write_the_same_report() {
        // An armed fault under the detector puts the detection tally and
        // the agreement score on the compared bytes too.
        let inputs = &crate::generator::catalogue()[..12];
        let mut plan = crate::inject::small_fault_catalogue(7);
        plan.faults.retain(|f| f.id == "hdfs-corrupt-read");
        let outcome = crate::Campaign::new(inputs).faults(plan).detect(true).run();
        assert!(outcome.report.detector_agreement.is_some());
        for detector_enabled in [true, false] {
            let mut judge = Classifier::new(&Experiment::ALL);
            for (experiment, obs) in &outcome.observations {
                let at = Experiment::ALL
                    .iter()
                    .position(|e| e == experiment)
                    .unwrap();
                if at > 0 {
                    judge.seal(at - 1);
                }
                judge.absorb(at, &inputs[obs.input_id], obs.clone());
            }
            let finished = judge.finish(inputs, detector_enabled);
            let (incremental, observations) = (finished.report, finished.observations);
            assert_eq!(observations, outcome.observations);
            let failures = incremental.raw_failures.clone();
            let batch = classify(inputs, &observations, failures, detector_enabled);
            assert_eq!(
                serde_json::to_string(&incremental).unwrap(),
                serde_json::to_string(&batch).unwrap()
            );
            if detector_enabled {
                assert_eq!(incremental, outcome.report, "what the campaign ran");
            }
        }
    }

    /// The discovery tracker before it was incremental: every failure so
    /// far — the absorbed ones, then each open experiment's differential —
    /// matched under the current summaries, first input per new id.
    fn rescan(
        judge: &Classifier,
        inputs: &[TestInput],
        known: &BTreeSet<&str>,
    ) -> Vec<(&'static str, usize)> {
        let mut failures = judge.failures.clone();
        for (observations, sealed) in judge.observations.iter().zip(&judge.sealed) {
            if !sealed {
                failures.extend(check_differential(observations));
            }
        }
        let mut found: Vec<(&'static str, usize)> = Vec::new();
        for failure in &failures {
            for id in evidenced(inputs, &judge.summaries, failure).unwrap_or_default() {
                if !known.contains(id) && found.iter().all(|(seen, _)| *seen != id) {
                    found.push((id, failure.input_id));
                }
            }
        }
        found
    }

    #[test]
    fn discoveries_answer_what_a_full_rescan_answers() {
        let inputs = crate::generator::catalogue();
        let mut observations = crate::Campaign::new(inputs).run().observations;
        // A seeded shuffle that keeps catalogue order loosely: each
        // observation lands a random quarter-run after its input's id, or
        // a further quarter later. Inputs come back in later rounds, the
        // experiments interleave, and since the catalogue groups inputs by
        // type family, ids are still being found when the seal falls.
        let n = inputs.len() as u64;
        let mut state = 7;
        observations.sort_by_cached_key(|(_, obs)| {
            let mut draw = || csi_core::rng::splitmix64(&mut state);
            let slot = obs.input_id as u64 + draw() % (n / 4) + draw() % 2 * (n / 4);
            (slot, draw())
        });
        let rounds: Vec<_> = observations.chunks(64).collect();
        let mut judge = Classifier::new(&Experiment::ALL);
        let mut known: BTreeSet<&str> = BTreeSet::new();
        let mut first_round: BTreeMap<usize, usize> = BTreeMap::new();
        let (mut revisited, mut after_seal) = (0, 0);
        for (round, chunk) in rounds.iter().enumerate() {
            let sealed = round >= rounds.len() / 2;
            if round == rounds.len() / 2 {
                judge.seal(1);
            }
            for (experiment, obs) in chunk.iter() {
                let at = Experiment::ALL.iter().position(|e| e == experiment);
                judge.absorb(at.unwrap(), &inputs[obs.input_id], obs.clone());
                if *first_round.entry(obs.input_id).or_insert(round) < round {
                    revisited += 1;
                }
            }
            let expected = rescan(&judge, inputs, &known);
            let found = judge.discoveries(inputs, |id| known.contains(id));
            assert_eq!(found, expected, "round {round}");
            if sealed {
                after_seal += found.len();
            }
            known.extend(found.iter().map(|(id, _)| *id));
        }
        assert!(revisited > 0, "no input came back in a later round");
        assert!(after_seal > 0, "every id was found before the seal");
        assert_eq!(known.len(), CATALOGUE.len(), "{known:?}");
    }

    #[test]
    fn type_predicates_recurse() {
        assert!(ty_contains_small_int(&DataType::Array(Box::new(
            DataType::Byte
        ))));
        assert!(!ty_contains_small_int(&DataType::Int));
        assert!(map_with_non_string_key(&DataType::Map(
            Box::new(DataType::Int),
            Box::new(DataType::String)
        )));
        assert!(!map_with_non_string_key(&DataType::Map(
            Box::new(DataType::String),
            Box::new(DataType::Int)
        )));
        let mixed = DataType::Struct(vec![csi_core::value::StructField::new(
            "Inner",
            DataType::Int,
        )]);
        assert!(struct_with_mixed_case(&mixed));
    }

    #[test]
    fn value_predicates() {
        assert!(timestamp_before(
            &Value::Timestamp(parse_timestamp("1850-01-01 00:00:00").unwrap()),
            "1900-01-01 00:00:00"
        ));
        assert!(!timestamp_before(
            &Value::Timestamp(parse_timestamp("1950-01-01 00:00:00").unwrap()),
            "1900-01-01 00:00:00"
        ));
        assert!(date_out_of_range(&Value::Date(
            minispark::types::MAX_DATE_DAYS + 1
        )));
        assert!(!date_out_of_range(&Value::Date(0)));
        assert!(interval_negative(&Value::Interval {
            months: -1,
            micros: 0
        }));
    }
}
