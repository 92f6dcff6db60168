//! The discrepancy classifier: groups raw oracle failures into the 15
//! distinct discrepancies of Section 8.2.
//!
//! "There will be many more test failures produced than the ones listed,
//! but they correspond to the same discrepancies as those shown" — this
//! module performs that correspondence. Each discrepancy has a predicate
//! over (input, input-wide error summary, failure); a failure may evidence
//! several discrepancies (the paper's own category lists overlap), and a
//! failure matching none lands in `unattributed`.

use crate::generator::{TestInput, Validity};
use crate::plan::Experiment;
use csi_core::boundary::CrossingOutcome;
use csi_core::detect::{flags_error_handling, DetectorAgreement};
use csi_core::fault::{classify_fault_outcome, FaultOutcome, InjectedFault};
use csi_core::oracle::{Observation, OracleFailure};
use csi_core::report::{Discrepancy, DiscrepancyReport, ProblemCategory};
use csi_core::value::{parse_timestamp, DataType, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Error codes observed anywhere for one input, across every plan/format.
#[derive(Debug, Default, Clone)]
pub struct InputSummary {
    /// Machine-readable error codes from writes and reads.
    pub codes: BTreeSet<String>,
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
        DataType::Struct(fields) => fields
            .iter()
            .any(|f| f.name != f.name.to_ascii_lowercase() || struct_with_mixed_case(&f.data_type)),
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
/// summary accumulated so far. Shared between the batch classifier and the
/// explore mode's incremental discovery tracker so both attribute failures
/// identically.
pub(crate) fn match_ids(
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

/// Every catalogue id, in catalogue (report) order.
pub(crate) fn catalogue_ids() -> Vec<&'static str> {
    CATALOGUE.iter().map(|d| d.id).collect()
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

/// Classifies raw failures into the discrepancy catalogue.
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
    // Build per-input error summaries across all observations.
    let mut summaries: BTreeMap<usize, InputSummary> = BTreeMap::new();
    for (_, obs) in observations {
        let s = summaries.entry(obs.input_id).or_default();
        if let Err(e) = &obs.write.result {
            s.codes.insert(e.code.clone());
        }
        if let Some(read) = &obs.read {
            if let Err(e) = &read.result {
                s.codes.insert(e.code.clone());
            }
        }
    }
    let empty = InputSummary::default();
    let mut evidence: BTreeMap<&'static str, Vec<OracleFailure>> = BTreeMap::new();
    let mut unattributed = Vec::new();
    for failure in &failures {
        let Some(input) = inputs.iter().find(|i| i.id == failure.input_id) else {
            unattributed.push(failure.clone());
            continue;
        };
        let summary = summaries.get(&failure.input_id).unwrap_or(&empty);
        let ids = match_ids(input, summary, failure);
        if ids.is_empty() {
            unattributed.push(failure.clone());
        }
        for id in ids {
            evidence.entry(id).or_default().push(failure.clone());
        }
    }
    let discrepancies: Vec<Discrepancy> = CATALOGUE
        .iter()
        .filter_map(|desc| {
            let ev = evidence.remove(desc.id)?;
            let trace = representative_trace(&ev, observations);
            Some(Discrepancy {
                id: desc.id.to_string(),
                issue_keys: desc.issue_keys.iter().map(|s| s.to_string()).collect(),
                title: desc.title.to_string(),
                categories: desc.categories.to_vec(),
                evidence: ev,
                trace,
            })
        })
        .collect();
    let mut trace_totals: BTreeMap<String, usize> = BTreeMap::new();
    for (_, obs) in observations {
        for (channel, n) in obs.trace.channel_counts() {
            *trace_totals.entry(channel).or_insert(0) += n;
        }
    }
    // Detection aggregates: per-channel and per-kind totals, plus the
    // agreement score against the offline §9 oracle over every
    // observation whose trace shows a fired fault.
    let mut detection_totals: BTreeMap<String, usize> = BTreeMap::new();
    let mut detection_kinds: BTreeMap<String, usize> = BTreeMap::new();
    let mut agreement = DetectorAgreement::default();
    let mut any_fired = false;
    if detector_enabled {
        for (_, obs) in observations {
            for d in &obs.detections {
                *detection_kinds.entry(d.kind.to_string()).or_insert(0) += 1;
                for channel in &d.channels {
                    *detection_totals.entry(channel.to_string()).or_insert(0) += 1;
                }
            }
            let fired: Vec<InjectedFault> = obs
                .trace
                .crossings
                .iter()
                .filter_map(|c| match &c.outcome {
                    CrossingOutcome::Faulted { fault } => Some(fault.clone()),
                    _ => None,
                })
                .collect();
            if fired.is_empty() {
                continue;
            }
            any_fired = true;
            let oracle = classify_fault_outcome(&fired, obs.surfaced());
            let oracle_positive = matches!(
                oracle,
                FaultOutcome::Swallowed | FaultOutcome::Mistranslated
            );
            agreement.score(oracle_positive, flags_error_handling(&obs.detections));
        }
    }
    let valid = inputs
        .iter()
        .filter(|i| i.validity == Validity::Valid)
        .count();
    DiscrepancyReport {
        inputs_total: inputs.len(),
        inputs_valid: valid,
        inputs_invalid: inputs.len() - valid,
        observations: observations.len(),
        raw_failures: failures,
        discrepancies,
        unattributed,
        trace_totals,
        detector_enabled,
        detection_totals,
        detection_kinds,
        detector_agreement: any_fired.then_some(agreement),
    }
}

/// The compact crossing sequence of the first evidencing observation that
/// recorded one — the causal witness rendered under each discrepancy.
fn representative_trace(
    evidence: &[OracleFailure],
    observations: &[(Experiment, Observation)],
) -> Vec<String> {
    for failure in evidence {
        for (_, obs) in observations {
            if obs.input_id == failure.input_id
                && failure.plans.contains(&obs.plan)
                && failure.formats.contains(&obs.format)
                && !obs.trace.is_empty()
            {
                return obs.trace.compact();
            }
        }
    }
    Vec::new()
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
