//! The three test oracles of Section 8.1.
//!
//! 1. **Write–Read (WR)**: for valid data, the data read back must equal the
//!    data written, even across interfaces.
//! 2. **Error handling (EH)**: invalid data must be rejected, or corrected
//!    with feedback (e.g. a log message), during the write.
//! 3. **Differential (Diff)**: results and behavior must be consistent across
//!    interfaces and backend formats.
//!
//! Oracles operate on [`Observation`]s — one write-then-read run through a
//! particular interface pair and storage format — and produce
//! [`OracleFailure`]s, the raw material the discrepancy classifier groups
//! into distinct discrepancies.

use crate::boundary::InteractionTrace;
use crate::column::{ColumnMatch, ValueColumn};
use crate::detect::Detection;
use crate::diag::Diagnostic;
use crate::error::InteractionError;
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::mem;

/// Which oracle produced a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OracleKind {
    /// Write–Read.
    WriteRead,
    /// Error handling.
    ErrorHandling,
    /// Differential.
    Differential,
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleKind::WriteRead => write!(f, "wr"),
            OracleKind::ErrorHandling => write!(f, "eh"),
            OracleKind::Differential => write!(f, "difft"),
        }
    }
}

/// Outcome of a write through one interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WriteOutcome {
    /// `Ok` if the write was accepted.
    pub result: Result<(), InteractionError>,
    /// Diagnostics emitted by either system during the write.
    pub diagnostics: Vec<Diagnostic>,
}

/// Outcome of a read through one interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadOutcome {
    /// The values read back for the column under test, one per row written.
    pub result: Result<Vec<Value>, InteractionError>,
    /// Diagnostics emitted during the read.
    pub diagnostics: Vec<Diagnostic>,
}

/// One write-then-read run of a single test input through a
/// (write interface, read interface, format) combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Identifier of the generated input.
    pub input_id: usize,
    /// The plan, e.g. `"SparkSQL->HiveQL"`.
    pub plan: String,
    /// The storage format, e.g. `"ORC"`.
    pub format: String,
    /// Write outcome.
    pub write: WriteOutcome,
    /// Read outcome; `None` when the write failed and no read was attempted.
    pub read: Option<ReadOutcome>,
    /// The causal sequence of boundary crossings this observation drove.
    pub trace: InteractionTrace,
    /// What the detector judged from the observation's trace (empty when
    /// detection is off).
    pub detections: Vec<Detection>,
}

/// Canonical behavior of an observation, for differential comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Behavior {
    /// The write was rejected; the payload is the error signature.
    WriteRejected(String),
    /// The write succeeded but the read failed.
    ReadFailed(String),
    /// Both succeeded; the payload is the value signature of the rows.
    Values(String),
}

impl fmt::Display for Behavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Behavior::WriteRejected(sig) => write!(f, "write rejected ({sig})"),
            Behavior::ReadFailed(sig) => write!(f, "read failed ({sig})"),
            Behavior::Values(sig) => write!(f, "values {sig}"),
        }
    }
}

/// A [`fmt::Write`] sink that consumes an expected text and fails at the
/// first write that does not continue it.
struct Matching<'a>(&'a str);

impl fmt::Write for Matching<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let rest = self.0.strip_prefix(s).ok_or(fmt::Error)?;
        self.0 = rest;
        Ok(())
    }
}

impl Observation {
    /// The canonical behavior signature of this observation.
    pub fn behavior(&self) -> Behavior {
        let mut payload = String::new();
        let variant = self
            .write_behavior(&mut payload)
            .expect("writing to a String cannot fail");
        variant(payload)
    }

    /// Whether this observation's [`behavior`](Observation::behavior) is
    /// `behavior`, decided by streaming the payload against it instead of
    /// rendering it.
    pub fn has_behavior(&self, behavior: &Behavior) -> bool {
        let (Behavior::WriteRejected(payload)
        | Behavior::ReadFailed(payload)
        | Behavior::Values(payload)) = behavior;
        let mut rest = Matching(payload);
        match self.write_behavior(&mut rest) {
            // An empty payload allocates nothing; only its variant counts.
            Ok(variant) => {
                rest.0.is_empty()
                    && mem::discriminant(&variant(String::new())) == mem::discriminant(behavior)
            }
            Err(fmt::Error) => false,
        }
    }

    /// Writes the behavior's payload to `w` and returns the variant that
    /// wraps it.
    fn write_behavior(
        &self,
        w: &mut impl fmt::Write,
    ) -> Result<fn(String) -> Behavior, fmt::Error> {
        match (&self.write.result, &self.read) {
            (Err(e), _) => {
                e.write_signature(w)?;
                Ok(Behavior::WriteRejected)
            }
            (Ok(()), Some(read)) => match &read.result {
                Err(e) => {
                    e.write_signature(w)?;
                    Ok(Behavior::ReadFailed)
                }
                Ok(values) if values.len() <= 1 => {
                    for (i, v) in values.iter().enumerate() {
                        if i > 0 {
                            w.write_char(';')?;
                        }
                        v.write_signature(w)?;
                    }
                    Ok(Behavior::Values)
                }
                Ok(values) => {
                    // Bulk reads: a per-row signature join would allocate a
                    // string per cell. Digest the rows through the columnar
                    // fingerprint instead; canonically equal multi-row reads
                    // digest equally. Single-row observations (the entire
                    // pre-existing catalogue) keep the legacy signature so
                    // report bytes are unchanged.
                    let col = ValueColumn::from_values(
                        &values
                            .iter()
                            .find_map(Value::natural_type)
                            .unwrap_or(DataType::String),
                        values,
                    );
                    write!(
                        w,
                        "<{} rows digest {:016x}>",
                        values.len(),
                        col.fingerprint()
                    )?;
                    Ok(Behavior::Values)
                }
            },
            (Ok(()), None) => {
                w.write_str("<no read attempted>")?;
                Ok(Behavior::Values)
            }
        }
    }

    /// The error that surfaced to the caller, exactly as the §9 oracle
    /// and the online detector define it: the write error, else the read
    /// error, else nothing.
    pub fn surfaced(&self) -> Option<&InteractionError> {
        match (&self.write.result, &self.read) {
            (Err(e), _) => Some(e),
            (Ok(()), Some(read)) => read.result.as_ref().err(),
            (Ok(()), None) => None,
        }
    }
}

/// A single oracle failure, mirroring one entry of the artifact's
/// `*failed.json` files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleFailure {
    /// The oracle that flagged the failure.
    pub oracle: OracleKind,
    /// The generated input's identifier.
    pub input_id: usize,
    /// Interface combination(s) involved.
    pub plans: Vec<String>,
    /// Format(s) involved.
    pub formats: Vec<String>,
    /// Human-readable description of what diverged.
    pub detail: String,
}

/// Write–Read oracle: for a *valid* input, the written value must be read
/// back unchanged.
///
/// Returns `None` when the oracle passes.
pub fn check_write_read(expected: &Value, obs: &Observation) -> Option<OracleFailure> {
    let fail = |detail: String| {
        Some(OracleFailure {
            oracle: OracleKind::WriteRead,
            input_id: obs.input_id,
            plans: vec![obs.plan.clone()],
            formats: vec![obs.format.clone()],
            detail,
        })
    };
    match (&obs.write.result, &obs.read) {
        (Err(e), _) => fail(format!("valid value rejected on write: {e}")),
        (Ok(()), Some(read)) => match &read.result {
            Err(e) => fail(format!("cannot read what was written: {e}")),
            Ok(values) => {
                if values.len() != 1 {
                    return fail(format!("expected 1 row back, got {}", values.len()));
                }
                if values[0].canonical_eq(expected) {
                    None
                } else {
                    fail(format!(
                        "read back {} but wrote {}",
                        values[0].signature(),
                        expected.signature()
                    ))
                }
            }
        },
        (Ok(()), None) => fail("write succeeded but no read was attempted".into()),
    }
}

/// Vectorized Write–Read oracle over whole columns: the bulk-campaign
/// counterpart of [`check_write_read`].
///
/// Comparison goes through [`ValueColumn::canonical_eq`], whose fast path
/// is a word-wise validity check plus a raw buffer compare — no per-cell
/// enum traffic unless the buffers actually differ. On divergence the
/// failure detail pinpoints the first differing row.
pub fn check_write_read_columns(
    input_id: usize,
    plan: &str,
    format: &str,
    expected: &ValueColumn,
    actual: &ValueColumn,
) -> Option<OracleFailure> {
    judge_write_read_columns(input_id, plan, format, expected, actual).err()
}

/// [`check_write_read_columns`], also saying how a passing column came
/// back: [`ColumnMatch::Identical`] or [`ColumnMatch::Canonical`], from
/// the same [`ValueColumn::compare`] pass that gives the verdict.
pub fn judge_write_read_columns(
    input_id: usize,
    plan: &str,
    format: &str,
    expected: &ValueColumn,
    actual: &ValueColumn,
) -> Result<ColumnMatch, OracleFailure> {
    let matched = expected.compare(actual);
    if matched != ColumnMatch::Unequal {
        return Ok(matched);
    }
    let detail = if expected.len() != actual.len() {
        format!(
            "expected {} rows back, got {}",
            expected.len(),
            actual.len()
        )
    } else {
        let first = (0..expected.len())
            .find(|&i| !expected.get(i).canonical_eq(&actual.get(i)))
            .unwrap_or(0);
        format!(
            "row {first}: read back {} but wrote {}",
            actual.get(first).signature(),
            expected.get(first).signature()
        )
    };
    Err(OracleFailure {
        oracle: OracleKind::WriteRead,
        input_id,
        plans: vec![plan.to_string()],
        formats: vec![format.to_string()],
        detail,
    })
}

/// Error-handling oracle, artifact-faithful: an *invalid* input fails the
/// oracle when it is "successfully inserted and read back" unchanged
/// (e.g. SPARK-40630). Rejections and corrections pass.
pub fn check_error_handling(raw: &Value, obs: &Observation) -> Option<OracleFailure> {
    match (&obs.write.result, &obs.read) {
        (Err(_), _) => None, // Rejected: the oracle passes.
        (Ok(()), Some(read)) => {
            match &read.result {
                // An invalid value that poisons the read is *worse* than a
                // rejection, but the artifact's EH oracle only flags silent
                // acceptance; read errors surface via WR/Diff instead.
                Err(_) => None,
                Ok(values) => {
                    let unchanged =
                        values.len() == 1 && values[0].canonical_eq(raw) && !raw.is_null();
                    if unchanged {
                        Some(OracleFailure {
                            oracle: OracleKind::ErrorHandling,
                            input_id: obs.input_id,
                            plans: vec![obs.plan.clone()],
                            formats: vec![obs.format.clone()],
                            detail: "invalid value successfully inserted and read back".into(),
                        })
                    } else {
                        None
                    }
                }
            }
        }
        (Ok(()), None) => None,
    }
}

/// Differential oracle: all observations of the same input must exhibit the
/// same behavior across interface pairs and formats.
///
/// Returns one failure per input whose observations split into more than one
/// behavior class, in input-id order; see [`differential_of`].
pub fn check_differential(observations: &[Observation]) -> Vec<OracleFailure> {
    let mut by_input: BTreeMap<usize, Vec<&Observation>> = BTreeMap::new();
    for obs in observations {
        by_input.entry(obs.input_id).or_default().push(obs);
    }
    by_input
        .into_iter()
        .filter_map(|(input_id, group)| differential_of(input_id, group))
        .collect()
}

/// The differential oracle over one input's observations, in absorb order:
/// a failure when they split into more than one behavior class; the detail
/// lists each class and its members.
///
/// Only the first observation's behavior is rendered: every other one is
/// matched against it as it streams, and the class map is built only for
/// a group that splits.
pub fn differential_of<'a, G>(input_id: usize, group: G) -> Option<OracleFailure>
where
    G: IntoIterator<Item = &'a Observation>,
    G::IntoIter: Clone,
{
    let group = group.into_iter();
    let mut rest = group.clone();
    let first = rest.next()?.behavior();
    if rest.all(|obs| obs.has_behavior(&first)) {
        return None;
    }
    let mut classes: BTreeMap<Behavior, Vec<&Observation>> = BTreeMap::new();
    for obs in group {
        classes.entry(obs.behavior()).or_default().push(obs);
    }
    if classes.len() < 2 {
        return None;
    }
    let mut plans = Vec::new();
    let mut formats = Vec::new();
    // `behavior <- [plan/format, ...]` per class, ` | `-separated.
    let mut detail = String::new();
    for (class, (behavior, members)) in classes.iter().enumerate() {
        let sep = if class > 0 { " | " } else { "" };
        let _ = write!(detail, "{sep}{behavior} <- [");
        for (i, o) in members.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(detail, "{sep}{}/{}", o.plan, o.format);
        }
        detail.push(']');
        for o in members {
            if !plans.contains(&o.plan) {
                plans.push(o.plan.clone());
            }
            if !formats.contains(&o.format) {
                formats.push(o.format.clone());
            }
        }
    }
    Some(OracleFailure {
        oracle: OracleKind::Differential,
        input_id,
        plans,
        formats,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Level;

    fn ok_obs(input_id: usize, plan: &str, format: &str, value: Value) -> Observation {
        Observation {
            input_id,
            plan: plan.into(),
            format: format.into(),
            write: WriteOutcome {
                result: Ok(()),
                diagnostics: vec![],
            },
            read: Some(ReadOutcome {
                result: Ok(vec![value]),
                diagnostics: vec![],
            }),
            trace: InteractionTrace::default(),
            detections: vec![],
        }
    }

    fn rejected_obs(input_id: usize, plan: &str, format: &str, code: &str) -> Observation {
        Observation {
            input_id,
            plan: plan.into(),
            format: format.into(),
            write: WriteOutcome {
                result: Err(InteractionError::rejected("sys", code, "nope")),
                diagnostics: vec![],
            },
            read: None,
            trace: InteractionTrace::default(),
            detections: vec![],
        }
    }

    #[test]
    fn write_read_passes_on_round_trip() {
        let obs = ok_obs(1, "A->A", "ORC", Value::Int(7));
        assert!(check_write_read(&Value::Int(7), &obs).is_none());
    }

    #[test]
    fn write_read_fails_on_value_change() {
        let obs = ok_obs(1, "A->A", "ORC", Value::Int(8));
        let f = check_write_read(&Value::Int(7), &obs).unwrap();
        assert_eq!(f.oracle, OracleKind::WriteRead);
        assert!(f.detail.contains("read back"));
    }

    #[test]
    fn write_read_fails_on_rejection_and_read_error() {
        let rej = rejected_obs(2, "A->B", "AVRO", "X");
        assert!(check_write_read(&Value::Int(1), &rej).is_some());
        let mut obs = ok_obs(2, "A->B", "AVRO", Value::Int(1));
        obs.read = Some(ReadOutcome {
            result: Err(InteractionError::crash("sys", "BOOM", "bad")),
            diagnostics: vec![],
        });
        let f = check_write_read(&Value::Int(1), &obs).unwrap();
        assert!(f.detail.contains("cannot read"));
    }

    #[test]
    fn error_handling_passes_on_rejection() {
        let obs = rejected_obs(3, "A->A", "ORC", "INVALID");
        assert!(check_error_handling(&Value::Int(999), &obs).is_none());
    }

    #[test]
    fn error_handling_passes_on_corrected_with_feedback() {
        let mut obs = ok_obs(3, "A->A", "ORC", Value::Null);
        obs.write.diagnostics.push(Diagnostic {
            system: "sys".into(),
            level: Level::Warn,
            code: "COERCED".into(),
            message: "out of range -> NULL".into(),
        });
        assert!(check_error_handling(&Value::Int(999), &obs).is_none());
    }

    #[test]
    fn error_handling_fails_on_silent_acceptance() {
        let obs = ok_obs(3, "A->A", "ORC", Value::Int(999));
        let f = check_error_handling(&Value::Int(999), &obs).unwrap();
        assert!(f.detail.contains("inserted and read back"));
    }

    #[test]
    fn error_handling_passes_on_silent_correction() {
        // Corrected with no feedback: the artifact-faithful oracle passes.
        let obs = ok_obs(3, "A->A", "ORC", Value::Null);
        assert!(check_error_handling(&Value::Int(999), &obs).is_none());
    }

    #[test]
    fn differential_passes_when_consistent() {
        let obs = vec![
            ok_obs(5, "A->A", "ORC", Value::Int(1)),
            ok_obs(5, "A->B", "ORC", Value::Int(1)),
            ok_obs(5, "B->A", "PARQUET", Value::Int(1)),
        ];
        assert!(check_differential(&obs).is_empty());
    }

    #[test]
    fn differential_flags_split_behavior() {
        let obs = vec![
            ok_obs(5, "A->A", "ORC", Value::Int(1)),
            rejected_obs(5, "A->B", "ORC", "CAST"),
            ok_obs(6, "A->A", "ORC", Value::Int(2)),
        ];
        let failures = check_differential(&obs);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].input_id, 5);
        assert!(failures[0].detail.contains("write rejected"));
        assert_eq!(failures[0].plans.len(), 2);
    }

    #[test]
    fn differential_groups_same_rejection_together() {
        // Two interfaces rejecting with the same code are consistent.
        let obs = vec![
            rejected_obs(7, "A->A", "ORC", "CAST"),
            rejected_obs(7, "A->B", "AVRO", "CAST"),
        ];
        assert!(check_differential(&obs).is_empty());
    }
}
