//! Machine-checkable cross-system data specifications.
//!
//! Section 10 ("Rethinking data/API specifications") argues that many of
//! the studied CSI failures "can potentially be addressed with
//! comprehensive, machine-checkable data/API specifications". This module
//! is that tool: a [`DataContract`] declares, for one writer/reader pair
//! and one storage format, which logical types must round-trip, which are
//! *known lossy* (with the documented conversion), and which are
//! unsupported. A checker then compares an actual observation against the
//! contract and reports violations — turning the paper's implicit
//! conventions (Table 6: "unspoken convention", "undefined values") into
//! explicit, diffable artifacts.

use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a contract says about one logical type on one channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TypeRule {
    /// Values must round-trip exactly (canonical equality).
    Exact,
    /// Values round-trip through a documented, lossy-but-defined
    /// conversion (e.g. `BYTE` stored as `INT`); the payload names it.
    Converts {
        /// The documented conversion, e.g. `"widened to INT"`.
        to: String,
    },
    /// Writes of this type must be rejected up front.
    Unsupported,
}

impl fmt::Display for TypeRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeRule::Exact => write!(f, "exact round-trip"),
            TypeRule::Converts { to } => write!(f, "converts ({to})"),
            TypeRule::Unsupported => write!(f, "unsupported (must reject)"),
        }
    }
}

/// A declared contract for one (writer, reader, format) channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataContract {
    /// The writing system/interface, e.g. `"DataFrame"`.
    pub writer: String,
    /// The reading system/interface, e.g. `"HiveQL"`.
    pub reader: String,
    /// The storage format, e.g. `"AVRO"`.
    pub format: String,
    /// Per-type rules. Types not listed are *unspecified* — exactly the
    /// gap the paper says today's practice leaves open.
    pub rules: Vec<(DataType, TypeRule)>,
}

impl DataContract {
    /// Creates an empty contract for a channel.
    pub fn new(
        writer: impl Into<String>,
        reader: impl Into<String>,
        format: impl Into<String>,
    ) -> DataContract {
        DataContract {
            writer: writer.into(),
            reader: reader.into(),
            format: format.into(),
            rules: Vec::new(),
        }
    }

    /// Declares a rule for a type (builder style).
    pub fn rule(mut self, ty: DataType, rule: TypeRule) -> DataContract {
        self.rules.push((ty, rule));
        self
    }

    /// Looks up the rule covering a type, if declared.
    pub fn rule_for(&self, ty: &DataType) -> Option<&TypeRule> {
        self.rules.iter().find(|(t, _)| t == ty).map(|(_, r)| r)
    }
}

/// One observed write/read outcome to check against a contract.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelOutcome {
    /// The write was rejected.
    WriteRejected,
    /// Written and read back; the payload is the read value.
    ReadBack(Value),
    /// Written, but the read failed.
    ReadFailed,
}

/// A contract violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecViolation {
    /// The channel, rendered.
    pub channel: String,
    /// The type under test.
    pub data_type: DataType,
    /// The declared rule.
    pub rule: TypeRule,
    /// What happened instead.
    pub observed: String,
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} declared '{}' but observed {}",
            self.channel, self.data_type, self.rule, self.observed
        )
    }
}

/// Checks one observation against a contract.
///
/// Returns `Ok(())` when the outcome satisfies the declared rule,
/// `Err(SpecViolation)` when it does not, and `Ok(())` for unspecified
/// types (an unspecified type cannot be *violated*, only uncovered — use
/// [`coverage_gaps`] to audit that).
pub fn check(
    contract: &DataContract,
    ty: &DataType,
    written: &Value,
    outcome: &ChannelOutcome,
) -> Result<(), SpecViolation> {
    let channel = format!(
        "{}->{} via {}",
        contract.writer, contract.reader, contract.format
    );
    let Some(rule) = contract.rule_for(ty) else {
        return Ok(());
    };
    let violation = |observed: String| SpecViolation {
        channel: channel.clone(),
        data_type: ty.clone(),
        rule: rule.clone(),
        observed,
    };
    match (rule, outcome) {
        (TypeRule::Exact, ChannelOutcome::ReadBack(v)) => {
            if v.canonical_eq(written) {
                Ok(())
            } else {
                Err(violation(format!(
                    "value changed: wrote {}, read {}",
                    written.signature(),
                    v.signature()
                )))
            }
        }
        (TypeRule::Exact, ChannelOutcome::WriteRejected) => Err(violation("write rejected".into())),
        (TypeRule::Exact, ChannelOutcome::ReadFailed) => Err(violation("read failed".into())),
        // A documented conversion allows value change but not failure.
        (TypeRule::Converts { .. }, ChannelOutcome::ReadBack(_)) => Ok(()),
        (TypeRule::Converts { .. }, ChannelOutcome::WriteRejected) => {
            Err(violation("write rejected".into()))
        }
        (TypeRule::Converts { .. }, ChannelOutcome::ReadFailed) => Err(violation(
            "read failed despite documented conversion".into(),
        )),
        (TypeRule::Unsupported, ChannelOutcome::WriteRejected) => Ok(()),
        (TypeRule::Unsupported, other) => Err(violation(format!(
            "accepted an unsupported type: {other:?}"
        ))),
    }
}

/// Types exercised by a test campaign that the contract does not cover.
pub fn coverage_gaps<'a>(
    contract: &DataContract,
    exercised: impl Iterator<Item = &'a DataType>,
) -> Vec<DataType> {
    let mut gaps = Vec::new();
    for ty in exercised {
        if contract.rule_for(ty).is_none() && !gaps.contains(ty) {
            gaps.push(ty.clone());
        }
    }
    gaps
}

/// A semantic change between two versions of a channel contract —
/// the unit of the paper's "change analysis for cross-system interactions"
/// direction (Section 10): interface changes during software evolution
/// introduce many CSI issues, and a contract diff makes them reviewable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContractChange {
    /// A type gained a rule it did not have (new coverage).
    Added {
        /// The type.
        ty: DataType,
        /// The new rule.
        rule: TypeRule,
    },
    /// A type lost its rule (coverage regression).
    Removed {
        /// The type.
        ty: DataType,
        /// The rule that disappeared.
        rule: TypeRule,
    },
    /// A type's rule changed — the change class that breaks co-deployed
    /// upstreams (e.g. `Exact` becoming `Converts`).
    Changed {
        /// The type.
        ty: DataType,
        /// Before.
        from: TypeRule,
        /// After.
        to: TypeRule,
    },
}

impl ContractChange {
    /// Whether this change can break an upstream written against the old
    /// contract (rule weakened or removed).
    pub fn is_breaking(&self) -> bool {
        match self {
            ContractChange::Added { .. } => false,
            ContractChange::Removed { .. } => true,
            ContractChange::Changed { from, to, .. } => match (from, to) {
                // Tightening from a conversion to exactness is safe;
                // anything else changes observable behavior.
                (TypeRule::Converts { .. }, TypeRule::Exact) => false,
                _ => true,
            },
        }
    }
}

/// Diffs two versions of a channel contract.
pub fn diff_contracts(old: &DataContract, new: &DataContract) -> Vec<ContractChange> {
    let mut changes = Vec::new();
    for (ty, old_rule) in &old.rules {
        match new.rule_for(ty) {
            None => changes.push(ContractChange::Removed {
                ty: ty.clone(),
                rule: old_rule.clone(),
            }),
            Some(new_rule) if new_rule != old_rule => changes.push(ContractChange::Changed {
                ty: ty.clone(),
                from: old_rule.clone(),
                to: new_rule.clone(),
            }),
            Some(_) => {}
        }
    }
    for (ty, new_rule) in &new.rules {
        if old.rule_for(ty).is_none() {
            changes.push(ContractChange::Added {
                ty: ty.clone(),
                rule: new_rule.clone(),
            });
        }
    }
    changes
}

/// The contract today's deployments *implicitly* assume: everything
/// round-trips exactly. Checking real systems against it yields exactly
/// the discrepancy list of Section 8.
pub fn naive_contract(writer: &str, reader: &str, format: &str) -> DataContract {
    let mut c = DataContract::new(writer, reader, format);
    for ty in DataType::primitives() {
        c.rules.push((ty, TypeRule::Exact));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract() -> DataContract {
        DataContract::new("DataFrame", "HiveQL", "AVRO")
            .rule(DataType::Int, TypeRule::Exact)
            .rule(
                DataType::Byte,
                TypeRule::Converts {
                    to: "widened to INT".into(),
                },
            )
            .rule(DataType::Interval, TypeRule::Unsupported)
    }

    #[test]
    fn exact_rule_accepts_round_trips_and_rejects_changes() {
        let c = contract();
        assert!(check(
            &c,
            &DataType::Int,
            &Value::Int(5),
            &ChannelOutcome::ReadBack(Value::Int(5))
        )
        .is_ok());
        let err = check(
            &c,
            &DataType::Int,
            &Value::Int(5),
            &ChannelOutcome::ReadBack(Value::Long(5)),
        )
        .unwrap_err();
        assert!(err.to_string().contains("value changed"));
        assert!(check(
            &c,
            &DataType::Int,
            &Value::Int(5),
            &ChannelOutcome::ReadFailed
        )
        .is_err());
    }

    #[test]
    fn converts_rule_allows_documented_change_but_not_failure() {
        let c = contract();
        assert!(check(
            &c,
            &DataType::Byte,
            &Value::Byte(5),
            &ChannelOutcome::ReadBack(Value::Int(5))
        )
        .is_ok());
        // SPARK-39075 as a spec violation: the documented conversion
        // exists on write but the read fails.
        let err = check(
            &c,
            &DataType::Byte,
            &Value::Byte(5),
            &ChannelOutcome::ReadFailed,
        )
        .unwrap_err();
        assert!(err.to_string().contains("documented conversion"));
    }

    #[test]
    fn unsupported_rule_requires_rejection() {
        let c = contract();
        let iv = Value::Interval {
            months: 1,
            micros: 0,
        };
        assert!(check(&c, &DataType::Interval, &iv, &ChannelOutcome::WriteRejected).is_ok());
        assert!(check(
            &c,
            &DataType::Interval,
            &iv,
            &ChannelOutcome::ReadBack(Value::Str("1 month".into()))
        )
        .is_err());
    }

    #[test]
    fn unspecified_types_pass_but_show_as_gaps() {
        let c = contract();
        assert!(check(
            &c,
            &DataType::Double,
            &Value::Double(1.0),
            &ChannelOutcome::ReadFailed
        )
        .is_ok());
        let exercised = [DataType::Double, DataType::Int, DataType::Double];
        let gaps = coverage_gaps(&c, exercised.iter());
        assert_eq!(gaps, vec![DataType::Double]);
    }

    #[test]
    fn naive_contract_covers_all_primitives_exactly() {
        let c = naive_contract("SparkSQL", "SparkSQL", "ORC");
        assert_eq!(c.rules.len(), DataType::primitives().len());
        assert!(matches!(
            c.rule_for(&DataType::Interval),
            Some(TypeRule::Exact)
        ));
    }

    #[test]
    fn contract_diff_classifies_breaking_changes() {
        let v1 = DataContract::new("Spark", "Hive", "ORC")
            .rule(DataType::Int, TypeRule::Exact)
            .rule(DataType::Byte, TypeRule::Exact)
            .rule(
                DataType::Date,
                TypeRule::Converts {
                    to: "epoch days".into(),
                },
            );
        let v2 = DataContract::new("Spark", "Hive", "ORC")
            .rule(DataType::Int, TypeRule::Exact)
            // SPARK-21150-shaped evolution: a code change weakens a rule.
            .rule(
                DataType::Byte,
                TypeRule::Converts {
                    to: "widened".into(),
                },
            )
            // Tightening: the conversion becomes exact.
            .rule(DataType::Date, TypeRule::Exact)
            // New coverage.
            .rule(DataType::Binary, TypeRule::Exact);
        let changes = diff_contracts(&v1, &v2);
        assert_eq!(changes.len(), 3);
        let breaking: Vec<&ContractChange> = changes.iter().filter(|c| c.is_breaking()).collect();
        assert_eq!(breaking.len(), 1);
        assert!(matches!(
            breaking[0],
            ContractChange::Changed {
                ty: DataType::Byte,
                ..
            }
        ));
        // Removal is always breaking.
        let v3 = DataContract::new("Spark", "Hive", "ORC");
        assert!(diff_contracts(&v2, &v3).iter().all(|c| c.is_breaking()));
        // Identity diff is empty.
        assert!(diff_contracts(&v2, &v2).is_empty());
    }

    #[test]
    fn contract_serializes() {
        let c = contract();
        let json = serde_json::to_string(&c).unwrap();
        let back: DataContract = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
