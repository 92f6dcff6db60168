//! Delta-debugging shrinker for discrepancy-triggering inputs.
//!
//! Every harness observation already writes a 1-row/1-column table, so the
//! interesting minimization axes are the *plan set* (how many interface
//! pairs are needed before the discrepancy class fires) and the *value*
//! (how simple can the input get while preserving the class). The shrinker
//! runs ddmin-lite over the plans — singletons, then pairs — and then a
//! greedy weight-decreasing walk over value candidates, accepting a step
//! only when the candidate reproducer still triggers the same catalogue id
//! through the real classifier. Fully deterministic: no randomness, fixed
//! candidate order, bounded steps.

use crate::campaign::{CampaignOutcome, Evidence};
use crate::classify::Classifier;
use crate::exec::{self, Deployment};
use crate::generator::TestInput;
use crate::plan::{Experiment, TestPlan};
use csi_core::boundary::CrossingContext;
use csi_core::report::ShrinkRow;
use csi_core::value::{DataType, Value};
use minihive::metastore::StorageFormat;

/// Upper bound on accepted shrink steps per discrepancy.
const MAX_STEPS: usize = 16;

/// Upper bound on triggering checks per discrepancy (each check executes
/// one observation per plan in the candidate reproducer).
const MAX_CHECKS: usize = 80;

/// A minimized, self-contained reproducer: one input, one experiment, the
/// surviving plan set, one format — a 1-row/1-column table per plan —
/// and the Spark configuration it was shrunk under.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The (possibly value-shrunk) input.
    pub input: TestInput,
    /// The experiment whose plans reproduce the class.
    pub experiment: Experiment,
    /// The minimal plan set that still triggers.
    pub plans: Vec<TestPlan>,
    /// The storage format.
    pub format: StorageFormat,
    /// The campaign's
    /// [`spark_overrides`](crate::spec::CampaignSpec::spark_overrides),
    /// set on the session of every stack the reproducer runs on.
    pub spark_overrides: Vec<(String, String)>,
}

/// A reproducer paired with the discrepancy id it preserves.
#[derive(Debug, Clone)]
pub struct ShrunkReproducer {
    /// The catalogue id (e.g. `"D08"`).
    pub id: String,
    /// The minimized reproducer.
    pub reproducer: Reproducer,
}

/// Executes a reproducer on a fresh deployment in its own configuration
/// and reports whether the classified result still contains discrepancy
/// `id`: the shrinker's oracle on a stack of its own, public so a shipped
/// reproducer can be replayed alone.
pub fn reproducer_triggers(id: &str, r: &Reproducer) -> bool {
    let d = Deployment::new(CrossingContext::new(), &r.spark_overrides);
    triggers_on(&d, id, r)
}

/// [`reproducer_triggers`] on `d`, a stack built with `r`'s overrides.
/// Each observation scopes its own faults, clock and trace, so a check
/// reads the same on a stack that has run others.
fn triggers_on(d: &Deployment, id: &str, r: &Reproducer) -> bool {
    let mut judge = Classifier::new(&[r.experiment]);
    for &plan in &r.plans {
        let obs = exec::run_one(d, r.experiment, plan, r.format, &r.input, &[]);
        judge.absorb(0, &r.input, obs);
    }
    let outcome = judge.finish(std::slice::from_ref(&r.input), false);
    outcome.report.discrepancies.iter().any(|d| d.id == id)
}

/// ddmin-lite, the one candidate order every shrinker in the harness
/// walks: the singletons of `members` in member order, then the pairs
/// `(i, j)` with `i < j`, each size tried only while it would still remove
/// a member. Returns the first candidate `keeps` accepts; `keeps` is
/// called once per candidate up to that one, so its caller's count of
/// calls is the count of re-executions spent.
pub(crate) fn ddmin_lite<T: Clone>(
    members: &[T],
    mut keeps: impl FnMut(&[T]) -> bool,
) -> Option<Vec<T>> {
    let n = members.len();
    let mut candidates: Vec<Vec<usize>> = Vec::new();
    if n > 1 {
        candidates.extend((0..n).map(|i| vec![i]));
    }
    if n > 2 {
        candidates.extend((0..n).flat_map(|i| (i + 1..n).map(move |j| vec![i, j])));
    }
    candidates
        .into_iter()
        .map(|at| at.iter().map(|&i| members[i].clone()).collect::<Vec<T>>())
        .find(|candidate| keeps(candidate))
}

/// A coarse size metric; every accepted value-shrink step strictly
/// decreases it, so the walk terminates.
fn weight(value: &Value) -> u64 {
    match value {
        Value::Null | Value::Boolean(_) => 0,
        Value::Byte(v) => v.unsigned_abs() as u64,
        Value::Short(v) => v.unsigned_abs() as u64,
        Value::Int(v) => v.unsigned_abs() as u64,
        Value::Long(v) => v.unsigned_abs(),
        Value::Float(v) => v.abs() as u64,
        Value::Double(v) => v.abs() as u64,
        Value::Decimal(d) => d.unscaled.unsigned_abs().min(u64::MAX as u128) as u64,
        Value::Str(s) => s.chars().count() as u64,
        Value::Binary(b) => b.len() as u64,
        Value::Date(d) => d.unsigned_abs() as u64,
        Value::Timestamp(us) => us.unsigned_abs(),
        Value::Interval { months, micros } => months.unsigned_abs() as u64 + micros.unsigned_abs(),
        Value::Array(items) => 1 + items.iter().map(weight).sum::<u64>(),
        Value::Map(pairs) => {
            1 + pairs
                .iter()
                .map(|(k, v)| weight(k) + weight(v))
                .sum::<u64>()
        }
        Value::Struct(fields) => 1 + fields.iter().map(|(_, v)| weight(v)).sum::<u64>(),
    }
}

fn half_str(s: &str) -> Option<Value> {
    let n = s.chars().count();
    if n == 0 {
        return None;
    }
    Some(Value::Str(s.chars().take(n / 2).collect()))
}

/// Strictly-smaller candidate values, most aggressive first. Candidates
/// keep the declared column type; the triggering check decides acceptance.
fn value_candidates(input: &TestInput) -> Vec<Value> {
    let mut out = Vec::new();
    match &input.value {
        Value::Str(s) => {
            out.extend(half_str(s));
        }
        Value::Binary(b) if !b.is_empty() => {
            out.push(Value::Binary(b[..b.len() / 2].to_vec()));
        }
        Value::Byte(v) if *v != 0 => out.push(Value::Byte(v / 2)),
        Value::Short(v) if *v != 0 => out.push(Value::Short(v / 2)),
        Value::Int(v) if *v != 0 => out.push(Value::Int(v / 2)),
        Value::Long(v) if *v != 0 => out.push(Value::Long(v / 2)),
        Value::Decimal(d) if d.unscaled != 0 => {
            if let Ok(smaller) = csi_core::Decimal::new(d.unscaled / 2, d.precision, d.scale) {
                out.push(Value::Decimal(smaller));
            }
        }
        Value::Date(d) if *d != 0 => out.push(Value::Date(d / 2)),
        Value::Timestamp(us) if *us != 0 => out.push(Value::Timestamp(us / 2)),
        Value::Interval { months, micros } if *months != 0 || *micros != 0 => {
            out.push(Value::Interval {
                months: months / 2,
                micros: micros / 2,
            });
            if *months != 0 && *micros != 0 {
                out.push(Value::Interval {
                    months: *months,
                    micros: 0,
                });
            }
        }
        Value::Array(items) if !items.is_empty() => {
            out.push(Value::Array(items[..items.len() / 2].to_vec()));
        }
        Value::Map(pairs) if !pairs.is_empty() => {
            out.push(Value::Map(pairs[..pairs.len() / 2].to_vec()));
        }
        Value::Struct(fields) => {
            for (i, (_, v)) in fields.iter().enumerate() {
                if weight(v) > 0 {
                    let mut smaller = fields.clone();
                    smaller[i].1 = Value::Null;
                    out.push(Value::Struct(smaller));
                    break;
                }
            }
        }
        _ => {}
    }
    let w = weight(&input.value);
    out.retain(|c| weight(c) < w);
    out
}

/// Drops the last field from a struct input, in both the declared type and
/// the value — the one schema-level shrink the harness supports.
fn drop_struct_field(input: &TestInput) -> Option<TestInput> {
    let DataType::Struct(fields) = &input.column_type else {
        return None;
    };
    let Value::Struct(values) = &input.value else {
        return None;
    };
    if fields.len() < 2 || values.len() != fields.len() {
        return None;
    }
    let mut out = input.clone();
    out.column_type = DataType::Struct(fields[..fields.len() - 1].to_vec());
    out.value = Value::Struct(values[..values.len() - 1].to_vec());
    Some(out)
}

struct Shrinker<'d> {
    id: String,
    checks: usize,
    stack: &'d Deployment,
}

impl Shrinker<'_> {
    fn triggers(&mut self, r: &Reproducer) -> bool {
        self.checks += 1;
        triggers_on(self.stack, &self.id, r)
    }
}

/// Shrinks every discrepancy of `outcome` to a minimal reproducer, from its
/// finding's first observation, under the `spark_overrides` the outcome
/// ran with. Every check runs on one stack, built here with those
/// overrides. Returns the render rows and the reproducers themselves (for
/// re-verification).
pub(crate) fn shrink_report(
    outcome: &CampaignOutcome,
    pool: &[TestInput],
    spark_overrides: &[(String, String)],
) -> (Vec<ShrinkRow>, Vec<ShrunkReproducer>) {
    let stack = Deployment::new(CrossingContext::new(), spark_overrides);
    let mut rows = Vec::new();
    let mut reproducers = Vec::new();
    for (disc, finding) in outcome.report.discrepancies.iter().zip(&outcome.findings) {
        let (Some(evidence), Evidence::Observations(named)) =
            (disc.evidence.first(), &finding.evidence)
        else {
            continue;
        };
        let Some(&(experiment, ref obs)) = named.first().map(|&at| &outcome.observations[at])
        else {
            continue;
        };
        let Some(input) = pool.iter().find(|i| i.id == obs.input_id) else {
            continue;
        };
        // Formats: the evidence's, in its order, then the rest as fallback.
        let rank = |f: &StorageFormat| evidence.formats.iter().position(|e| e == f.name());
        let mut formats = StorageFormat::ALL;
        formats.sort_by_key(|f| rank(f).unwrap_or(usize::MAX));
        let mut shrinker = Shrinker {
            id: disc.id.clone(),
            checks: 0,
            stack: &stack,
        };
        let mut current: Option<Reproducer> = None;
        for format in formats {
            let candidate = Reproducer {
                input: input.clone(),
                experiment,
                plans: experiment.plans(),
                format,
                spark_overrides: spark_overrides.to_vec(),
            };
            if shrinker.triggers(&candidate) {
                current = Some(candidate);
                break;
            }
        }
        let Some(mut current) = current else {
            continue;
        };
        let mut steps = 0;
        // Over the plan set first. Out of budget, a candidate is refused
        // without being run (or counted).
        let fewer_plans = ddmin_lite(&current.plans, |plans| {
            shrinker.checks < MAX_CHECKS
                && shrinker.triggers(&Reproducer {
                    plans: plans.to_vec(),
                    ..current.clone()
                })
        });
        if let Some(plans) = fewer_plans {
            current.plans = plans;
            steps += 1;
        }
        // Greedy weight-decreasing value (and struct-schema) shrink.
        while steps < MAX_STEPS && shrinker.checks < MAX_CHECKS {
            let mut advanced = false;
            // Schema shrink first: dropping a struct field simplifies the
            // most.
            if let Some(smaller) = drop_struct_field(&current.input) {
                let candidate = Reproducer {
                    input: smaller,
                    ..current.clone()
                };
                if shrinker.triggers(&candidate) {
                    current = candidate;
                    steps += 1;
                    continue;
                }
            }
            // Value shrinks are only safe when the round-trip expectation
            // is the value itself.
            if current.input.expected_back.is_none() {
                for value in value_candidates(&current.input) {
                    if shrinker.checks >= MAX_CHECKS {
                        break;
                    }
                    let mut input = current.input.clone();
                    input.value = value;
                    let candidate = Reproducer {
                        input,
                        ..current.clone()
                    };
                    if shrinker.triggers(&candidate) {
                        current = candidate;
                        steps += 1;
                        advanced = true;
                        break;
                    }
                }
            }
            if !advanced {
                break;
            }
        }
        let scenario = format!(
            "{}:{}/{}",
            current.experiment.short(),
            current
                .plans
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join("+"),
            current.format.name()
        );
        rows.push(ShrinkRow {
            id: disc.id.clone(),
            scenario,
            label: current.input.label.clone(),
            rows: 1,
            columns: 1,
            steps,
            checks: shrinker.checks,
        });
        reproducers.push(ShrunkReproducer {
            id: disc.id.clone(),
            reproducer: current,
        });
    }
    (rows, reproducers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Validity;

    #[test]
    fn weights_strictly_decrease_along_candidates() {
        let cases = [
            Value::Str("hello world".into()),
            Value::Int(1000),
            Value::Timestamp(-3_000_000_000_000_000),
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
        ];
        for value in cases {
            let input = TestInput {
                id: 0,
                column_type: DataType::String,
                value: value.clone(),
                validity: Validity::Valid,
                label: "t".into(),
                expected_back: None,
            };
            for c in value_candidates(&input) {
                assert!(weight(&c) < weight(&value), "{c:?} !< {value:?}");
            }
        }
    }

    #[test]
    fn ddmin_lite_tries_singletons_then_ordered_pairs_and_stops_at_the_first_hit() {
        // The shrunk list when only `hit` reproduces, and every candidate
        // the predicate was asked about, in order.
        fn run(members: &str, hit: &str) -> (Option<String>, Vec<String>) {
            let members: Vec<char> = members.chars().collect();
            let mut asked = Vec::new();
            let kept = ddmin_lite(&members, |candidate| {
                asked.push(candidate.iter().collect::<String>());
                asked.last().is_some_and(|c| c == hit)
            });
            (kept.map(|k| k.into_iter().collect()), asked)
        }
        let (kept, asked) = run("abcd", "bd");
        assert_eq!(kept.as_deref(), Some("bd"));
        assert_eq!(
            asked,
            ["a", "b", "c", "d", "ab", "ac", "ad", "bc", "bd"],
            "one call per candidate, none after the hit"
        );
        let (kept, asked) = run("abcd", "c");
        assert_eq!((kept.as_deref(), asked.len()), (Some("c"), 3));
        // Nothing smaller reproduces: every candidate was asked, once.
        let (kept, asked) = run("abcd", "");
        assert_eq!((kept, asked.len()), (None, 4 + 6));
        // A size is tried only while it would remove a member.
        assert_eq!(
            run("ab", "ab"),
            (None, vec!["a".to_string(), "b".to_string()])
        );
        assert_eq!(run("a", "a"), (None, Vec::new()));
    }

    #[test]
    fn a_byte_reproducer_triggers_and_plan_shrinks() {
        // One valid BYTE input reveals D01 through Avro's widening.
        let input = TestInput {
            id: 0,
            column_type: DataType::Byte,
            value: Value::Byte(5),
            validity: Validity::Valid,
            label: "tinyint".into(),
            expected_back: None,
        };
        let experiment = Experiment::ALL[0];
        let r = Reproducer {
            input,
            experiment,
            plans: experiment.plans(),
            format: StorageFormat::Avro,
            spark_overrides: Vec::new(),
        };
        assert!(reproducer_triggers("D01", &r));
        assert!(!reproducer_triggers("D08", &r));
    }
}
