//! Spark's type handling: case-sensitive schemas and the store-assignment
//! cast engine.
//!
//! Spark schemas preserve identifier case and are stored alongside Hive
//! tables in the `spark.sql.sources.schema` table property; when the
//! property is absent Spark falls back to the (case-insensitive) Hive
//! schema with a "not case preserving" warning — exactly the behavior
//! described in Section 8.2.
//!
//! The cast engine implements the three `spark.sql.storeAssignmentPolicy`
//! modes. ANSI (the default) *raises* where Hive coerces; LEGACY silently
//! writes NULL or truncates. The asymmetry between these policies and
//! Hive's lenient rules is the engine of the inconsistent-error
//! discrepancies (D05, D08, D09, D12).

use crate::config::StoreAssignmentPolicy;
use crate::error::SparkError;
use csi_core::value::{
    format_date, format_timestamp, parse_date, parse_timestamp, DataType, Decimal, StructField,
    Value,
};

/// Spark's supported DATE/TIMESTAMP range (0001-01-01), days since epoch.
pub const MIN_DATE_DAYS: i32 = -719_162;
/// Spark's supported DATE/TIMESTAMP range (9999-12-31), days since epoch.
pub const MAX_DATE_DAYS: i32 = 2_932_896;

/// Options threaded through a store assignment.
#[derive(Debug, Clone, Copy)]
pub struct CastOptions {
    /// The active policy.
    pub policy: StoreAssignmentPolicy,
    /// `spark.sql.legacy.charVarcharAsString`.
    pub char_varchar_as_string: bool,
    /// Whether out-of-range dates are rejected (ANSI always checks; the
    /// DataFrame legacy path checks only when
    /// `spark.sql.dataframe.dateRangeCheck` is on).
    pub date_range_check: bool,
}

/// Casts a value for storage into a column of the target type.
///
/// Under ANSI, unrepresentable values raise a [`SparkError::Cast`]. Under
/// LEGACY they become NULL **silently** (no diagnostic — Spark's legacy
/// writer does not log per-value coercions, which is what makes the
/// error-handling oracle flag it). Under STRICT only exact type matches
/// pass.
pub fn store_assign(
    value: &Value,
    target: &DataType,
    opts: CastOptions,
) -> Result<Value, SparkError> {
    if value.is_null() {
        return Ok(Value::Null);
    }
    match opts.policy {
        StoreAssignmentPolicy::Strict => {
            let natural = value.natural_type();
            if natural.as_ref() == Some(target) {
                Ok(value.clone())
            } else {
                Err(SparkError::cast(
                    "STRICT_STORE_ASSIGNMENT",
                    format!(
                        "cannot write {} into {} under STRICT policy",
                        value.signature(),
                        target
                    ),
                ))
            }
        }
        StoreAssignmentPolicy::Ansi => ansi_cast(value, target, opts),
        StoreAssignmentPolicy::Legacy => Ok(legacy_cast(value, target, opts)),
    }
}

fn integral_of(value: &Value) -> Option<i128> {
    match value {
        Value::Byte(v) => Some(*v as i128),
        Value::Short(v) => Some(*v as i128),
        Value::Int(v) => Some(*v as i128),
        Value::Long(v) => Some(*v as i128),
        Value::Boolean(b) => Some(*b as i128),
        Value::Float(f) if f.is_finite() => Some(f.trunc() as i128),
        Value::Double(f) if f.is_finite() => Some(f.trunc() as i128),
        Value::Decimal(d) => d.rescale(d.precision, 0).ok().map(|x| x.unscaled),
        _ => None,
    }
}

fn float_of(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f as f64),
        Value::Double(f) => Some(*f),
        Value::Byte(v) => Some(*v as f64),
        Value::Short(v) => Some(*v as f64),
        Value::Int(v) => Some(*v as f64),
        Value::Long(v) => Some(*v as f64),
        Value::Decimal(d) => Some(d.to_f64()),
        _ => None,
    }
}

/// Renders a value as Spark casts it to STRING.
pub fn render(value: &Value) -> String {
    match value {
        Value::Null => "null".to_string(),
        Value::Boolean(b) => b.to_string(),
        Value::Byte(v) => v.to_string(),
        Value::Short(v) => v.to_string(),
        Value::Int(v) => v.to_string(),
        Value::Long(v) => v.to_string(),
        Value::Float(v) => format!("{v}"),
        Value::Double(v) => format!("{v}"),
        Value::Decimal(d) => d.to_string(),
        Value::Str(s) => s.clone(),
        Value::Binary(b) => b.iter().map(|x| format!("{x:02x}")).collect(),
        Value::Date(d) => format_date(*d),
        Value::Timestamp(us) => format_timestamp(*us),
        Value::Interval { months, micros } => format!("{months} months {micros} us"),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Map(pairs) => {
            let inner: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}:{}", render(k), render(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        Value::Struct(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(n, v)| format!("{n}:{}", render(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

fn ansi_cast(value: &Value, target: &DataType, opts: CastOptions) -> Result<Value, SparkError> {
    let overflow = |what: String| {
        Err(SparkError::cast(
            "CAST_OVERFLOW",
            format!("{what} due to overflow; use try_cast or set storeAssignmentPolicy=LEGACY"),
        ))
    };
    let invalid = |what: String| {
        Err(SparkError::cast(
            "CAST_INVALID_INPUT",
            format!("{what}; the ANSI cast does not accept this input"),
        ))
    };
    match target {
        DataType::Boolean => match value {
            Value::Boolean(b) => Ok(Value::Boolean(*b)),
            // ANSI string-to-boolean accepts only the canonical spellings
            // (the upstream half of D12).
            Value::Str(s) => match s.to_ascii_lowercase().as_str() {
                "true" => Ok(Value::Boolean(true)),
                "false" => Ok(Value::Boolean(false)),
                _ => invalid(format!("cannot cast {s:?} to BOOLEAN")),
            },
            v => invalid(format!("cannot cast {} to BOOLEAN", v.signature())),
        },
        DataType::Byte | DataType::Short | DataType::Int | DataType::Long => {
            let (min, max): (i128, i128) = match target {
                DataType::Byte => (i8::MIN as i128, i8::MAX as i128),
                DataType::Short => (i16::MIN as i128, i16::MAX as i128),
                DataType::Int => (i32::MIN as i128, i32::MAX as i128),
                _ => (i64::MIN as i128, i64::MAX as i128),
            };
            let raw = match value {
                // ANSI does NOT trim whitespace (the upstream half of D09).
                Value::Str(s) => match s.parse::<i128>() {
                    Ok(v) => v,
                    Err(_) => {
                        return invalid(format!("cannot cast {s:?} to {target}"));
                    }
                },
                v => match integral_of(v) {
                    Some(x) => x,
                    None => return invalid(format!("cannot cast {} to {target}", v.signature())),
                },
            };
            if !(min..=max).contains(&raw) {
                return overflow(format!("value {raw} cannot be stored in {target}"));
            }
            Ok(match target {
                DataType::Byte => Value::Byte(raw as i8),
                DataType::Short => Value::Short(raw as i16),
                DataType::Int => Value::Int(raw as i32),
                _ => Value::Long(raw as i64),
            })
        }
        DataType::Float | DataType::Double => {
            let raw = match value {
                Value::Str(s) => match s.parse::<f64>() {
                    Ok(v) => v,
                    Err(_) => return invalid(format!("cannot cast {s:?} to {target}")),
                },
                v => match float_of(v) {
                    Some(x) => x,
                    None => return invalid(format!("cannot cast {} to {target}", v.signature())),
                },
            };
            Ok(if *target == DataType::Float {
                Value::Float(raw as f32)
            } else {
                Value::Double(raw)
            })
        }
        DataType::Decimal(p, s) => {
            let d = match value {
                Value::Decimal(d) => *d,
                Value::Byte(v) => Decimal::new(*v as i128, 3, 0).expect("fits"),
                Value::Short(v) => Decimal::new(*v as i128, 5, 0).expect("fits"),
                Value::Int(v) => Decimal::new(*v as i128, 10, 0).expect("fits"),
                Value::Long(v) => Decimal::new(*v as i128, 19, 0).expect("fits"),
                Value::Str(text) => match Decimal::parse(text) {
                    Ok(d) => d,
                    Err(_) => return invalid(format!("cannot cast {text:?} to DECIMAL({p},{s})")),
                },
                v => return invalid(format!("cannot cast {} to DECIMAL({p},{s})", v.signature())),
            };
            // ANSI rescales exactly; any loss of digits is an overflow
            // (the upstream half of D05).
            match d.rescale(*p, *s) {
                Ok(out) => Ok(Value::Decimal(out)),
                Err(_) => overflow(format!("{d} cannot be represented as Decimal({p},{s})")),
            }
        }
        DataType::String => Ok(Value::Str(render(value))),
        DataType::Char(n) => {
            if opts.char_varchar_as_string {
                return Ok(Value::Str(render(value)));
            }
            let s = render(value);
            let len = s.chars().count();
            if len > *n as usize {
                return Err(SparkError::cast(
                    "EXCEEDS_CHAR_VARCHAR_LENGTH",
                    format!("input string of length {len} exceeds char({n}) type"),
                ));
            }
            let mut padded = s;
            padded.extend(std::iter::repeat_n(' ', *n as usize - len));
            Ok(Value::Str(padded))
        }
        DataType::Varchar(n) => {
            if opts.char_varchar_as_string {
                return Ok(Value::Str(render(value)));
            }
            let s = render(value);
            let len = s.chars().count();
            if len > *n as usize {
                // The upstream half of D08: Hive truncates, Spark raises.
                return Err(SparkError::cast(
                    "EXCEEDS_CHAR_VARCHAR_LENGTH",
                    format!("input string of length {len} exceeds varchar({n}) type"),
                ));
            }
            Ok(Value::Str(s))
        }
        DataType::Binary => match value {
            Value::Binary(b) => Ok(Value::Binary(b.clone())),
            Value::Str(s) => Ok(Value::Binary(s.clone().into_bytes())),
            v => invalid(format!("cannot cast {} to BINARY", v.signature())),
        },
        DataType::Date => {
            let days = match value {
                Value::Date(d) => *d,
                Value::Timestamp(us) => us.div_euclid(86_400_000_000) as i32,
                Value::Str(s) => match parse_date(s) {
                    Some(d) => d,
                    None => return invalid(format!("cannot cast {s:?} to DATE")),
                },
                v => return invalid(format!("cannot cast {} to DATE", v.signature())),
            };
            if !(MIN_DATE_DAYS..=MAX_DATE_DAYS).contains(&days) {
                return Err(SparkError::cast(
                    "DATE_OUT_OF_RANGE",
                    format!(
                        "date {} is outside 0001-01-01..9999-12-31",
                        format_date(days)
                    ),
                ));
            }
            Ok(Value::Date(days))
        }
        DataType::Timestamp => {
            let us = match value {
                Value::Timestamp(us) => *us,
                Value::Date(d) => *d as i64 * 86_400_000_000,
                Value::Str(s) => match parse_timestamp(s) {
                    Some(us) => us,
                    None => return invalid(format!("cannot cast {s:?} to TIMESTAMP")),
                },
                v => return invalid(format!("cannot cast {} to TIMESTAMP", v.signature())),
            };
            let min = MIN_DATE_DAYS as i64 * 86_400_000_000;
            let max = (MAX_DATE_DAYS as i64 + 1) * 86_400_000_000 - 1;
            if !(min..=max).contains(&us) {
                return Err(SparkError::cast(
                    "TIMESTAMP_OUT_OF_RANGE",
                    format!(
                        "timestamp {} is outside the supported range",
                        format_timestamp(us)
                    ),
                ));
            }
            Ok(Value::Timestamp(us))
        }
        DataType::Interval => match value {
            Value::Interval { .. } => Ok(value.clone()),
            v => invalid(format!("cannot cast {} to INTERVAL", v.signature())),
        },
        DataType::Array(et) => match value {
            Value::Array(items) => Ok(Value::Array(
                items
                    .iter()
                    .map(|v| store_assign(v, et, opts))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            v => invalid(format!("cannot cast {} to {target}", v.signature())),
        },
        DataType::Map(kt, vt) => match value {
            Value::Map(pairs) => Ok(Value::Map(
                pairs
                    .iter()
                    .map(|(k, v)| Ok((store_assign(k, kt, opts)?, store_assign(v, vt, opts)?)))
                    .collect::<Result<Vec<_>, SparkError>>()?,
            )),
            v => invalid(format!("cannot cast {} to {target}", v.signature())),
        },
        DataType::Struct(fields) => match value {
            Value::Struct(values) if values.len() == fields.len() => Ok(Value::Struct(
                fields
                    .iter()
                    .zip(values)
                    .map(|(f, (_, v))| {
                        // Spark keeps its own case-preserved field names.
                        Ok((f.name.clone(), store_assign(v, &f.data_type, opts)?))
                    })
                    .collect::<Result<Vec<_>, SparkError>>()?,
            )),
            v => invalid(format!("cannot cast {} to {target}", v.signature())),
        },
    }
}

/// The LEGACY path: Hive-compatible casts that silently write NULL where
/// ANSI would raise. Crucially, there is **no diagnostic feedback**.
fn legacy_cast(value: &Value, target: &DataType, opts: CastOptions) -> Value {
    match target {
        DataType::Boolean => match value {
            Value::Boolean(b) => Value::Boolean(*b),
            Value::Str(s) => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "t" | "yes" | "y" | "1" => Value::Boolean(true),
                "false" | "f" | "no" | "n" | "0" => Value::Boolean(false),
                _ => Value::Null,
            },
            Value::Byte(v) => Value::Boolean(*v != 0),
            Value::Int(v) => Value::Boolean(*v != 0),
            _ => Value::Null,
        },
        DataType::Byte | DataType::Short | DataType::Int | DataType::Long => {
            let (min, max): (i128, i128) = match target {
                DataType::Byte => (i8::MIN as i128, i8::MAX as i128),
                DataType::Short => (i16::MIN as i128, i16::MAX as i128),
                DataType::Int => (i32::MIN as i128, i32::MAX as i128),
                _ => (i64::MIN as i128, i64::MAX as i128),
            };
            let raw = match value {
                // Legacy trims whitespace (resolving D09 under the custom
                // configuration).
                Value::Str(s) => s.trim().parse::<i128>().ok(),
                v => integral_of(v),
            };
            match raw {
                Some(v) if (min..=max).contains(&v) => match target {
                    DataType::Byte => Value::Byte(v as i8),
                    DataType::Short => Value::Short(v as i16),
                    DataType::Int => Value::Int(v as i32),
                    _ => Value::Long(v as i64),
                },
                _ => Value::Null,
            }
        }
        DataType::Float | DataType::Double => {
            let raw = match value {
                Value::Str(s) => s.trim().parse::<f64>().ok(),
                v => float_of(v),
            };
            match raw {
                Some(f) if *target == DataType::Float => Value::Float(f as f32),
                Some(f) => Value::Double(f),
                None => Value::Null,
            }
        }
        DataType::Decimal(p, s) => {
            let d = match value {
                Value::Decimal(d) => Some(*d),
                Value::Byte(v) => Decimal::new(*v as i128, 3, 0).ok(),
                Value::Short(v) => Decimal::new(*v as i128, 5, 0).ok(),
                Value::Int(v) => Decimal::new(*v as i128, 10, 0).ok(),
                Value::Long(v) => Decimal::new(*v as i128, 19, 0).ok(),
                Value::Str(text) => Decimal::parse(text.trim()).ok(),
                _ => None,
            };
            match d {
                // Legacy keeps the *runtime* scale as long as it fits the
                // declaration — the writer-side half of D02. Values with
                // too much precision "evaluate to NULL" (SPARK-40439).
                Some(d) if d.scale <= *s && d.digit_count() <= *p as u32 => Value::Decimal(d),
                _ => Value::Null,
            }
        }
        DataType::String => Value::Str(render(value)),
        DataType::Char(n) => {
            if opts.char_varchar_as_string {
                return Value::Str(render(value));
            }
            let mut s: String = render(value).chars().take(*n as usize).collect();
            let pad = *n as usize - s.chars().count();
            s.extend(std::iter::repeat_n(' ', pad));
            Value::Str(s)
        }
        DataType::Varchar(n) => {
            if opts.char_varchar_as_string {
                return Value::Str(render(value));
            }
            // Silent truncation.
            Value::Str(render(value).chars().take(*n as usize).collect())
        }
        DataType::Binary => match value {
            Value::Binary(b) => Value::Binary(b.clone()),
            Value::Str(s) => Value::Binary(s.clone().into_bytes()),
            _ => Value::Null,
        },
        DataType::Date => {
            let days = match value {
                Value::Date(d) => Some(*d),
                Value::Timestamp(us) => Some(us.div_euclid(86_400_000_000) as i32),
                Value::Str(s) => parse_date(s.trim()),
                _ => None,
            };
            match days {
                Some(d) if !opts.date_range_check => Value::Date(d),
                Some(d) if (MIN_DATE_DAYS..=MAX_DATE_DAYS).contains(&d) => Value::Date(d),
                _ => Value::Null,
            }
        }
        DataType::Timestamp => {
            let us = match value {
                Value::Timestamp(us) => Some(*us),
                Value::Date(d) => Some(*d as i64 * 86_400_000_000),
                Value::Str(s) => parse_timestamp(s.trim()),
                _ => None,
            };
            match us {
                Some(v) => Value::Timestamp(v),
                None => Value::Null,
            }
        }
        DataType::Interval => match value {
            Value::Interval { .. } => value.clone(),
            _ => Value::Null,
        },
        DataType::Array(et) => match value {
            Value::Array(items) => {
                Value::Array(items.iter().map(|v| legacy_cast(v, et, opts)).collect())
            }
            _ => Value::Null,
        },
        DataType::Map(kt, vt) => match value {
            Value::Map(pairs) => Value::Map(
                pairs
                    .iter()
                    .map(|(k, v)| (legacy_cast(k, kt, opts), legacy_cast(v, vt, opts)))
                    .collect(),
            ),
            _ => Value::Null,
        },
        DataType::Struct(fields) => match value {
            Value::Struct(values) if values.len() == fields.len() => Value::Struct(
                fields
                    .iter()
                    .zip(values)
                    .map(|(f, (_, v))| (f.name.clone(), legacy_cast(v, &f.data_type, opts)))
                    .collect(),
            ),
            _ => Value::Null,
        },
    }
}

/// Whether a value contains a DATE or TIMESTAMP outside the documented
/// 0001-01-01..9999-12-31 range.
///
/// The `spark.sql.dataframe.dateRangeCheck` path logs a warning before
/// coercing such values to NULL, which is what makes the fix visible to
/// the error-handling oracle (closing D15).
pub(crate) fn has_out_of_range_datetime(value: &Value) -> bool {
    match value {
        Value::Date(d) => !(MIN_DATE_DAYS..=MAX_DATE_DAYS).contains(d),
        Value::Timestamp(us) => {
            let min = MIN_DATE_DAYS as i64 * 86_400_000_000;
            let max = (MAX_DATE_DAYS as i64 + 1) * 86_400_000_000 - 1;
            !(min..=max).contains(us)
        }
        Value::Array(items) => items.iter().any(has_out_of_range_datetime),
        Value::Map(pairs) => pairs
            .iter()
            .any(|(k, v)| has_out_of_range_datetime(k) || has_out_of_range_datetime(v)),
        Value::Struct(fields) => fields.iter().any(|(_, v)| has_out_of_range_datetime(v)),
        _ => false,
    }
}

/// Serializes a case-preserved schema into the `spark.sql.sources.schema`
/// table property.
pub(crate) fn schema_to_property(fields: &[StructField]) -> String {
    serde_json::to_string(fields).expect("schema serializes")
}

/// Parses the `spark.sql.sources.schema` property back into a schema.
pub(crate) fn schema_from_property(raw: &str) -> Option<Vec<StructField>> {
    serde_json::from_str(raw).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANSI: CastOptions = CastOptions {
        policy: StoreAssignmentPolicy::Ansi,
        char_varchar_as_string: false,
        date_range_check: true,
    };
    const LEGACY: CastOptions = CastOptions {
        policy: StoreAssignmentPolicy::Legacy,
        char_varchar_as_string: false,
        date_range_check: false,
    };

    #[test]
    fn ansi_overflow_raises_legacy_nulls() {
        let v = Value::Int(300);
        let err = store_assign(&v, &DataType::Byte, ANSI).unwrap_err();
        assert_eq!(err.code(), "CAST_OVERFLOW");
        assert_eq!(
            store_assign(&v, &DataType::Byte, LEGACY).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn ansi_does_not_trim_strings_legacy_does() {
        let v = Value::Str(" 42 ".into());
        let err = store_assign(&v, &DataType::Int, ANSI).unwrap_err();
        assert_eq!(err.code(), "CAST_INVALID_INPUT");
        assert_eq!(
            store_assign(&v, &DataType::Int, LEGACY).unwrap(),
            Value::Int(42)
        );
    }

    #[test]
    fn boolean_strictness_differs_by_policy() {
        let t = Value::Str("t".into());
        assert!(store_assign(&t, &DataType::Boolean, ANSI).is_err());
        assert_eq!(
            store_assign(&t, &DataType::Boolean, LEGACY).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            store_assign(&Value::Str("TRUE".into()), &DataType::Boolean, ANSI).unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn decimal_ansi_rescales_legacy_keeps_runtime_scale() {
        let d = Value::Decimal(Decimal::parse("1.5").unwrap());
        let target = DataType::Decimal(10, 2);
        let out = store_assign(&d, &target, ANSI).unwrap();
        assert_eq!(out, Value::Decimal(Decimal::new(150, 10, 2).unwrap()));
        // Legacy keeps scale 1 — valid, but physically different.
        let out = store_assign(&d, &target, LEGACY).unwrap();
        assert_eq!(out, Value::Decimal(Decimal::parse("1.5").unwrap()));
    }

    #[test]
    fn decimal_excess_precision_raises_ansi_nulls_legacy() {
        let d = Value::Decimal(Decimal::parse("123.456").unwrap());
        let target = DataType::Decimal(10, 2);
        let err = store_assign(&d, &target, ANSI).unwrap_err();
        assert_eq!(err.code(), "CAST_OVERFLOW");
        // Legacy: too much precision "evaluates to NULL" (SPARK-40439).
        assert_eq!(store_assign(&d, &target, LEGACY).unwrap(), Value::Null);
        // A decimal exceeding the precision goes to NULL under legacy.
        let big = Value::Decimal(Decimal::parse("123456789012.3").unwrap());
        assert_eq!(store_assign(&big, &target, LEGACY).unwrap(), Value::Null);
    }

    #[test]
    fn varchar_overflow_raises_ansi_truncates_legacy() {
        let v = Value::Str("abcdefghij".into());
        let target = DataType::Varchar(8);
        let err = store_assign(&v, &target, ANSI).unwrap_err();
        assert_eq!(err.code(), "EXCEEDS_CHAR_VARCHAR_LENGTH");
        assert_eq!(
            store_assign(&v, &target, LEGACY).unwrap(),
            Value::Str("abcdefgh".into())
        );
        // charVarcharAsString disables both behaviors.
        let relaxed = CastOptions {
            char_varchar_as_string: true,
            ..ANSI
        };
        assert_eq!(store_assign(&v, &target, relaxed).unwrap(), v);
    }

    #[test]
    fn char_pads_under_both_policies() {
        let v = Value::Str("abc".into());
        for opts in [ANSI, LEGACY] {
            assert_eq!(
                store_assign(&v, &DataType::Char(8), opts).unwrap(),
                Value::Str("abc     ".into())
            );
        }
    }

    #[test]
    fn date_range_checked_only_when_asked() {
        let too_far = Value::Date(MAX_DATE_DAYS + 10);
        let err = store_assign(&too_far, &DataType::Date, ANSI).unwrap_err();
        assert_eq!(err.code(), "DATE_OUT_OF_RANGE");
        // The DataFrame legacy path accepts it silently (D15).
        assert_eq!(
            store_assign(&too_far, &DataType::Date, LEGACY).unwrap(),
            too_far
        );
        let strict_legacy = CastOptions {
            date_range_check: true,
            ..LEGACY
        };
        assert_eq!(
            store_assign(&too_far, &DataType::Date, strict_legacy).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn strict_only_accepts_exact_types() {
        let opts = CastOptions {
            policy: StoreAssignmentPolicy::Strict,
            char_varchar_as_string: false,
            date_range_check: true,
        };
        assert!(store_assign(&Value::Int(5), &DataType::Int, opts).is_ok());
        assert!(store_assign(&Value::Int(5), &DataType::Long, opts).is_err());
    }

    #[test]
    fn struct_keeps_case_preserved_field_names() {
        let target = DataType::Struct(vec![StructField::new("Inner", DataType::Int)]);
        let v = Value::Struct(vec![("whatever".into(), Value::Int(1))]);
        let out = store_assign(&v, &target, ANSI).unwrap();
        assert_eq!(out, Value::Struct(vec![("Inner".into(), Value::Int(1))]));
    }

    #[test]
    fn nested_ansi_errors_propagate() {
        let target = DataType::Array(Box::new(DataType::Byte));
        let v = Value::Array(vec![Value::Int(5), Value::Int(300)]);
        assert!(store_assign(&v, &target, ANSI).is_err());
        let out = store_assign(&v, &target, LEGACY).unwrap();
        assert_eq!(out, Value::Array(vec![Value::Byte(5), Value::Null]));
    }

    #[test]
    fn schema_property_round_trips() {
        let fields = vec![
            StructField::new("CamelCol", DataType::Byte),
            StructField::new(
                "m",
                DataType::Map(Box::new(DataType::Int), Box::new(DataType::String)),
            ),
        ];
        let raw = schema_to_property(&fields);
        let back = schema_from_property(&raw).unwrap();
        assert_eq!(back, fields);
        assert_eq!(schema_from_property("not json"), None);
    }
}
