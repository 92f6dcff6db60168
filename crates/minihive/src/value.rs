//! Hive's value coercion semantics.
//!
//! Hive is *lenient*: a value that cannot be represented in the target
//! column type becomes NULL with a logged warning, rather than failing the
//! statement. This is correct, documented Hive behavior — and one half of
//! the "inconsistent error behavior across interfaces" discrepancies of
//! Section 8.2, because Spark's ANSI path raises where Hive coerces.

use crate::error::HiveError;
use crate::types::HiveType;
use csi_core::diag::DiagHandle;
use csi_core::value::{format_date, format_timestamp, parse_date, parse_timestamp, Decimal, Value};

/// Minimum supported DATE (0001-01-01) in days since the epoch.
pub const MIN_DATE_DAYS: i32 = -719_162;
/// Maximum supported DATE (9999-12-31) in days since the epoch.
pub const MAX_DATE_DAYS: i32 = 2_932_896;

/// Coerces a value into a Hive column type under Hive's lenient rules.
///
/// Unrepresentable values become `Value::Null`, with a warning emitted on
/// `diag`. Only structurally impossible requests (e.g. an interval value)
/// return an error.
pub fn coerce(value: &Value, ty: &HiveType, diag: &DiagHandle) -> Result<Value, HiveError> {
    let null_with = |code: &str, msg: String| {
        diag.warn(code, msg);
        Ok(Value::Null)
    };
    if value.is_null() {
        return Ok(Value::Null);
    }
    match ty {
        HiveType::Boolean => match value {
            Value::Boolean(b) => Ok(Value::Boolean(*b)),
            // Hive's lenient string-to-boolean conversion accepts several
            // spellings (the downstream half of discrepancy D12).
            Value::Str(s) => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "t" | "yes" | "y" | "1" => Ok(Value::Boolean(true)),
                "false" | "f" | "no" | "n" | "0" => Ok(Value::Boolean(false)),
                other => null_with(
                    "HIVE_CAST_NULL",
                    format!("cannot convert {other:?} to boolean, writing NULL"),
                ),
            },
            Value::Byte(v) => Ok(Value::Boolean(*v != 0)),
            Value::Int(v) => Ok(Value::Boolean(*v != 0)),
            other => null_with(
                "HIVE_CAST_NULL",
                format!("cannot convert {} to boolean", other.signature()),
            ),
        },
        HiveType::TinyInt => integral(value, i8::MIN as i128, i8::MAX as i128, diag)
            .map(|o| o.map(|v| Value::Byte(v as i8)).unwrap_or(Value::Null)),
        HiveType::SmallInt => integral(value, i16::MIN as i128, i16::MAX as i128, diag)
            .map(|o| o.map(|v| Value::Short(v as i16)).unwrap_or(Value::Null)),
        HiveType::Int => integral(value, i32::MIN as i128, i32::MAX as i128, diag)
            .map(|o| o.map(|v| Value::Int(v as i32)).unwrap_or(Value::Null)),
        HiveType::BigInt => integral(value, i64::MIN as i128, i64::MAX as i128, diag)
            .map(|o| o.map(|v| Value::Long(v as i64)).unwrap_or(Value::Null)),
        HiveType::Float => match floating(value, diag)? {
            Some(f) => Ok(Value::Float(f as f32)),
            None => Ok(Value::Null),
        },
        HiveType::Double => match floating(value, diag)? {
            Some(f) => Ok(Value::Double(f)),
            None => Ok(Value::Null),
        },
        HiveType::Decimal(p, s) => {
            let parsed: Option<Decimal> = match value {
                Value::Decimal(d) => Some(*d),
                Value::Byte(v) => Decimal::new(*v as i128, 3, 0).ok(),
                Value::Short(v) => Decimal::new(*v as i128, 5, 0).ok(),
                Value::Int(v) => Decimal::new(*v as i128, 10, 0).ok(),
                Value::Long(v) => Decimal::new(*v as i128, 19, 0).ok(),
                Value::Str(text) => Decimal::parse(text.trim()).ok(),
                _ => None,
            };
            let Some(d) = parsed else {
                return null_with(
                    "HIVE_CAST_NULL",
                    format!("cannot convert {} to decimal({p},{s})", value.signature()),
                );
            };
            match rescale_half_up(&d, *p, *s) {
                Some(out) => Ok(Value::Decimal(out)),
                None => null_with(
                    "HIVE_DECIMAL_OVERFLOW",
                    format!("decimal {d} does not fit decimal({p},{s}), writing NULL"),
                ),
            }
        }
        HiveType::Str => Ok(Value::Str(render(value))),
        HiveType::Char(n) => {
            // Hive CHAR(n): truncate to n, then blank-pad to exactly n.
            let mut s = render(value);
            if s.chars().count() > *n as usize {
                s = s.chars().take(*n as usize).collect();
                diag.warn(
                    "HIVE_CHAR_TRUNCATED",
                    format!("char({n}) value truncated to {n} characters"),
                );
            }
            let pad = *n as usize - s.chars().count();
            s.extend(std::iter::repeat_n(' ', pad));
            Ok(Value::Str(s))
        }
        HiveType::Varchar(n) => {
            // Hive VARCHAR(n): silently truncate to n (documented).
            let s = render(value);
            if s.chars().count() > *n as usize {
                diag.warn(
                    "HIVE_VARCHAR_TRUNCATED",
                    format!("varchar({n}) value truncated to {n} characters"),
                );
                Ok(Value::Str(s.chars().take(*n as usize).collect()))
            } else {
                Ok(Value::Str(s))
            }
        }
        HiveType::Binary => match value {
            Value::Binary(b) => Ok(Value::Binary(b.clone())),
            Value::Str(s) => Ok(Value::Binary(s.clone().into_bytes())),
            other => null_with(
                "HIVE_CAST_NULL",
                format!("cannot convert {} to binary", other.signature()),
            ),
        },
        HiveType::Date => {
            let days = match value {
                Value::Date(d) => Some(*d),
                Value::Timestamp(us) => Some(us.div_euclid(86_400_000_000) as i32),
                Value::Str(s) => parse_date(s.trim()),
                _ => None,
            };
            match days {
                Some(d) if (MIN_DATE_DAYS..=MAX_DATE_DAYS).contains(&d) => Ok(Value::Date(d)),
                Some(d) => null_with(
                    "HIVE_DATE_OUT_OF_RANGE",
                    format!(
                        "date {} outside 0001-01-01..9999-12-31, writing NULL",
                        format_date(d)
                    ),
                ),
                None => null_with(
                    "HIVE_CAST_NULL",
                    format!("cannot convert {} to date", value.signature()),
                ),
            }
        }
        HiveType::Timestamp => {
            let micros = match value {
                Value::Timestamp(us) => Some(*us),
                Value::Date(d) => Some(*d as i64 * 86_400_000_000),
                Value::Str(s) => parse_timestamp(s.trim()),
                _ => None,
            };
            let min = MIN_DATE_DAYS as i64 * 86_400_000_000;
            let max = (MAX_DATE_DAYS as i64 + 1) * 86_400_000_000 - 1;
            match micros {
                Some(us) if (min..=max).contains(&us) => Ok(Value::Timestamp(us)),
                Some(us) => null_with(
                    "HIVE_TIMESTAMP_OUT_OF_RANGE",
                    format!(
                        "timestamp {} outside the supported range, writing NULL",
                        format_timestamp(us)
                    ),
                ),
                None => null_with(
                    "HIVE_CAST_NULL",
                    format!("cannot convert {} to timestamp", value.signature()),
                ),
            }
        }
        HiveType::Array(elem) => match value {
            Value::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(coerce(item, elem, diag)?);
                }
                Ok(Value::Array(out))
            }
            other => null_with(
                "HIVE_CAST_NULL",
                format!("cannot convert {} to array", other.signature()),
            ),
        },
        HiveType::Map(kt, vt) => match value {
            Value::Map(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    out.push((coerce(k, kt, diag)?, coerce(v, vt, diag)?));
                }
                Ok(Value::Map(out))
            }
            other => null_with(
                "HIVE_CAST_NULL",
                format!("cannot convert {} to map", other.signature()),
            ),
        },
        HiveType::Struct(fields) => match value {
            Value::Struct(values) if values.len() == fields.len() => {
                let mut out = Vec::with_capacity(values.len());
                for ((fname, fty), (_, v)) in fields.iter().zip(values) {
                    // Hive matches struct fields positionally on insert and
                    // stores its own (lower-cased) field names.
                    out.push((fname.clone(), coerce(v, fty, diag)?));
                }
                Ok(Value::Struct(out))
            }
            other => null_with(
                "HIVE_CAST_NULL",
                format!("cannot convert {} to struct", other.signature()),
            ),
        },
    }
}

fn integral(
    value: &Value,
    min: i128,
    max: i128,
    diag: &DiagHandle,
) -> Result<Option<i128>, HiveError> {
    let raw: Option<i128> = match value {
        Value::Byte(v) => Some(*v as i128),
        Value::Short(v) => Some(*v as i128),
        Value::Int(v) => Some(*v as i128),
        Value::Long(v) => Some(*v as i128),
        Value::Boolean(b) => Some(*b as i128),
        Value::Float(f) if f.is_finite() => Some(f.trunc() as i128),
        Value::Double(f) if f.is_finite() => Some(f.trunc() as i128),
        Value::Decimal(d) => {
            let down = d.rescale(d.precision, 0).ok();
            down.map(|x| x.unscaled)
        }
        Value::Str(s) => s.trim().parse::<i128>().ok(),
        _ => None,
    };
    match raw {
        Some(v) if (min..=max).contains(&v) => Ok(Some(v)),
        Some(v) => {
            diag.warn(
                "HIVE_INTEGRAL_OUT_OF_RANGE",
                format!("value {v} outside [{min}, {max}], writing NULL"),
            );
            Ok(None)
        }
        None => {
            diag.warn(
                "HIVE_CAST_NULL",
                format!(
                    "cannot convert {} to integral, writing NULL",
                    value.signature()
                ),
            );
            Ok(None)
        }
    }
}

fn floating(value: &Value, diag: &DiagHandle) -> Result<Option<f64>, HiveError> {
    let raw: Option<f64> = match value {
        Value::Float(f) => Some(*f as f64),
        Value::Double(f) => Some(*f),
        Value::Byte(v) => Some(*v as f64),
        Value::Short(v) => Some(*v as f64),
        Value::Int(v) => Some(*v as f64),
        Value::Long(v) => Some(*v as f64),
        Value::Decimal(d) => Some(d.to_f64()),
        Value::Str(s) => {
            let t = s.trim();
            match t.to_ascii_lowercase().as_str() {
                "nan" => Some(f64::NAN),
                "infinity" | "inf" => Some(f64::INFINITY),
                "-infinity" | "-inf" => Some(f64::NEG_INFINITY),
                _ => t.parse().ok(),
            }
        }
        _ => None,
    };
    if raw.is_none() {
        diag.warn(
            "HIVE_CAST_NULL",
            format!(
                "cannot convert {} to floating point, writing NULL",
                value.signature()
            ),
        );
    }
    Ok(raw)
}

/// Rescales a decimal to `(p, s)` with HALF_UP rounding of excess fractional
/// digits; returns `None` on integral overflow.
pub(crate) fn rescale_half_up(d: &Decimal, p: u8, s: u8) -> Option<Decimal> {
    if s >= d.scale {
        return d.rescale(p, s).ok();
    }
    let down = (d.scale - s) as u32;
    let factor = 10i128.pow(down);
    let quotient = d.unscaled / factor;
    let remainder = (d.unscaled % factor).abs();
    let rounded = if remainder * 2 >= factor {
        quotient + d.unscaled.signum()
    } else {
        quotient
    };
    Decimal::new(rounded, p, s).ok()
}

/// Renders a value the way Hive casts it to STRING.
pub fn render(value: &Value) -> String {
    match value {
        Value::Null => "NULL".to_string(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use csi_core::diag::DiagSink;

    fn sinkpair() -> (DiagSink, DiagHandle) {
        let sink = DiagSink::new();
        let handle = sink.handle("minihive");
        (sink, handle)
    }

    #[test]
    fn lenient_boolean_strings() {
        let (sink, h) = sinkpair();
        for (raw, want) in [
            ("t", true),
            ("1", true),
            ("YES", true),
            ("f", false),
            ("no", false),
        ] {
            let out = coerce(&Value::Str(raw.into()), &HiveType::Boolean, &h).unwrap();
            assert_eq!(out, Value::Boolean(want), "{raw}");
        }
        assert!(sink.is_empty());
        let out = coerce(&Value::Str("maybe".into()), &HiveType::Boolean, &h).unwrap();
        assert_eq!(out, Value::Null);
        assert_eq!(sink.drain().len(), 1);
    }

    #[test]
    fn integral_out_of_range_becomes_null_with_warning() {
        let (sink, h) = sinkpair();
        let out = coerce(&Value::Int(300), &HiveType::TinyInt, &h).unwrap();
        assert_eq!(out, Value::Null);
        let d = sink.drain();
        assert_eq!(d[0].code, "HIVE_INTEGRAL_OUT_OF_RANGE");
        // In range narrows fine.
        let out = coerce(&Value::Int(100), &HiveType::TinyInt, &h).unwrap();
        assert_eq!(out, Value::Byte(100));
    }

    #[test]
    fn numeric_strings_are_trimmed() {
        let (_, h) = sinkpair();
        let out = coerce(&Value::Str(" 42 ".into()), &HiveType::Int, &h).unwrap();
        assert_eq!(out, Value::Int(42));
    }

    #[test]
    fn decimal_rounds_half_up_and_overflows_to_null() {
        let (sink, h) = sinkpair();
        let v = Value::Decimal(Decimal::parse("123.456").unwrap());
        let out = coerce(&v, &HiveType::Decimal(10, 2), &h).unwrap();
        assert_eq!(out, Value::Decimal(Decimal::new(12346, 10, 2).unwrap()));
        // An exact tie rounds away from zero, on either sign.
        for (text, unscaled) in [("123.455", 12346), ("-123.455", -12346)] {
            let v = Value::Decimal(Decimal::parse(text).unwrap());
            let out = coerce(&v, &HiveType::Decimal(10, 2), &h).unwrap();
            let want = Decimal::new(unscaled, 10, 2).unwrap();
            assert_eq!(out, Value::Decimal(want), "{text}");
        }
        assert!(sink.is_empty());
        // Too many integral digits -> NULL + warning.
        let big = Value::Decimal(Decimal::parse("123456789012.3").unwrap());
        let out = coerce(&big, &HiveType::Decimal(10, 2), &h).unwrap();
        assert_eq!(out, Value::Null);
        assert_eq!(sink.drain()[0].code, "HIVE_DECIMAL_OVERFLOW");
    }

    #[test]
    fn char_pads_and_varchar_truncates() {
        let (sink, h) = sinkpair();
        let out = coerce(&Value::Str("abc".into()), &HiveType::Char(8), &h).unwrap();
        assert_eq!(out, Value::Str("abc     ".into()));
        let out = coerce(&Value::Str("abcdefghij".into()), &HiveType::Varchar(8), &h).unwrap();
        assert_eq!(out, Value::Str("abcdefgh".into()));
        assert!(sink
            .drain()
            .iter()
            .any(|d| d.code == "HIVE_VARCHAR_TRUNCATED"));
    }

    #[test]
    fn dates_out_of_range_become_null() {
        let (sink, h) = sinkpair();
        let ok = coerce(&Value::Date(0), &HiveType::Date, &h).unwrap();
        assert_eq!(ok, Value::Date(0));
        let out = coerce(&Value::Date(MAX_DATE_DAYS + 1), &HiveType::Date, &h).unwrap();
        assert_eq!(out, Value::Null);
        assert_eq!(sink.drain()[0].code, "HIVE_DATE_OUT_OF_RANGE");
    }

    #[test]
    fn invalid_date_strings_become_null() {
        let (sink, h) = sinkpair();
        let out = coerce(&Value::Str("2021-02-30".into()), &HiveType::Date, &h).unwrap();
        assert_eq!(out, Value::Null);
        assert_eq!(sink.drain().len(), 1);
    }

    #[test]
    fn nested_coercion_recurses() {
        let (_, h) = sinkpair();
        let v = Value::Array(vec![Value::Str("1".into()), Value::Str("x".into())]);
        let out = coerce(&v, &HiveType::Array(Box::new(HiveType::Int)), &h).unwrap();
        assert_eq!(out, Value::Array(vec![Value::Int(1), Value::Null]));
    }

    #[test]
    fn struct_insert_is_positional_with_hive_field_names() {
        let (_, h) = sinkpair();
        let ty = HiveType::Struct(vec![("inner".into(), HiveType::Int)]);
        let v = Value::Struct(vec![("Inner".into(), Value::Int(5))]);
        let out = coerce(&v, &ty, &h).unwrap();
        // Hive stores its own lowercase field name.
        assert_eq!(out, Value::Struct(vec![("inner".into(), Value::Int(5))]));
    }

    #[test]
    fn everything_casts_to_string() {
        let (_, h) = sinkpair();
        let out = coerce(&Value::Date(0), &HiveType::Str, &h).unwrap();
        assert_eq!(out, Value::Str("1970-01-01".into()));
        let out = coerce(&Value::Boolean(true), &HiveType::Str, &h).unwrap();
        assert_eq!(out, Value::Str("true".into()));
    }

    #[test]
    fn special_floats_parse() {
        let (_, h) = sinkpair();
        let out = coerce(&Value::Str("NaN".into()), &HiveType::Double, &h).unwrap();
        assert!(matches!(out, Value::Double(f) if f.is_nan()));
        let out = coerce(&Value::Str("-Infinity".into()), &HiveType::Float, &h).unwrap();
        assert!(matches!(out, Value::Float(f) if f == f32::NEG_INFINITY));
    }
}
