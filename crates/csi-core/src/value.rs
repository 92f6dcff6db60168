//! Cross-system value model: a SQL-style type system and literal values.
//!
//! The cross-testing harness of Section 8 generates inputs that "cover all
//! the data types supported by each interface". This module defines the
//! harness-level representation of those inputs. Each simulated system
//! converts [`Value`]s into its own internal representation at its boundary;
//! the conversions are exactly where the studied discrepancies live.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fixed-point decimal: an unscaled integer plus precision and scale.
///
/// `Decimal { unscaled: 12345, precision: 5, scale: 2 }` represents `123.45`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Decimal {
    /// The digits, as an integer scaled by `10^scale`.
    pub unscaled: i128,
    /// Maximum number of digits this value's type allows.
    pub precision: u8,
    /// Number of digits to the right of the decimal point.
    pub scale: u8,
}

impl Decimal {
    /// Maximum supported precision, matching Spark's and Hive's `DECIMAL(38)`.
    pub const MAX_PRECISION: u8 = 38;

    /// Creates a decimal, validating that the digits fit the precision.
    pub fn new(unscaled: i128, precision: u8, scale: u8) -> Result<Decimal, DecimalError> {
        if precision == 0 || precision > Decimal::MAX_PRECISION {
            return Err(DecimalError::BadPrecision(precision));
        }
        if scale > precision {
            return Err(DecimalError::BadScale { precision, scale });
        }
        let d = Decimal {
            unscaled,
            precision,
            scale,
        };
        if d.digit_count() > precision as u32 {
            return Err(DecimalError::Overflow {
                digits: d.digit_count(),
                precision,
            });
        }
        Ok(d)
    }

    /// Number of significant decimal digits in the unscaled value.
    pub fn digit_count(&self) -> u32 {
        let n = self.unscaled.unsigned_abs();
        // The 64-bit ilog10 is a table lookup; the 128-bit one divides.
        match u64::try_from(n) {
            Ok(0) => 1,
            Ok(v) => v.ilog10() + 1,
            Err(_) => n.ilog10() + 1,
        }
    }

    /// Parses a decimal literal like `-123.45`, inferring precision and scale.
    pub fn parse(text: &str) -> Result<Decimal, DecimalError> {
        let t = text.trim();
        let (neg, t) = match t.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, t.strip_prefix('+').unwrap_or(t)),
        };
        let (int_part, frac_part) = match t.split_once('.') {
            Some((i, f)) => (i, f),
            None => (t, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(DecimalError::Unparseable(text.to_string()));
        }
        if !int_part.chars().all(|c| c.is_ascii_digit())
            || !frac_part.chars().all(|c| c.is_ascii_digit())
        {
            return Err(DecimalError::Unparseable(text.to_string()));
        }
        let digits: String = int_part.chars().chain(frac_part.chars()).collect();
        let unscaled: i128 = if digits.is_empty() {
            0
        } else {
            digits
                .parse()
                .map_err(|_| DecimalError::Unparseable(text.to_string()))?
        };
        let unscaled = if neg { -unscaled } else { unscaled };
        let scale = frac_part.len() as u8;
        let d = Decimal {
            unscaled,
            precision: 0,
            scale,
        };
        let precision = d.digit_count().max(scale as u32 + 1).min(255) as u8;
        if precision > Decimal::MAX_PRECISION {
            return Err(DecimalError::Overflow {
                digits: d.digit_count(),
                precision: Decimal::MAX_PRECISION,
            });
        }
        Decimal::new(unscaled, precision, scale)
    }

    /// Rescales to a new precision/scale, failing if digits would be lost on
    /// the integral side; excess fractional digits are rejected, not rounded.
    pub fn rescale(&self, precision: u8, scale: u8) -> Result<Decimal, DecimalError> {
        let mut unscaled = self.unscaled;
        if scale >= self.scale {
            let up = (scale - self.scale) as u32;
            unscaled = unscaled
                .checked_mul(10i128.checked_pow(up).ok_or(DecimalError::Overflow {
                    digits: 39,
                    precision,
                })?)
                .ok_or(DecimalError::Overflow {
                    digits: 39,
                    precision,
                })?;
        } else {
            let down = (self.scale - scale) as u32;
            let factor = 10i128.pow(down);
            if unscaled % factor != 0 {
                return Err(DecimalError::LossOfScale {
                    from: self.scale,
                    to: scale,
                });
            }
            unscaled /= factor;
        }
        Decimal::new(unscaled, precision, scale)
    }

    /// The value as an `f64` (lossy for large precisions).
    pub fn to_f64(&self) -> f64 {
        self.unscaled as f64 / 10f64.powi(self.scale as i32)
    }

    /// The numerically-equal decimal with the smallest scale (trailing
    /// fractional zeros removed). Used for canonical comparisons.
    pub fn normalized(&self) -> Decimal {
        let mut unscaled = self.unscaled;
        let mut scale = self.scale;
        while scale > 0 && unscaled % 10 == 0 {
            unscaled /= 10;
            scale -= 1;
        }
        Decimal {
            unscaled,
            precision: self.precision,
            scale,
        }
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.unscaled);
        }
        let neg = self.unscaled < 0;
        let digits = self.unscaled.unsigned_abs().to_string();
        let scale = self.scale as usize;
        let padded = if digits.len() <= scale {
            format!("{}{}", "0".repeat(scale - digits.len() + 1), digits)
        } else {
            digits
        };
        let (int_part, frac_part) = padded.split_at(padded.len() - scale);
        write!(
            f,
            "{}{}.{}",
            if neg { "-" } else { "" },
            int_part,
            frac_part
        )
    }
}

/// Errors raised by [`Decimal`] operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecimalError {
    /// Precision outside `1..=38`.
    BadPrecision(u8),
    /// Scale exceeds precision.
    BadScale {
        /// Declared precision.
        precision: u8,
        /// Offending scale.
        scale: u8,
    },
    /// More digits than the precision allows.
    Overflow {
        /// Digits present.
        digits: u32,
        /// Precision allowed.
        precision: u8,
    },
    /// Rescaling would drop non-zero fractional digits.
    LossOfScale {
        /// Original scale.
        from: u8,
        /// Requested scale.
        to: u8,
    },
    /// Not a decimal literal.
    Unparseable(String),
}

impl fmt::Display for DecimalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecimalError::BadPrecision(p) => write!(f, "invalid decimal precision {p}"),
            DecimalError::BadScale { precision, scale } => {
                write!(f, "scale {scale} exceeds precision {precision}")
            }
            DecimalError::Overflow { digits, precision } => {
                write!(f, "{digits} digits exceed precision {precision}")
            }
            DecimalError::LossOfScale { from, to } => {
                write!(f, "cannot rescale from scale {from} to {to} without loss")
            }
            DecimalError::Unparseable(s) => write!(f, "not a decimal literal: {s:?}"),
        }
    }
}

impl std::error::Error for DecimalError {}

/// A named, typed field of a [`DataType::Struct`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StructField {
    /// Field name, case-preserved.
    pub name: String,
    /// Field type.
    pub data_type: DataType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

impl StructField {
    /// Convenience constructor for a nullable field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> StructField {
        StructField {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }
}

/// The SQL-style type system shared by the harness.
///
/// This is the union of the types documented for SparkSQL/DataFrame and
/// HiveQL interfaces; individual systems support subsets with their own
/// coercion rules.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// BOOLEAN.
    Boolean,
    /// BYTE / TINYINT (8-bit signed).
    Byte,
    /// SHORT / SMALLINT (16-bit signed).
    Short,
    /// INT / INTEGER (32-bit signed).
    Int,
    /// LONG / BIGINT (64-bit signed).
    Long,
    /// FLOAT / REAL (32-bit IEEE 754).
    Float,
    /// DOUBLE (64-bit IEEE 754).
    Double,
    /// DECIMAL(precision, scale).
    Decimal(u8, u8),
    /// STRING (unbounded UTF-8).
    String,
    /// CHAR(n): fixed-length, blank-padded.
    Char(u32),
    /// VARCHAR(n): bounded variable-length.
    Varchar(u32),
    /// BINARY (byte array).
    Binary,
    /// DATE (days since 1970-01-01).
    Date,
    /// TIMESTAMP (microseconds since the epoch).
    Timestamp,
    /// Year-month + day-time INTERVAL.
    Interval,
    /// ARRAY of an element type.
    Array(Box<DataType>),
    /// MAP from a key type to a value type.
    Map(Box<DataType>, Box<DataType>),
    /// STRUCT of named fields.
    Struct(Vec<StructField>),
}

impl DataType {
    /// The primitive (non-nested) types, used by input generators.
    pub fn primitives() -> Vec<DataType> {
        vec![
            DataType::Boolean,
            DataType::Byte,
            DataType::Short,
            DataType::Int,
            DataType::Long,
            DataType::Float,
            DataType::Double,
            DataType::Decimal(10, 2),
            DataType::String,
            DataType::Char(8),
            DataType::Varchar(8),
            DataType::Binary,
            DataType::Date,
            DataType::Timestamp,
            DataType::Interval,
        ]
    }

    /// Renders the type in SQL DDL syntax, e.g. `DECIMAL(10,2)`: the
    /// [`Display`](fmt::Display) text as a `String`.
    pub fn sql_name(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Boolean => f.write_str("BOOLEAN"),
            DataType::Byte => f.write_str("TINYINT"),
            DataType::Short => f.write_str("SMALLINT"),
            DataType::Int => f.write_str("INT"),
            DataType::Long => f.write_str("BIGINT"),
            DataType::Float => f.write_str("FLOAT"),
            DataType::Double => f.write_str("DOUBLE"),
            DataType::Decimal(p, s) => write!(f, "DECIMAL({p},{s})"),
            DataType::String => f.write_str("STRING"),
            DataType::Char(n) => write!(f, "CHAR({n})"),
            DataType::Varchar(n) => write!(f, "VARCHAR({n})"),
            DataType::Binary => f.write_str("BINARY"),
            DataType::Date => f.write_str("DATE"),
            DataType::Timestamp => f.write_str("TIMESTAMP"),
            DataType::Interval => f.write_str("INTERVAL"),
            DataType::Array(e) => write!(f, "ARRAY<{e}>"),
            DataType::Map(k, v) => write!(f, "MAP<{k},{v}>"),
            DataType::Struct(fields) => {
                f.write_str("STRUCT<")?;
                for (i, field) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{}", field.name, field.data_type)?;
                }
                f.write_str(">")
            }
        }
    }
}

/// A literal value in the harness representation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// BOOLEAN.
    Boolean(bool),
    /// BYTE.
    Byte(i8),
    /// SHORT.
    Short(i16),
    /// INT.
    Int(i32),
    /// LONG.
    Long(i64),
    /// FLOAT.
    Float(f32),
    /// DOUBLE.
    Double(f64),
    /// DECIMAL.
    Decimal(Decimal),
    /// STRING / CHAR / VARCHAR payload.
    Str(String),
    /// BINARY payload.
    Binary(Vec<u8>),
    /// DATE: days since 1970-01-01.
    Date(i32),
    /// TIMESTAMP: microseconds since the epoch.
    Timestamp(i64),
    /// INTERVAL: months plus microseconds.
    Interval {
        /// Year-month component, in months.
        months: i32,
        /// Day-time component, in microseconds.
        micros: i64,
    },
    /// ARRAY.
    Array(Vec<Value>),
    /// MAP as ordered key/value pairs.
    Map(Vec<(Value, Value)>),
    /// STRUCT as ordered name/value pairs.
    Struct(Vec<(String, Value)>),
}

impl Value {
    /// Whether the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A canonical form for comparison: floats are compared bit-wise with
    /// all NaNs unified, and struct field names are compared exactly.
    ///
    /// The differential oracle needs a total equality on values: `NaN == NaN`
    /// must hold so that two interfaces both producing NaN are *consistent*.
    pub fn canonical_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(a), Value::Float(b)) => canon_f32(*a) == canon_f32(*b),
            (Value::Double(a), Value::Double(b)) => canon_f64(*a) == canon_f64(*b),
            (Value::Array(a), Value::Array(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.canonical_eq(y))
            }
            (Value::Map(a), Value::Map(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((ak, av), (bk, bv))| ak.canonical_eq(bk) && av.canonical_eq(bv))
            }
            (Value::Struct(a), Value::Struct(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((an, av), (bn, bv))| an == bn && av.canonical_eq(bv))
            }
            (Value::Decimal(a), Value::Decimal(b)) => {
                // Decimals compare by numeric value, not representation.
                let (sa, sb) = (a.scale as u32, b.scale as u32);
                let max = sa.max(sb);
                let ua = a.unscaled.checked_mul(10i128.pow(max - sa));
                let ub = b.unscaled.checked_mul(10i128.pow(max - sb));
                match (ua, ub) {
                    (Some(x), Some(y)) => x == y,
                    _ => a == b,
                }
            }
            _ => self == other,
        }
    }

    /// A stable signature string used to group differential observations:
    /// [`Value::write_signature`] into a `String`.
    pub fn signature(&self) -> String {
        let mut out = String::new();
        self.write_signature(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes the signature to `w` part by part, so a caller that only
    /// compares or hashes it never builds it.
    pub(crate) fn write_signature(&self, w: &mut impl fmt::Write) -> fmt::Result {
        fn list<W: fmt::Write, T>(
            w: &mut W,
            prefix: &str,
            items: &[T],
            mut item: impl FnMut(&mut W, &T) -> fmt::Result,
        ) -> fmt::Result {
            w.write_str(prefix)?;
            w.write_char('[')?;
            for (i, x) in items.iter().enumerate() {
                if i > 0 {
                    w.write_char(',')?;
                }
                item(w, x)?;
            }
            w.write_char(']')
        }
        match self {
            Value::Null => w.write_str("null"),
            Value::Boolean(b) => write!(w, "bool:{b}"),
            Value::Byte(v) => write!(w, "i8:{v}"),
            Value::Short(v) => write!(w, "i16:{v}"),
            Value::Int(v) => write!(w, "i32:{v}"),
            Value::Long(v) => write!(w, "i64:{v}"),
            Value::Float(v) => write!(w, "f32:{:08x}", canon_f32(*v)),
            Value::Double(v) => write!(w, "f64:{:016x}", canon_f64(*v)),
            Value::Decimal(d) => write!(w, "dec:{}", d.normalized()),
            Value::Str(s) => write!(w, "str:{s:?}"),
            Value::Binary(b) => {
                w.write_str("bin:")?;
                b.iter().try_for_each(|x| write!(w, "{x:02x}"))
            }
            Value::Date(d) => write!(w, "date:{d}"),
            Value::Timestamp(t) => write!(w, "ts:{t}"),
            Value::Interval { months, micros } => write!(w, "iv:{months}m{micros}us"),
            Value::Array(items) => list(w, "arr:", items, |w, v| v.write_signature(w)),
            Value::Map(pairs) => list(w, "map:", pairs, |w, (k, v)| {
                k.write_signature(w)?;
                w.write_str("=>")?;
                v.write_signature(w)
            }),
            Value::Struct(fields) => list(w, "struct:", fields, |w, (n, v)| {
                write!(w, "{n}:")?;
                v.write_signature(w)
            }),
        }
    }

    /// The most natural [`DataType`] of this value, if it has one.
    pub fn natural_type(&self) -> Option<DataType> {
        Some(match self {
            Value::Null => return None,
            Value::Boolean(_) => DataType::Boolean,
            Value::Byte(_) => DataType::Byte,
            Value::Short(_) => DataType::Short,
            Value::Int(_) => DataType::Int,
            Value::Long(_) => DataType::Long,
            Value::Float(_) => DataType::Float,
            Value::Double(_) => DataType::Double,
            Value::Decimal(d) => DataType::Decimal(d.precision, d.scale),
            Value::Str(_) => DataType::String,
            Value::Binary(_) => DataType::Binary,
            Value::Date(_) => DataType::Date,
            Value::Timestamp(_) => DataType::Timestamp,
            Value::Interval { .. } => DataType::Interval,
            Value::Array(items) => {
                DataType::Array(Box::new(items.iter().find_map(|v| v.natural_type())?))
            }
            Value::Map(pairs) => {
                let (k, v) = pairs.first()?;
                DataType::Map(Box::new(k.natural_type()?), Box::new(v.natural_type()?))
            }
            Value::Struct(fields) => DataType::Struct(
                fields
                    .iter()
                    .map(|(n, v)| Some(StructField::new(n.clone(), v.natural_type()?)))
                    .collect::<Option<Vec<_>>>()?,
            ),
        })
    }
}

/// SQL comparison of two values.
///
/// Returns `None` when either side is NULL (three-valued logic: the
/// predicate is *unknown*) or the values are not comparable. Numerics
/// compare across widths; strings, binaries, booleans, dates, and
/// timestamps compare within their own kind.
pub fn compare_values(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering;
    fn numeric(v: &Value) -> Option<f64> {
        Some(match v {
            Value::Byte(x) => *x as f64,
            Value::Short(x) => *x as f64,
            Value::Int(x) => *x as f64,
            Value::Long(x) => *x as f64,
            Value::Float(x) => *x as f64,
            Value::Double(x) => *x,
            Value::Decimal(d) => d.to_f64(),
            _ => return None,
        })
    }
    if a.is_null() || b.is_null() {
        return None;
    }
    if let (Some(x), Some(y)) = (numeric(a), numeric(b)) {
        return x.partial_cmp(&y);
    }
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Binary(x), Value::Binary(y)) => Some(x.cmp(y)),
        (Value::Boolean(x), Value::Boolean(y)) => Some(x.cmp(y)),
        (Value::Date(x), Value::Date(y)) => Some(x.cmp(y)),
        (Value::Timestamp(x), Value::Timestamp(y)) => Some(x.cmp(y)),
        _ => {
            if a.canonical_eq(b) {
                Some(Ordering::Equal)
            } else {
                None
            }
        }
    }
}

/// Canonical bit pattern for oracle float comparison: all NaNs unified,
/// signed zeros merged. Shared with the columnar diff in [`crate::column`].
pub(crate) fn canon_f32(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else if v == 0.0 {
        0 // Unify +0.0 and -0.0.
    } else {
        v.to_bits()
    }
}

/// 64-bit counterpart of [`canon_f32`].
pub(crate) fn canon_f64(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else if v == 0.0 {
        0
    } else {
        v.to_bits()
    }
}

/// Renders a date (days since epoch) as `YYYY-MM-DD` (proleptic Gregorian).
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Parses `YYYY-MM-DD` into days since the epoch.
pub fn parse_date(text: &str) -> Option<i32> {
    let mut parts = text.split('-');
    let (ys, ms, ds) = (parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() {
        return None;
    }
    let y: i64 = ys.parse().ok()?;
    let m: u32 = ms.parse().ok()?;
    let d: u32 = ds.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    if d > days_in_month(y, m) {
        return None;
    }
    Some(days_from_civil(y, m, d) as i32)
}

/// Renders a timestamp (microseconds since epoch) as
/// `YYYY-MM-DD HH:MM:SS.ffffff` in UTC.
pub fn format_timestamp(micros: i64) -> String {
    let days = micros.div_euclid(86_400_000_000);
    let in_day = micros.rem_euclid(86_400_000_000);
    let (y, m, d) = civil_from_days(days);
    let secs = in_day / 1_000_000;
    let frac = in_day % 1_000_000;
    let (hh, mm, ss) = (secs / 3600, (secs / 60) % 60, secs % 60);
    format!("{y:04}-{m:02}-{d:02} {hh:02}:{mm:02}:{ss:02}.{frac:06}")
}

/// Parses `YYYY-MM-DD HH:MM:SS[.ffffff]` into microseconds since the epoch.
pub fn parse_timestamp(text: &str) -> Option<i64> {
    let (date_part, time_part) = text.split_once(' ')?;
    let days = parse_date(date_part)? as i64;
    let (hms, frac) = match time_part.split_once('.') {
        Some((h, f)) => (h, f),
        None => (time_part, ""),
    };
    let mut it = hms.split(':');
    let hh: i64 = it.next()?.parse().ok()?;
    let mm: i64 = it.next()?.parse().ok()?;
    let ss: i64 = it.next()?.parse().ok()?;
    if it.next().is_some() || hh >= 24 || mm >= 60 || ss >= 60 {
        return None;
    }
    let micros_frac: i64 = if frac.is_empty() {
        0
    } else if frac.len() <= 6 && frac.chars().all(|c| c.is_ascii_digit()) {
        let padded = format!("{frac:0<6}");
        padded.parse().ok()?
    } else {
        return None;
    };
    Some(days * 86_400_000_000 + (hh * 3600 + mm * 60 + ss) * 1_000_000 + micros_frac)
}

fn is_leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

// Howard Hinnant's civil-from-days / days-from-civil algorithms.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y.rem_euclid(400);
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_display_round_trips() {
        for text in ["0", "1.50", "-0.05", "123.45", "-9999999999.999"] {
            let d = Decimal::parse(text).unwrap();
            // Parse keeps trailing zeros via scale, so rendering matches.
            assert_eq!(d.to_string(), text, "round-trip for {text}");
        }
    }

    #[test]
    fn decimal_parse_rejects_garbage() {
        for text in ["", ".", "abc", "1.2.3", "--5", "1e5"] {
            assert!(Decimal::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn decimal_new_enforces_precision() {
        assert!(Decimal::new(12345, 5, 2).is_ok());
        assert!(matches!(
            Decimal::new(123456, 5, 2),
            Err(DecimalError::Overflow { .. })
        ));
        assert!(matches!(
            Decimal::new(1, 0, 0),
            Err(DecimalError::BadPrecision(0))
        ));
        assert!(matches!(
            Decimal::new(1, 3, 4),
            Err(DecimalError::BadScale { .. })
        ));
    }

    #[test]
    fn decimal_rescale_preserves_value_or_fails() {
        let d = Decimal::parse("12.30").unwrap();
        let up = d.rescale(10, 4).unwrap();
        assert_eq!(up.to_string(), "12.3000");
        let down = d.rescale(10, 1).unwrap();
        assert_eq!(down.to_string(), "12.3");
        assert!(matches!(
            Decimal::parse("12.34").unwrap().rescale(10, 1),
            Err(DecimalError::LossOfScale { .. })
        ));
    }

    #[test]
    fn decimal_canonical_eq_ignores_scale_representation() {
        let a = Value::Decimal(Decimal::parse("1.5").unwrap());
        let b = Value::Decimal(Decimal::parse("1.50").unwrap());
        assert!(a.canonical_eq(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn nan_is_canonically_equal_to_nan() {
        let a = Value::Double(f64::NAN);
        let b = Value::Double(f64::from_bits(0x7ff8_0000_0000_0001));
        assert!(a.canonical_eq(&b));
        assert!(Value::Float(f32::NAN).canonical_eq(&Value::Float(-f32::NAN)));
        assert!(Value::Double(0.0).canonical_eq(&Value::Double(-0.0)));
        assert!(!Value::Double(1.0).canonical_eq(&Value::Double(2.0)));
    }

    #[test]
    fn date_round_trips() {
        for text in ["1970-01-01", "2000-02-29", "1969-12-31", "2038-01-19"] {
            let days = parse_date(text).unwrap();
            assert_eq!(format_date(days), text);
        }
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-01-02"), Some(1));
        assert_eq!(parse_date("1969-12-31"), Some(-1));
    }

    #[test]
    fn date_rejects_invalid() {
        for text in ["2021-02-29", "2021-13-01", "2021-00-10", "x", "2021-1"] {
            assert_eq!(parse_date(text), None, "{text:?}");
        }
    }

    #[test]
    fn timestamp_round_trips() {
        for text in [
            "1970-01-01 00:00:00.000000",
            "2001-09-09 01:46:40.123456",
            "1969-12-31 23:59:59.999999",
        ] {
            let us = parse_timestamp(text).unwrap();
            assert_eq!(format_timestamp(us), text);
        }
        assert_eq!(parse_timestamp("1970-01-01 00:00:01"), Some(1_000_000));
    }

    #[test]
    fn timestamp_rejects_invalid() {
        for text in ["1970-01-01", "1970-01-01 25:00:00", "1970-01-01 00:61:00"] {
            assert_eq!(parse_timestamp(text), None, "{text:?}");
        }
    }

    #[test]
    fn sql_names_render_nested_types() {
        let t = DataType::Map(
            Box::new(DataType::String),
            Box::new(DataType::Array(Box::new(DataType::Decimal(10, 2)))),
        );
        assert_eq!(t.sql_name(), "MAP<STRING,ARRAY<DECIMAL(10,2)>>");
        let s = DataType::Struct(vec![
            StructField::new("Inner", DataType::Int),
            StructField::new("b", DataType::Boolean),
        ]);
        assert_eq!(s.sql_name(), "STRUCT<Inner:INT,b:BOOLEAN>");
    }

    #[test]
    fn decimal_signature_is_scale_canonical() {
        let a = Value::Decimal(Decimal::parse("1.50").unwrap());
        let b = Value::Decimal(Decimal::parse("1.5").unwrap());
        assert_eq!(a.signature(), b.signature());
        let c = Value::Decimal(Decimal::parse("1.51").unwrap());
        assert_ne!(a.signature(), c.signature());
        assert_eq!(Decimal::parse("100").unwrap().normalized().scale, 0);
        assert_eq!(
            Decimal::parse("0.00").unwrap().normalized(),
            Decimal::new(0, 3, 0).unwrap().normalized()
        );
    }

    #[test]
    fn signatures_distinguish_values() {
        let a = Value::Array(vec![Value::Int(1), Value::Null]);
        let b = Value::Array(vec![Value::Int(1), Value::Int(0)]);
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.signature(), a.clone().signature());
    }

    #[test]
    fn compare_values_follows_sql_semantics() {
        use std::cmp::Ordering;
        // Cross-width numeric comparison.
        assert_eq!(
            compare_values(&Value::Byte(5), &Value::Long(5)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            compare_values(
                &Value::Decimal(Decimal::parse("1.5").unwrap()),
                &Value::Double(2.0)
            ),
            Some(Ordering::Less)
        );
        // NULL makes the comparison unknown.
        assert_eq!(compare_values(&Value::Null, &Value::Int(1)), None);
        assert_eq!(compare_values(&Value::Int(1), &Value::Null), None);
        // Like kinds compare; unlike kinds do not.
        assert_eq!(
            compare_values(&Value::Str("a".into()), &Value::Str("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            compare_values(&Value::Date(1), &Value::Date(0)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            compare_values(&Value::Str("1".into()), &Value::Int(1)),
            None
        );
    }

    #[test]
    fn natural_type_of_nested_values() {
        let v = Value::Struct(vec![
            ("a".into(), Value::Int(1)),
            ("b".into(), Value::Str("x".into())),
        ]);
        let t = v.natural_type().unwrap();
        assert_eq!(t.sql_name(), "STRUCT<a:INT,b:STRING>");
        assert_eq!(Value::Null.natural_type(), None);
    }
}
