//! Columnar storage for harness-level [`Value`]s.
//!
//! The differential oracle and the engines' serde layers both iterate over
//! tables of [`Value`] cells. For the catalogue-sized campaigns that was
//! fine; for million-row tables the per-cell enum matching, heap-allocated
//! rows, and recursive [`Value::canonical_eq`] walks dominate. A
//! [`ValueColumn`] stores one typed contiguous buffer per column plus a
//! validity bitmap, so the hot paths become plain slice scans:
//!
//! * comparison first tries a word-wise validity check plus a raw buffer
//!   compare (`memcmp`-shaped) and only falls back to element-wise
//!   canonical comparison when raw bytes differ — raw equality is
//!   *sufficient* for canonical equality on every variant, just not
//!   necessary for floats (NaN payloads, signed zeros) and decimals
//!   (differing scales);
//! * fingerprinting hashes canonical fixed-width lanes directly instead of
//!   formatting per-cell signature strings.
//!
//! Nested and heterogeneous data stays row-wise in [`ColumnValues::Mixed`];
//! only flat columns — everything the bulk generator emits — get the fast
//! paths.

use crate::hash::WordFnv;
use crate::value::{canon_f32, canon_f64, DataType, Decimal, Value};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// A validity bitmap (bit set ⇒ slot holds a value).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Validity {
    words: Vec<u64>,
    len: usize,
}

impl Validity {
    /// An empty bitmap with capacity for `n` slots.
    pub fn with_capacity(n: usize) -> Validity {
        Validity {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Appends one slot.
    pub fn push(&mut self, valid: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        if valid {
            *self.words.last_mut().expect("just pushed") |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// Whether slot `i` holds a value.
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL slots.
    pub fn null_count(&self) -> usize {
        self.len
            - self
                .words
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// Raw words for word-at-a-time scans.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from raw words (bits past `len` must be zero).
    pub fn from_raw(words: Vec<u64>, len: usize) -> Validity {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        Validity { words, len }
    }

    /// An all-NULL bitmap of `n` slots.
    pub fn nulls(n: usize) -> Validity {
        Validity {
            words: vec![0; n.div_ceil(64)],
            len: n,
        }
    }

    /// Whether two bitmaps mark exactly the same slots valid. Trailing
    /// unused bits are always zero, so this is a plain word compare —
    /// the "bitmap-XOR" validity diff.
    pub fn same_as(&self, other: &Validity) -> bool {
        self.len == other.len && self.words == other.words
    }
}

/// The typed buffer behind a [`ValueColumn`]. NULL slots hold a zero-ish
/// placeholder; the validity bitmap is authoritative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ColumnValues {
    /// BOOLEAN cells.
    Boolean(Vec<bool>),
    /// BYTE cells.
    Byte(Vec<i8>),
    /// SHORT cells.
    Short(Vec<i16>),
    /// INT cells.
    Int(Vec<i32>),
    /// LONG cells.
    Long(Vec<i64>),
    /// FLOAT cells (raw bits in the buffer; canonicalized on compare).
    Float(Vec<f32>),
    /// DOUBLE cells.
    Double(Vec<f64>),
    /// DECIMAL cells: parallel unscaled/precision/scale lanes.
    Decimal {
        /// Unscaled integers.
        unscaled: Vec<i128>,
        /// Per-cell precision.
        precision: Vec<u8>,
        /// Per-cell scale.
        scale: Vec<u8>,
    },
    /// STRING / CHAR / VARCHAR cells: offsets + bytes.
    Str {
        /// One entry per cell plus a trailing end offset.
        offsets: Vec<usize>,
        /// Concatenated UTF-8 payloads.
        bytes: Vec<u8>,
    },
    /// BINARY cells: offsets + bytes.
    Binary {
        /// One entry per cell plus a trailing end offset.
        offsets: Vec<usize>,
        /// Concatenated payloads.
        bytes: Vec<u8>,
    },
    /// DATE cells (days since epoch).
    Date(Vec<i32>),
    /// TIMESTAMP cells (microseconds since epoch).
    Timestamp(Vec<i64>),
    /// INTERVAL cells: parallel month/microsecond lanes.
    Interval {
        /// Year-month components.
        months: Vec<i32>,
        /// Day-time components.
        micros: Vec<i64>,
    },
    /// Row-wise storage for nested or heterogeneous cells — the escape
    /// hatch that keeps the columnar API total over [`Value`].
    Mixed(Vec<Value>),
}

macro_rules! lane {
    ($buf:expr, $v:expr) => {{
        $buf.push($v);
    }};
}

impl ColumnValues {
    fn for_type(ty: &DataType, cap: usize) -> ColumnValues {
        match ty {
            DataType::Boolean => ColumnValues::Boolean(Vec::with_capacity(cap)),
            DataType::Byte => ColumnValues::Byte(Vec::with_capacity(cap)),
            DataType::Short => ColumnValues::Short(Vec::with_capacity(cap)),
            DataType::Int => ColumnValues::Int(Vec::with_capacity(cap)),
            DataType::Long => ColumnValues::Long(Vec::with_capacity(cap)),
            DataType::Float => ColumnValues::Float(Vec::with_capacity(cap)),
            DataType::Double => ColumnValues::Double(Vec::with_capacity(cap)),
            DataType::Decimal(_, _) => ColumnValues::Decimal {
                unscaled: Vec::with_capacity(cap),
                precision: Vec::with_capacity(cap),
                scale: Vec::with_capacity(cap),
            },
            DataType::String | DataType::Char(_) | DataType::Varchar(_) => ColumnValues::Str {
                offsets: vec![0],
                bytes: Vec::new(),
            },
            DataType::Binary => ColumnValues::Binary {
                offsets: vec![0],
                bytes: Vec::new(),
            },
            DataType::Date => ColumnValues::Date(Vec::with_capacity(cap)),
            DataType::Timestamp => ColumnValues::Timestamp(Vec::with_capacity(cap)),
            DataType::Interval => ColumnValues::Interval {
                months: Vec::with_capacity(cap),
                micros: Vec::with_capacity(cap),
            },
            DataType::Array(_) | DataType::Map(_, _) | DataType::Struct(_) => {
                ColumnValues::Mixed(Vec::with_capacity(cap))
            }
        }
    }

    fn push_null(&mut self) {
        match self {
            ColumnValues::Boolean(v) => lane!(v, false),
            ColumnValues::Byte(v) => lane!(v, 0),
            ColumnValues::Short(v) => lane!(v, 0),
            ColumnValues::Int(v) => lane!(v, 0),
            ColumnValues::Long(v) => lane!(v, 0),
            ColumnValues::Float(v) => lane!(v, 0.0),
            ColumnValues::Double(v) => lane!(v, 0.0),
            ColumnValues::Decimal {
                unscaled,
                precision,
                scale,
            } => {
                unscaled.push(0);
                precision.push(1);
                scale.push(0);
            }
            ColumnValues::Str { offsets, bytes } | ColumnValues::Binary { offsets, bytes } => {
                offsets.push(bytes.len());
            }
            ColumnValues::Date(v) => lane!(v, 0),
            ColumnValues::Timestamp(v) => lane!(v, 0),
            ColumnValues::Interval { months, micros } => {
                months.push(0);
                micros.push(0);
            }
            ColumnValues::Mixed(v) => v.push(Value::Null),
        }
    }

    /// Appends a non-null value if it inhabits this buffer; `false` on a
    /// variant mismatch (nothing appended).
    fn push_typed(&mut self, value: &Value) -> bool {
        match (self, value) {
            (ColumnValues::Boolean(v), Value::Boolean(x)) => lane!(v, *x),
            (ColumnValues::Byte(v), Value::Byte(x)) => lane!(v, *x),
            (ColumnValues::Short(v), Value::Short(x)) => lane!(v, *x),
            (ColumnValues::Int(v), Value::Int(x)) => lane!(v, *x),
            (ColumnValues::Long(v), Value::Long(x)) => lane!(v, *x),
            (ColumnValues::Float(v), Value::Float(x)) => lane!(v, *x),
            (ColumnValues::Double(v), Value::Double(x)) => lane!(v, *x),
            (
                ColumnValues::Decimal {
                    unscaled,
                    precision,
                    scale,
                },
                Value::Decimal(d),
            ) => {
                unscaled.push(d.unscaled);
                precision.push(d.precision);
                scale.push(d.scale);
            }
            (ColumnValues::Str { offsets, bytes }, Value::Str(s)) => {
                bytes.extend_from_slice(s.as_bytes());
                offsets.push(bytes.len());
            }
            (ColumnValues::Binary { offsets, bytes }, Value::Binary(b)) => {
                bytes.extend_from_slice(b);
                offsets.push(bytes.len());
            }
            (ColumnValues::Date(v), Value::Date(x)) => lane!(v, *x),
            (ColumnValues::Timestamp(v), Value::Timestamp(x)) => lane!(v, *x),
            (
                ColumnValues::Interval { months, micros },
                Value::Interval {
                    months: m,
                    micros: u,
                },
            ) => {
                months.push(*m);
                micros.push(*u);
            }
            (ColumnValues::Mixed(v), value) => v.push(value.clone()),
            _ => return false,
        }
        true
    }

    fn get(&self, i: usize) -> Value {
        match self {
            ColumnValues::Boolean(v) => Value::Boolean(v[i]),
            ColumnValues::Byte(v) => Value::Byte(v[i]),
            ColumnValues::Short(v) => Value::Short(v[i]),
            ColumnValues::Int(v) => Value::Int(v[i]),
            ColumnValues::Long(v) => Value::Long(v[i]),
            ColumnValues::Float(v) => Value::Float(v[i]),
            ColumnValues::Double(v) => Value::Double(v[i]),
            ColumnValues::Decimal {
                unscaled,
                precision,
                scale,
            } => Value::Decimal(Decimal {
                unscaled: unscaled[i],
                precision: precision[i],
                scale: scale[i],
            }),
            ColumnValues::Str { offsets, bytes } => Value::Str(
                std::str::from_utf8(&bytes[offsets[i]..offsets[i + 1]])
                    .expect("pushed from &str")
                    .to_string(),
            ),
            ColumnValues::Binary { offsets, bytes } => {
                Value::Binary(bytes[offsets[i]..offsets[i + 1]].to_vec())
            }
            ColumnValues::Date(v) => Value::Date(v[i]),
            ColumnValues::Timestamp(v) => Value::Timestamp(v[i]),
            ColumnValues::Interval { months, micros } => Value::Interval {
                months: months[i],
                micros: micros[i],
            },
            ColumnValues::Mixed(v) => v[i].clone(),
        }
    }

    /// Whether the raw buffers are equal. Sufficient (not necessary) for
    /// canonical equality: every variant's canonical form is a function of
    /// the raw cell, and NULL placeholders are deterministic.
    fn raw_eq(&self, other: &ColumnValues) -> bool {
        match (self, other) {
            (ColumnValues::Float(a), ColumnValues::Float(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (ColumnValues::Double(a), ColumnValues::Double(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (ColumnValues::Mixed(_), _) | (_, ColumnValues::Mixed(_)) => false,
            _ => self == other,
        }
    }
}

/// How two columns compare under [`ValueColumn::compare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnMatch {
    /// Same length, validity and buffer kind, with lanes equal bit for
    /// bit: the two fingerprint equally.
    Identical,
    /// Canonically equal, cell by cell, without being identical.
    Canonical,
    /// Not canonically equal.
    Unequal,
}

/// A typed column of [`Value`]s with a validity bitmap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValueColumn {
    validity: Validity,
    values: ColumnValues,
}

impl ValueColumn {
    /// An empty column whose buffer matches `ty`.
    pub fn for_type(ty: &DataType) -> ValueColumn {
        ValueColumn::with_capacity(ty, 0)
    }

    /// An empty column with row capacity pre-reserved.
    pub fn with_capacity(ty: &DataType, cap: usize) -> ValueColumn {
        ValueColumn {
            validity: Validity::with_capacity(cap),
            values: ColumnValues::for_type(ty, cap),
        }
    }

    /// Builds a column from row-wise values: cells matching `ty` land in
    /// the typed buffer; any mismatch falls back to a [`ColumnValues::Mixed`]
    /// column holding clones (so this is total, like the row path).
    pub fn from_values(ty: &DataType, values: &[Value]) -> ValueColumn {
        let mut col = ValueColumn::with_capacity(ty, values.len());
        for v in values {
            col.push(v);
        }
        col
    }

    /// Assembles a column from a bitmap and a typed buffer, for producers
    /// (engine serde layers) that fill lanes in bulk. The buffer's slot
    /// count must match the bitmap's.
    pub fn from_parts(validity: Validity, values: ColumnValues) -> ValueColumn {
        ValueColumn { validity, values }
    }

    /// An all-NULL column of `n` slots typed for `ty`.
    pub fn nulls(ty: &DataType, n: usize) -> ValueColumn {
        let mut col = ValueColumn::with_capacity(ty, n);
        for _ in 0..n {
            col.push(&Value::Null);
        }
        col
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// Whether the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Validity {
        &self.validity
    }

    /// The typed buffer.
    pub fn values(&self) -> &ColumnValues {
        &self.values
    }

    /// Mutable access to the typed buffer, for in-place rewrites that keep
    /// the validity bitmap intact (e.g. CHAR padding trims).
    pub fn values_mut(&mut self) -> &mut ColumnValues {
        &mut self.values
    }

    /// Number of NULL slots.
    pub fn null_count(&self) -> usize {
        self.validity.null_count()
    }

    /// Whether this is a DECIMAL lane whose every valid cell is declared
    /// exactly `(precision, scale)` and has at most `precision` digits —
    /// the cells both engines' decimal casts return unchanged.
    pub fn decimals_are_exactly(&self, precision: u8, scale: u8) -> bool {
        let ColumnValues::Decimal {
            unscaled,
            precision: p,
            scale: s,
        } = &self.values
        else {
            return false;
        };
        if precision == 0 || precision > Decimal::MAX_PRECISION || scale > precision {
            return false;
        }
        let bound = 10u128.pow(u32::from(precision));
        (0..unscaled.len()).all(|i| {
            !self.validity.get(i)
                || (p[i] == precision && s[i] == scale && unscaled[i].unsigned_abs() < bound)
        })
    }

    /// Appends a cell. A variant mismatch demotes the column to
    /// [`ColumnValues::Mixed`] — appends never fail.
    pub fn push(&mut self, value: &Value) {
        if value.is_null() {
            self.validity.push(false);
            self.values.push_null();
            return;
        }
        if !self.values.push_typed(value) {
            self.demote_to_mixed();
            let ok = self.values.push_typed(value);
            debug_assert!(ok, "Mixed accepts any value");
        }
        self.validity.push(true);
    }

    /// Materializes slot `i`.
    pub fn get(&self, i: usize) -> Value {
        if !self.validity.get(i) {
            return Value::Null;
        }
        self.values.get(i)
    }

    /// Materializes the whole column row-wise.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Appends every cell of `other`.
    pub fn extend_from(&mut self, other: &ValueColumn) {
        for i in 0..other.len() {
            // Cheap for matching buffer kinds: push_typed is a buffer
            // append; only Mixed columns re-clone per cell.
            self.push(&other.get(i));
        }
    }

    fn demote_to_mixed(&mut self) {
        let mut cells = Vec::with_capacity(self.len() + 1);
        for i in 0..self.len() {
            cells.push(self.get(i));
        }
        self.values = ColumnValues::Mixed(cells);
    }

    /// Vectorized counterpart of element-wise [`Value::canonical_eq`]:
    /// whether [`compare`](ValueColumn::compare) finds the columns
    /// [`Identical`](ColumnMatch::Identical) or
    /// [`Canonical`](ColumnMatch::Canonical).
    pub fn canonical_eq(&self, other: &ValueColumn) -> bool {
        self.compare(other) != ColumnMatch::Unequal
    }

    /// Compares two columns in one pass.
    ///
    /// Fast path: same buffer kind + word-equal validity bitmaps + raw
    /// buffer equality ⇒ [`ColumnMatch::Identical`], with no per-cell
    /// work. Slow path (raw bytes differ, or either side is
    /// [`ColumnValues::Mixed`]): per-slot canonical comparison, because
    /// float NaN payloads, signed zeros and decimal rescalings are
    /// canonically equal without being raw-equal.
    pub fn compare(&self, other: &ValueColumn) -> ColumnMatch {
        if self.len() != other.len() || !self.validity.same_as(&other.validity) {
            return ColumnMatch::Unequal;
        }
        if self.values.raw_eq(&other.values) {
            return ColumnMatch::Identical;
        }
        let equal = (0..self.len()).all(|i| {
            if !self.validity.get(i) {
                return true; // both NULL: validity already matched
            }
            self.values.get(i).canonical_eq(&other.values.get(i))
        });
        if equal {
            ColumnMatch::Canonical
        } else {
            ColumnMatch::Unequal
        }
    }

    /// A stable 64-bit fingerprint of the column: its length, validity
    /// words and lanes, hashed over canonical lanes, not signature strings.
    ///
    /// [`Identical`](ColumnMatch::Identical) columns fingerprint equally,
    /// and so do typed columns that differ only in float NaN payloads,
    /// signed zeros or decimal scale. Canonically equal columns in
    /// general need not: a [`ColumnValues::Mixed`] column hashes its
    /// cells' signatures, not a typed column's lanes, and a string or
    /// binary column hashes the bytes its NULL slots hold.
    pub fn fingerprint(&self) -> u64 {
        let mut h = WordFnv::new();
        h.word(self.len() as u64);
        for w in self.validity.words() {
            h.word(*w);
        }
        match &self.values {
            ColumnValues::Boolean(v) => {
                h.write(b"bool");
                for (i, x) in v.iter().enumerate() {
                    h.word(u64::from(self.validity.get(i) && *x));
                }
            }
            ColumnValues::Byte(v) => hash_ints(&mut h, b"i8", v, &self.validity, |x| *x as i64),
            ColumnValues::Short(v) => hash_ints(&mut h, b"i16", v, &self.validity, |x| *x as i64),
            ColumnValues::Int(v) => hash_ints(&mut h, b"i32", v, &self.validity, |x| *x as i64),
            ColumnValues::Long(v) => hash_ints(&mut h, b"i64", v, &self.validity, |x| *x),
            ColumnValues::Float(v) => {
                h.write(b"f32");
                for (i, x) in v.iter().enumerate() {
                    let bits = if self.validity.get(i) {
                        canon_f32(*x)
                    } else {
                        0
                    };
                    h.word(u64::from(bits));
                }
            }
            ColumnValues::Double(v) => {
                h.write(b"f64");
                for (i, x) in v.iter().enumerate() {
                    let bits = if self.validity.get(i) {
                        canon_f64(*x)
                    } else {
                        0
                    };
                    h.word(bits);
                }
            }
            ColumnValues::Decimal {
                unscaled, scale, ..
            } => {
                h.write(b"dec");
                for i in 0..unscaled.len() {
                    if !self.validity.get(i) {
                        h.word(u64::MAX);
                        continue;
                    }
                    // Canonical form: strip trailing zeros so rescaled
                    // decimals (canonically equal) hash equally. 64-bit
                    // division when the cell fits; the sign extension is
                    // the high word the 128-bit shift would produce.
                    let mut s = scale[i];
                    let (lo, hi) = if let Ok(mut u) = i64::try_from(unscaled[i]) {
                        while s > 0 && u % 10 == 0 {
                            u /= 10;
                            s -= 1;
                        }
                        (u as u64, (u >> 63) as u64)
                    } else {
                        let mut u = unscaled[i];
                        while s > 0 && u % 10 == 0 {
                            u /= 10;
                            s -= 1;
                        }
                        (u as u64, (u >> 64) as u64)
                    };
                    h.word(lo);
                    h.word(hi);
                    h.word(u64::from(s));
                }
            }
            ColumnValues::Str { offsets, bytes } => hash_var(&mut h, b"str", offsets, bytes),
            ColumnValues::Binary { offsets, bytes } => hash_var(&mut h, b"bin", offsets, bytes),
            ColumnValues::Date(v) => hash_ints(&mut h, b"date", v, &self.validity, |x| *x as i64),
            ColumnValues::Timestamp(v) => hash_ints(&mut h, b"ts", v, &self.validity, |x| *x),
            ColumnValues::Interval { months, micros } => {
                h.write(b"iv");
                for i in 0..months.len() {
                    if self.validity.get(i) {
                        h.word(months[i] as u64);
                        h.word(micros[i] as u64);
                    } else {
                        h.word(u64::MAX);
                    }
                }
            }
            ColumnValues::Mixed(v) => {
                h.write(b"mixed");
                for (i, x) in v.iter().enumerate() {
                    if self.validity.get(i) {
                        h.write(x.signature().as_bytes());
                    } else {
                        h.write(b"null");
                    }
                    h.write(b";");
                }
            }
        }
        h.finish()
    }
}

/// A row whose cell count differs from the column count it is transposed
/// against. Both engines map it into their own `Arity` error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArityMismatch {
    /// Number of columns.
    pub expected: usize,
    /// Number of cells in the first offending row.
    pub got: usize,
}

/// Rows → columns: the one place row-major values become [`ValueColumn`]s.
/// Statement and API edges call it once; everything below them is
/// columnar. Column `i` is typed by the `i`-th of `types`; a cell that does
/// not inhabit it demotes that column to [`ColumnValues::Mixed`], so this
/// only fails on a ragged row.
pub fn columns_from_rows<T: Borrow<DataType>>(
    types: impl IntoIterator<Item = T>,
    rows: &[Vec<Value>],
) -> Result<Vec<ValueColumn>, ArityMismatch> {
    let mut cols: Vec<ValueColumn> = types
        .into_iter()
        .map(|ty| ValueColumn::with_capacity(ty.borrow(), rows.len()))
        .collect();
    for row in rows {
        if row.len() != cols.len() {
            return Err(ArityMismatch {
                expected: cols.len(),
                got: row.len(),
            });
        }
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
    }
    Ok(cols)
}

/// Columns → rows: the inverse of [`columns_from_rows`], for the edges
/// that hand rows back. All columns have the first one's length.
pub fn rows_from_columns(cols: &[ValueColumn]) -> Vec<Vec<Value>> {
    let all: Vec<usize> = (0..cols.len()).collect();
    project_rows(cols, &all, |_| true)
}

/// The `SELECT`-shaped form of [`rows_from_columns`]: only the rows `keep`
/// accepts (by index) are built, and of each only the cells of the
/// `projection` columns, in that order — repeats allowed.
pub fn project_rows(
    cols: &[ValueColumn],
    projection: &[usize],
    mut keep: impl FnMut(usize) -> bool,
) -> Vec<Vec<Value>> {
    let nrows = cols.first().map_or(0, ValueColumn::len);
    (0..nrows)
        .filter(|row| keep(*row))
        .map(|row| projection.iter().map(|c| cols[*c].get(row)).collect())
        .collect()
}

fn hash_ints<T, F: Fn(&T) -> i64>(h: &mut WordFnv, tag: &[u8], v: &[T], validity: &Validity, f: F) {
    h.write(tag);
    for (i, x) in v.iter().enumerate() {
        let n = if validity.get(i) { f(x) } else { 0 };
        h.word(n as u64);
    }
}

fn hash_var(h: &mut WordFnv, tag: &[u8], offsets: &[usize], bytes: &[u8]) {
    h.write(tag);
    for w in offsets {
        h.word(*w as u64);
    }
    h.write(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, Strategy};

    fn int_col(vals: &[Option<i32>]) -> ValueColumn {
        let cells: Vec<Value> = vals
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect();
        ValueColumn::from_values(&DataType::Int, &cells)
    }

    #[test]
    fn round_trips_every_flat_type() {
        let cases: Vec<(DataType, Vec<Value>)> = vec![
            (DataType::Boolean, vec![Value::Boolean(true), Value::Null]),
            (DataType::Byte, vec![Value::Byte(-1), Value::Null]),
            (DataType::Short, vec![Value::Short(300)]),
            (DataType::Int, vec![Value::Int(i32::MIN), Value::Null]),
            (DataType::Long, vec![Value::Long(i64::MAX)]),
            (
                DataType::Float,
                vec![Value::Float(f32::NAN), Value::Float(-0.0)],
            ),
            (DataType::Double, vec![Value::Double(1.5), Value::Null]),
            (
                DataType::Decimal(10, 2),
                vec![
                    Value::Decimal(Decimal::new(12345, 10, 2).unwrap()),
                    Value::Null,
                ],
            ),
            (
                DataType::String,
                vec![
                    Value::Str("héllo".into()),
                    Value::Str(String::new()),
                    Value::Null,
                ],
            ),
            (
                DataType::Binary,
                vec![Value::Binary(vec![0, 255]), Value::Null],
            ),
            (DataType::Date, vec![Value::Date(-719162)]),
            (DataType::Timestamp, vec![Value::Timestamp(-1), Value::Null]),
            (
                DataType::Interval,
                vec![
                    Value::Interval {
                        months: 1,
                        micros: -5,
                    },
                    Value::Null,
                ],
            ),
        ];
        for (ty, cells) in cases {
            let col = ValueColumn::from_values(&ty, &cells);
            let back = col.to_values();
            assert_eq!(back.len(), cells.len(), "{ty:?}");
            for (a, b) in cells.iter().zip(&back) {
                assert!(a.canonical_eq(b), "{ty:?}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn mismatched_cells_demote_to_mixed() {
        let cells = vec![Value::Int(1), Value::Str("two".into()), Value::Null];
        let col = ValueColumn::from_values(&DataType::Int, &cells);
        assert!(matches!(col.values(), ColumnValues::Mixed(_)));
        assert_eq!(col.to_values(), cells);
    }

    #[test]
    fn canonical_eq_fast_path_and_fallback_agree() {
        let a = int_col(&[Some(1), None, Some(3)]);
        let b = int_col(&[Some(1), None, Some(3)]);
        let c = int_col(&[Some(1), Some(0), Some(3)]); // None vs Some(0): raw buffers equal, validity differs
        assert!(a.canonical_eq(&b));
        assert!(!a.canonical_eq(&c));

        // Floats: raw-unequal but canonically equal (NaN payloads, -0.0).
        let f1 = ValueColumn::from_values(
            &DataType::Double,
            &[
                Value::Double(f64::from_bits(0x7ff8_0000_0000_0001)),
                Value::Double(-0.0),
            ],
        );
        let f2 = ValueColumn::from_values(
            &DataType::Double,
            &[Value::Double(f64::NAN), Value::Double(0.0)],
        );
        assert!(f1.canonical_eq(&f2));
        assert_eq!(f1.fingerprint(), f2.fingerprint());
    }

    #[test]
    fn canonically_equal_columns_may_fingerprint_apart() {
        // An INT lane and a LONG column demoted to `Mixed` by the same INT
        // cell: equal cell by cell, hashed from different representations.
        let typed = int_col(&[Some(1)]);
        let mixed = ValueColumn::from_values(&DataType::Long, &[Value::Int(1)]);
        assert!(matches!(mixed.values(), ColumnValues::Mixed(_)));
        assert_eq!(typed.compare(&mixed), ColumnMatch::Canonical);
        assert!(typed.canonical_eq(&mixed));
        assert_eq!(typed.fingerprint(), 0xc05f_d04f_66f5_e581);
        assert_eq!(mixed.fingerprint(), 0xc6eb_e3b8_f2c1_c67a);
    }

    #[test]
    fn compare_tells_identical_from_canonical_from_unequal() {
        let a = int_col(&[Some(1), None, Some(3)]);
        assert_eq!(a.compare(&a.clone()), ColumnMatch::Identical);
        assert_eq!(
            a.compare(&int_col(&[Some(1), Some(0), Some(3)])),
            ColumnMatch::Unequal
        );
        assert_eq!(a.compare(&int_col(&[Some(1), None])), ColumnMatch::Unequal);
        let zero = |z: f64| ValueColumn::from_values(&DataType::Double, &[Value::Double(z)]);
        assert_eq!(zero(-0.0).compare(&zero(0.0)), ColumnMatch::Canonical);
    }

    #[test]
    fn decimal_rescalings_compare_and_fingerprint_equal() {
        let a = ValueColumn::from_values(
            &DataType::Decimal(10, 2),
            &[Value::Decimal(Decimal::new(120, 10, 2).unwrap())],
        );
        let b = ValueColumn::from_values(
            &DataType::Decimal(10, 1),
            &[Value::Decimal(Decimal::new(12, 10, 1).unwrap())],
        );
        assert!(a.canonical_eq(&b));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprints_separate_unequal_columns() {
        let a = int_col(&[Some(1), Some(2)]);
        let b = int_col(&[Some(1), Some(3)]);
        let c = int_col(&[Some(1), None]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), int_col(&[Some(1), Some(2)]).fingerprint());
    }

    #[test]
    fn str_columns_distinguish_cell_boundaries() {
        let a = ValueColumn::from_values(
            &DataType::String,
            &[Value::Str("ab".into()), Value::Str("c".into())],
        );
        let b = ValueColumn::from_values(
            &DataType::String,
            &[Value::Str("a".into()), Value::Str("bc".into())],
        );
        assert!(!a.canonical_eq(&b));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn project_rows_filters_reorders_and_repeats() {
        let cols = [
            int_col(&[Some(1), None, Some(3)]),
            int_col(&[Some(10), Some(20), Some(30)]),
        ];
        assert_eq!(
            project_rows(&cols, &[1, 0, 1], |row| row != 1),
            [[10, 1, 10], [30, 3, 30]].map(|r| r.map(Value::Int).to_vec())
        );
    }

    proptest::proptest! {
        /// Columns are LONG, STRING and ARRAY<LONG> in turn and cells are
        /// drawn blind to them: NULLs, typed and nested cells, and the
        /// type-skewed ones that demote their column to `Mixed`. Fewer
        /// cells than columns is the zero-row table; a leftover partial
        /// row is the ragged one.
        #[test]
        fn rows_to_columns_and_back_is_the_identity(
            ncols in 1usize..5,
            cells in proptest::collection::vec(
                proptest::prop_oneof![
                    any::<bool>().prop_map(|_| Value::Null),
                    any::<i64>().prop_map(Value::Long),
                    "[a-z]{0,6}".prop_map(Value::Str),
                    any::<i64>().prop_map(|n| Value::Array(vec![Value::Long(n), Value::Null])),
                ],
                0..48,
            ),
        ) {
            let palette = [
                DataType::Long,
                DataType::String,
                DataType::Array(Box::new(DataType::Long)),
            ];
            let types: Vec<DataType> = (0..ncols).map(|c| palette[c % 3].clone()).collect();
            let mut rows: Vec<Vec<Value>> = cells.chunks(ncols).map(<[Value]>::to_vec).collect();
            if let Some(got) = rows.last().map(Vec::len).filter(|len| *len < ncols) {
                let expected = ncols;
                assert_eq!(columns_from_rows(&types, &rows), Err(ArityMismatch { expected, got }));
                rows.pop();
            }
            let cols = columns_from_rows(&types, &rows).unwrap();
            assert_eq!(rows_from_columns(&cols), rows);
        }
    }
}
