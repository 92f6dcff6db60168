//! Columnar record batches over the physical data model.
//!
//! A [`RecordBatch`] holds one contiguous typed buffer per column — plain
//! `Vec`s for fixed-width types, offset/byte buffers for strings and
//! binaries, and a validity [`Bitmap`] per column — instead of the row-major
//! `Vec<Vec<PhysicalValue>>` representation. Appending and scanning a
//! primitive column touches no per-cell heap allocation and no
//! `PhysicalValue` enum construction, which is where the row-oriented data
//! plane spent most of its time.
//!
//! The wire layout is **unchanged**: [`encode`] emits bytes identical to
//! [`crate::wire::encode`] on the equivalent rows (the header helpers are
//! shared, and cells are interleaved row-major exactly as before), so
//! fault-injection offsets, corruption behavior, and every downstream
//! report stay stable. [`decode`] parses straight into typed buffers and
//! falls back to the row decoder for files whose value tags do not match
//! their declared column types (hand-crafted or corrupted files), so its
//! error behavior matches the row path as well.
//!
//! Nested types (list/map/struct) keep per-cell [`PhysicalValue`] storage
//! inside [`ColumnData::Nested`]; only the flat types get monomorphized
//! fast paths. That is where all the studied hot loops live.

use crate::physical::{value_matches, FileSchema, PhysicalType, PhysicalValue};
use crate::wire::{self, FormatRules, Writer};
use crate::FormatError;

/// A validity bitmap: bit set ⇒ the slot holds a value, clear ⇒ NULL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// An empty bitmap with room for `n` slots.
    pub fn with_capacity(n: usize) -> Bitmap {
        Bitmap {
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
            *self.words.last_mut().expect("just ensured") |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// Whether slot `i` is valid (in-range slots only).
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of valid (non-NULL) slots.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The raw words, for word-at-a-time (XOR/compare) scans.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from raw words (bits past `len` must be zero).
    /// Lets engine layers move validity across crate boundaries without a
    /// per-bit loop.
    pub fn from_raw(words: Vec<u64>, len: usize) -> Bitmap {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        Bitmap { words, len }
    }

    /// Whether two bitmaps of equal length mark the same slots valid.
    /// Word-wise comparison; trailing unused bits are always zero because
    /// [`Bitmap::push`] never sets them.
    pub fn same_validity(&self, other: &Bitmap) -> bool {
        self.len == other.len && self.words == other.words
    }
}

/// An offsets + bytes buffer for variable-width cells (UTF-8 or raw bytes).
/// `offsets` has one entry per cell plus a trailing end offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarBuffer {
    offsets: Vec<usize>,
    bytes: Vec<u8>,
}

impl Default for VarBuffer {
    fn default() -> VarBuffer {
        VarBuffer {
            offsets: vec![0],
            bytes: Vec::new(),
        }
    }
}

impl VarBuffer {
    /// An empty buffer.
    pub fn new() -> VarBuffer {
        VarBuffer::default()
    }

    /// An empty buffer sized for `cells` cells totalling ~`byte_cap` bytes.
    pub fn with_capacity(cells: usize, byte_cap: usize) -> VarBuffer {
        let mut offsets = Vec::with_capacity(cells + 1);
        offsets.push(0);
        VarBuffer {
            offsets,
            bytes: Vec::with_capacity(byte_cap),
        }
    }

    /// Appends one cell.
    pub fn push(&mut self, b: &[u8]) {
        self.bytes.extend_from_slice(b);
        self.offsets.push(self.bytes.len());
    }

    /// Appends the cell `src[start..start + len]`. Same bytes as
    /// [`VarBuffer::push`], but short cells copy through a constant-size
    /// window when one fits in `src`: a fixed-length copy compiles to two
    /// register moves, while variable short lengths bounce through the
    /// memcpy dispatcher and mispredict on every size change.
    pub fn push_within(&mut self, src: &[u8], start: usize, len: usize) {
        if len <= 32 && start + 32 <= src.len() {
            let keep = self.bytes.len() + len;
            self.bytes.extend_from_slice(&src[start..start + 32]);
            self.bytes.truncate(keep);
        } else {
            self.bytes.extend_from_slice(&src[start..start + len]);
        }
        self.offsets.push(self.bytes.len());
    }

    /// The bytes of cell `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the buffer has no cells.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total payload bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Rebuilds a buffer from raw parts (`offsets` must start at 0, be
    /// non-decreasing, and end at `bytes.len()`).
    pub fn from_raw(offsets: Vec<usize>, bytes: Vec<u8>) -> VarBuffer {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last(), Some(&bytes.len()));
        VarBuffer { offsets, bytes }
    }

    /// The raw offsets (one per cell plus a trailing end offset).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated payload bytes.
    pub fn raw_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// The typed buffer of one column. NULL slots hold an arbitrary placeholder
/// in the buffer; the validity bitmap is authoritative.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Booleans.
    Bool(Vec<bool>),
    /// 8-bit integers.
    Int8(Vec<i8>),
    /// 16-bit integers.
    Int16(Vec<i16>),
    /// 32-bit integers.
    Int32(Vec<i32>),
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 32-bit floats.
    Float32(Vec<f32>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Decimals: parallel unscaled/scale buffers (the wire stores a
    /// per-value scale, so it is a column here too).
    Decimal {
        /// Unscaled integers.
        unscaled: Vec<i128>,
        /// Per-value scales.
        scale: Vec<u8>,
    },
    /// UTF-8 strings.
    Utf8(VarBuffer),
    /// Raw byte arrays.
    Bytes(VarBuffer),
    /// Nested (list/map/struct) cells, row-wise. Also the lenient fallback
    /// for files whose cells do not inhabit their declared column type.
    Nested(Vec<PhysicalValue>),
}

impl ColumnData {
    fn for_type(ty: &PhysicalType, cap: usize) -> ColumnData {
        match ty {
            PhysicalType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            PhysicalType::Int8 => ColumnData::Int8(Vec::with_capacity(cap)),
            PhysicalType::Int16 => ColumnData::Int16(Vec::with_capacity(cap)),
            PhysicalType::Int32 => ColumnData::Int32(Vec::with_capacity(cap)),
            PhysicalType::Int64 => ColumnData::Int64(Vec::with_capacity(cap)),
            PhysicalType::Float32 => ColumnData::Float32(Vec::with_capacity(cap)),
            PhysicalType::Float64 => ColumnData::Float64(Vec::with_capacity(cap)),
            PhysicalType::Decimal => ColumnData::Decimal {
                unscaled: Vec::with_capacity(cap),
                scale: Vec::with_capacity(cap),
            },
            PhysicalType::Utf8 => ColumnData::Utf8(VarBuffer::with_capacity(cap, 0)),
            PhysicalType::Bytes => ColumnData::Bytes(VarBuffer::with_capacity(cap, 0)),
            PhysicalType::List(_) | PhysicalType::Map(_, _) | PhysicalType::Struct(_) => {
                ColumnData::Nested(Vec::with_capacity(cap))
            }
        }
    }
}

/// One column of a [`RecordBatch`]: a validity bitmap plus typed data.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Which slots hold values.
    pub validity: Bitmap,
    /// The typed buffer.
    pub data: ColumnData,
}

impl Column {
    /// An empty column whose buffer matches the physical type.
    pub fn for_type(ty: &PhysicalType) -> Column {
        Column::with_capacity(ty, 0)
    }

    /// An empty column with row capacity pre-reserved.
    pub fn with_capacity(ty: &PhysicalType, cap: usize) -> Column {
        Column {
            validity: Bitmap::with_capacity(cap),
            data: ColumnData::for_type(ty, cap),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// Whether the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Appends a NULL slot (placeholder value in the buffer).
    pub fn push_null(&mut self) {
        self.validity.push(false);
        match &mut self.data {
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Int8(v) => v.push(0),
            ColumnData::Int16(v) => v.push(0),
            ColumnData::Int32(v) => v.push(0),
            ColumnData::Int64(v) => v.push(0),
            ColumnData::Float32(v) => v.push(0.0),
            ColumnData::Float64(v) => v.push(0.0),
            ColumnData::Decimal { unscaled, scale } => {
                unscaled.push(0);
                scale.push(0);
            }
            ColumnData::Utf8(b) => b.push(b""),
            ColumnData::Bytes(b) => b.push(b""),
            ColumnData::Nested(v) => v.push(PhysicalValue::Null),
        }
    }

    /// Appends a value if it inhabits this column's buffer type; returns
    /// `false` (without appending) on a variant mismatch. NULL always fits.
    pub fn push_checked(&mut self, v: &PhysicalValue) -> bool {
        if matches!(v, PhysicalValue::Null) {
            self.push_null();
            return true;
        }
        match (&mut self.data, v) {
            (ColumnData::Bool(buf), PhysicalValue::Bool(x)) => buf.push(*x),
            (ColumnData::Int8(buf), PhysicalValue::Int8(x)) => buf.push(*x),
            (ColumnData::Int16(buf), PhysicalValue::Int16(x)) => buf.push(*x),
            (ColumnData::Int32(buf), PhysicalValue::Int32(x)) => buf.push(*x),
            (ColumnData::Int64(buf), PhysicalValue::Int64(x)) => buf.push(*x),
            (ColumnData::Float32(buf), PhysicalValue::Float32(x)) => buf.push(*x),
            (ColumnData::Float64(buf), PhysicalValue::Float64(x)) => buf.push(*x),
            (
                ColumnData::Decimal { unscaled, scale },
                PhysicalValue::Decimal {
                    unscaled: u,
                    scale: s,
                },
            ) => {
                unscaled.push(*u);
                scale.push(*s);
            }
            (ColumnData::Utf8(buf), PhysicalValue::Utf8(s)) => buf.push(s.as_bytes()),
            (ColumnData::Bytes(buf), PhysicalValue::Bytes(b)) => buf.push(b),
            (ColumnData::Nested(buf), v) => buf.push(v.clone()),
            _ => return false,
        }
        self.validity.push(true);
        true
    }

    /// Materializes slot `i` as a [`PhysicalValue`].
    pub fn get(&self, i: usize) -> PhysicalValue {
        if !self.validity.get(i) {
            return PhysicalValue::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => PhysicalValue::Bool(v[i]),
            ColumnData::Int8(v) => PhysicalValue::Int8(v[i]),
            ColumnData::Int16(v) => PhysicalValue::Int16(v[i]),
            ColumnData::Int32(v) => PhysicalValue::Int32(v[i]),
            ColumnData::Int64(v) => PhysicalValue::Int64(v[i]),
            ColumnData::Float32(v) => PhysicalValue::Float32(v[i]),
            ColumnData::Float64(v) => PhysicalValue::Float64(v[i]),
            ColumnData::Decimal { unscaled, scale } => PhysicalValue::Decimal {
                unscaled: unscaled[i],
                scale: scale[i],
            },
            ColumnData::Utf8(b) => PhysicalValue::Utf8(
                std::str::from_utf8(b.get(i))
                    .expect("validated on push")
                    .to_string(),
            ),
            ColumnData::Bytes(b) => PhysicalValue::Bytes(b.get(i).to_vec()),
            ColumnData::Nested(v) => v[i].clone(),
        }
    }

    /// Converts this column's already-pushed cells to the [`ColumnData::Nested`]
    /// representation — the lenient-decode escape hatch.
    fn into_nested(self) -> Column {
        let mut cells = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            cells.push(self.get(i));
        }
        let mut validity = Bitmap::with_capacity(cells.len());
        for c in &cells {
            validity.push(!matches!(c, PhysicalValue::Null));
        }
        Column {
            validity,
            data: ColumnData::Nested(cells),
        }
    }

    /// Writes slot `i` in the wire cell encoding (tag byte + payload).
    #[inline]
    fn write_cell(&self, w: &mut Writer, i: usize) {
        if !self.validity.get(i) {
            w.u8(0);
            return;
        }
        // Each flat arm appends tag + payload with one buffer grow check
        // (stack-assembled), not one per byte — this loop is the write
        // hot path for the whole data plane.
        match &self.data {
            ColumnData::Bool(v) => {
                w.buf.extend_from_slice(&[1, v[i] as u8]);
            }
            ColumnData::Int8(v) => w.tagged_varint64(2, v[i] as i64),
            ColumnData::Int16(v) => w.tagged_varint64(3, v[i] as i64),
            ColumnData::Int32(v) => w.tagged_varint64(4, v[i] as i64),
            ColumnData::Int64(v) => w.tagged_varint64(5, v[i]),
            ColumnData::Float32(v) => {
                let bits = v[i].to_bits().to_le_bytes();
                let mut tmp = [6u8; 5];
                tmp[1..].copy_from_slice(&bits);
                w.buf.extend_from_slice(&tmp);
            }
            ColumnData::Float64(v) => {
                let bits = v[i].to_bits().to_le_bytes();
                let mut tmp = [7u8; 9];
                tmp[1..].copy_from_slice(&bits);
                w.buf.extend_from_slice(&tmp);
            }
            ColumnData::Decimal { unscaled, scale } => {
                let u = unscaled[i];
                if let Ok(narrow) = i64::try_from(u) {
                    w.tagged_varint64(8, narrow);
                } else {
                    w.u8(8);
                    w.varint(u);
                }
                w.u8(scale[i]);
            }
            ColumnData::Utf8(b) => write_var_cell(w, 9, b, i),
            ColumnData::Bytes(b) => write_var_cell(w, 10, b, i),
            ColumnData::Nested(v) => wire::write_value(w, &v[i]),
        }
    }
}

/// A columnar batch: a file schema plus one [`Column`] per schema column,
/// all of equal length.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    /// The file schema the columns inhabit.
    pub schema: FileSchema,
    /// One column per schema entry.
    pub columns: Vec<Column>,
}

impl RecordBatch {
    /// An empty batch over a schema.
    pub fn new(schema: FileSchema) -> RecordBatch {
        let columns = schema
            .columns
            .iter()
            .map(|c| Column::for_type(&c.ty))
            .collect();
        RecordBatch { schema, columns }
    }

    /// An empty batch with row capacity pre-reserved per column.
    pub fn with_capacity(schema: FileSchema, rows: usize) -> RecordBatch {
        let columns = schema
            .columns
            .iter()
            .map(|c| Column::with_capacity(&c.ty, rows))
            .collect();
        RecordBatch { schema, columns }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds a batch from row-major values, with exactly the validation
    /// (and error values) of [`crate::wire::encode`]: per-row arity, then
    /// per-cell type conformance in column order.
    pub fn from_rows(
        schema: &FileSchema,
        rows: &[Vec<PhysicalValue>],
    ) -> Result<RecordBatch, FormatError> {
        let mut batch = RecordBatch::with_capacity(schema.clone(), rows.len());
        for row in rows {
            batch.push_row(row)?;
        }
        Ok(batch)
    }

    /// Appends one row, validating arity and per-cell types like
    /// [`crate::wire::encode`].
    pub fn push_row(&mut self, row: &[PhysicalValue]) -> Result<(), FormatError> {
        if row.len() != self.schema.columns.len() {
            return Err(FormatError::Corrupt(format!(
                "row has {} values for {} columns",
                row.len(),
                self.schema.columns.len()
            )));
        }
        for ((col, value), data) in self.schema.columns.iter().zip(row).zip(&mut self.columns) {
            // Flat columns: the typed-buffer push *is* the conformance
            // check. Nested columns delegate to the recursive check.
            let ok = match &data.data {
                ColumnData::Nested(_) => {
                    if value_matches(&col.ty, value) {
                        data.push_checked(value)
                    } else {
                        false
                    }
                }
                _ => data.push_checked(value),
            };
            if !ok {
                return Err(FormatError::TypeMismatch {
                    column: col.name.clone(),
                    declared: col.ty.clone(),
                    found: format!("{value:?}"),
                });
            }
        }
        Ok(())
    }

    /// Materializes the batch back into row-major values.
    pub fn to_rows(&self) -> Vec<Vec<PhysicalValue>> {
        let n = self.len();
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            rows.push(self.columns.iter().map(|c| c.get(i)).collect());
        }
        rows
    }
}

/// Encodes a batch under the given format rules, emitting bytes identical
/// to [`crate::wire::encode`] on the equivalent rows.
pub fn encode(rules: &FormatRules, batch: &RecordBatch) -> Result<Vec<u8>, FormatError> {
    for col in &batch.schema.columns {
        rules.check_type(&col.ty, &format!("column {}", col.name))?;
    }
    let n = batch.len();
    for (col, data) in batch.schema.columns.iter().zip(&batch.columns) {
        if data.len() != n {
            return Err(FormatError::Corrupt(format!(
                "column {} has {} rows, batch has {n}",
                col.name,
                data.len()
            )));
        }
        // Typed buffers prove conformance by construction; nested cells
        // carry arbitrary values and are validated like the row encoder.
        if let ColumnData::Nested(cells) = &data.data {
            for cell in cells {
                if !value_matches(&col.ty, cell) {
                    return Err(FormatError::TypeMismatch {
                        column: col.name.clone(),
                        declared: col.ty.clone(),
                        found: format!("{cell:?}"),
                    });
                }
            }
        }
    }
    // Size the output once: tag byte plus a worst-case fixed payload per
    // cell, plus actual payload bytes for the variable-width lanes. This
    // is a hint, not a bound — the writer still grows if it falls short.
    let mut cap = 64;
    for col in &batch.columns {
        cap += match &col.data {
            ColumnData::Bool(_) => n * 2,
            ColumnData::Int8(_) | ColumnData::Int16(_) => n * 4,
            ColumnData::Int32(_) => n * 6,
            ColumnData::Int64(_) => n * 11,
            ColumnData::Float32(_) => n * 5,
            ColumnData::Float64(_) => n * 9,
            ColumnData::Decimal { .. } => n * 12,
            ColumnData::Utf8(b) => n * 4 + b.byte_len(),
            ColumnData::Bytes(b) => n * 4 + b.byte_len(),
            ColumnData::Nested(_) => n * 16,
        };
    }
    let mut w = Writer {
        buf: Vec::with_capacity(cap),
    };
    wire::write_header(&mut w, rules, &batch.schema);
    w.len(n);
    if batch.columns.len() == 1 {
        // Single-column batches (the campaign's shape): one variant
        // dispatch per cell with no per-row column iteration.
        let col = &batch.columns[0];
        for i in 0..n {
            col.write_cell(&mut w, i);
        }
    } else {
        for i in 0..n {
            for col in &batch.columns {
                col.write_cell(&mut w, i);
            }
        }
    }
    w.buf.extend_from_slice(rules.magic);
    Ok(w.buf)
}

/// Appends tag byte + length prefix + payload for cell `i` of a
/// var-width buffer. Byte-identical to tag + length prefix + payload on
/// the cell's slice, but short payloads copy through a constant-size
/// window (see [`VarBuffer::push_within`] for why).
#[inline]
fn write_var_cell(w: &mut Writer, tag: u8, buf: &VarBuffer, i: usize) {
    let (start, end) = (buf.offsets()[i], buf.offsets()[i + 1]);
    let bytes = buf.raw_bytes();
    let len = end - start;
    w.tagged_varint64(tag, len as i64);
    if len <= 32 && start + 32 <= bytes.len() {
        let keep = w.buf.len() + len;
        w.buf.extend_from_slice(&bytes[start..start + 32]);
        w.buf.truncate(keep);
    } else {
        w.buf.extend_from_slice(&bytes[start..end]);
    }
}

/// The wire tag a flat column expects for its non-null cells, or `None`
/// for nested columns (which accept any tag via the generic reader).
fn expected_tag(data: &ColumnData) -> Option<u8> {
    Some(match data {
        ColumnData::Bool(_) => 1,
        ColumnData::Int8(_) => 2,
        ColumnData::Int16(_) => 3,
        ColumnData::Int32(_) => 4,
        ColumnData::Int64(_) => 5,
        ColumnData::Float32(_) => 6,
        ColumnData::Float64(_) => 7,
        ColumnData::Decimal { .. } => 8,
        ColumnData::Utf8(_) => 9,
        ColumnData::Bytes(_) => 10,
        ColumnData::Nested(_) => return None,
    })
}

/// Decodes a file into a columnar batch.
///
/// Cells whose tag matches the declared column type parse straight into
/// the typed buffer. A mismatched (but readable) cell demotes the column
/// to [`ColumnData::Nested`] so decoding stays as lenient as the row
/// decoder — the serde layers, not the container, decide what a
/// type-skewed file means. Corrupt bytes produce the same errors as
/// [`crate::wire::decode`] because both use the same primitive readers.
pub fn decode(rules: &FormatRules, data: &[u8]) -> Result<RecordBatch, FormatError> {
    let mut r = wire::open_reader(rules, data)?;
    let schema = wire::read_header(&mut r)?;
    let ncols = schema.columns.len();
    let nrows = wire::read_row_count(&mut r, ncols)?;
    // A row costs at least one tag byte per column, so the bytes left
    // bound the rows a file can hold: an honest file reserves `nrows`, a
    // hostile count reserves no more than the file is long.
    let fits = (r.data.len() - r.pos) / ncols.max(1);
    let mut batch = RecordBatch::with_capacity(schema, nrows.min(fits));
    for _ in 0..nrows {
        for c in 0..ncols {
            let tag = r.u8()?;
            let col = &mut batch.columns[c];
            if tag == 0 {
                col.push_null();
                continue;
            }
            match (expected_tag(&col.data), &mut col.data) {
                (Some(t), ColumnData::Bool(buf)) if tag == t => {
                    buf.push(r.u8()? != 0);
                    col.validity.push(true);
                }
                (Some(t), ColumnData::Int8(buf)) if tag == t => {
                    let v = r
                        .varint64()?
                        .ok()
                        .and_then(|v| i8::try_from(v).ok())
                        .ok_or_else(|| FormatError::Corrupt("int8 out of range".into()))?;
                    buf.push(v);
                    col.validity.push(true);
                }
                (Some(t), ColumnData::Int16(buf)) if tag == t => {
                    let v = r
                        .varint64()?
                        .ok()
                        .and_then(|v| i16::try_from(v).ok())
                        .ok_or_else(|| FormatError::Corrupt("int16 out of range".into()))?;
                    buf.push(v);
                    col.validity.push(true);
                }
                (Some(t), ColumnData::Int32(buf)) if tag == t => {
                    let v = r
                        .varint64()?
                        .ok()
                        .and_then(|v| i32::try_from(v).ok())
                        .ok_or_else(|| FormatError::Corrupt("int32 out of range".into()))?;
                    buf.push(v);
                    col.validity.push(true);
                }
                (Some(t), ColumnData::Int64(buf)) if tag == t => {
                    let v = r
                        .varint64()?
                        .ok()
                        .ok_or_else(|| FormatError::Corrupt("int64 out of range".into()))?;
                    buf.push(v);
                    col.validity.push(true);
                }
                (Some(t), ColumnData::Float32(buf)) if tag == t => {
                    buf.push(f32::from_bits(u32::from_le_bytes(r.array()?)));
                    col.validity.push(true);
                }
                (Some(t), ColumnData::Float64(buf)) if tag == t => {
                    buf.push(f64::from_bits(u64::from_le_bytes(r.array()?)));
                    col.validity.push(true);
                }
                (Some(t), ColumnData::Utf8(buf)) if tag == t => {
                    let b = r.bytes_ref()?;
                    std::str::from_utf8(b)
                        .map_err(|_| FormatError::Corrupt("invalid UTF-8".into()))?;
                    let len = b.len();
                    buf.push_within(data, r.pos - len, len);
                    col.validity.push(true);
                }
                (Some(t), ColumnData::Bytes(buf)) if tag == t => {
                    let len = r.bytes_ref()?.len();
                    buf.push_within(data, r.pos - len, len);
                    col.validity.push(true);
                }
                (Some(t), ColumnData::Decimal { unscaled, scale }) if tag == t => {
                    unscaled.push(r.varint()?);
                    scale.push(r.u8()?);
                    col.validity.push(true);
                }
                _ => {
                    // Floats, strings, bytes, nested, and tag-mismatched
                    // cells go through the generic reader; a mismatch
                    // demotes the column to row-wise nested storage.
                    let value = wire::read_value_body(&mut r, tag, 0)?;
                    if !col.push_checked(&value) {
                        let mut demoted =
                            std::mem::replace(col, Column::for_type(&PhysicalType::Bool))
                                .into_nested();
                        let pushed = demoted.push_checked(&value);
                        debug_assert!(pushed, "nested columns accept any value");
                        *col = demoted;
                    }
                }
            }
        }
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: FormatRules = FormatRules {
        name: "test",
        magic: b"TST1",
        allows_small_ints: true,
        allows_non_string_map_keys: true,
    };

    fn sample_schema() -> FileSchema {
        let mut s = FileSchema::of(vec![
            ("a", PhysicalType::Int32),
            ("b", PhysicalType::Utf8),
            ("f", PhysicalType::Float64),
            ("d", PhysicalType::Decimal),
            (
                "m",
                PhysicalType::Map(Box::new(PhysicalType::Int32), Box::new(PhysicalType::Utf8)),
            ),
        ]);
        s.columns[0].logical = Some("tinyint".into());
        s.meta.insert("writer".into(), "test".into());
        s
    }

    fn sample_rows() -> Vec<Vec<PhysicalValue>> {
        vec![
            vec![
                PhysicalValue::Int32(5),
                PhysicalValue::Utf8("hi".into()),
                PhysicalValue::Float64(-0.0),
                PhysicalValue::Decimal {
                    unscaled: 1234,
                    scale: 2,
                },
                PhysicalValue::Map(vec![(
                    PhysicalValue::Int32(1),
                    PhysicalValue::Utf8("one".into()),
                )]),
            ],
            vec![
                PhysicalValue::Null,
                PhysicalValue::Null,
                PhysicalValue::Float64(f64::NAN),
                PhysicalValue::Null,
                PhysicalValue::Null,
            ],
        ]
    }

    #[test]
    fn batch_encode_is_byte_identical_to_row_encode() {
        let schema = sample_schema();
        let rows = sample_rows();
        let row_bytes = wire::encode(&RULES, &schema, &rows).unwrap();
        let batch = RecordBatch::from_rows(&schema, &rows).unwrap();
        let batch_bytes = encode(&RULES, &batch).unwrap();
        assert_eq!(row_bytes, batch_bytes);
    }

    #[test]
    fn batch_decode_matches_row_decode() {
        let schema = sample_schema();
        let rows = sample_rows();
        let bytes = wire::encode(&RULES, &schema, &rows).unwrap();
        let batch = decode(&RULES, &bytes).unwrap();
        let (row_schema, row_rows) = wire::decode(&RULES, &bytes).unwrap();
        assert_eq!(batch.schema, row_schema);
        // NaN breaks PartialEq on rows; compare via debug strings.
        assert_eq!(format!("{:?}", batch.to_rows()), format!("{row_rows:?}"));
    }

    #[test]
    fn from_rows_reports_wire_encode_errors() {
        let schema = FileSchema::of(vec![("a", PhysicalType::Int32)]);
        let bad_arity = vec![vec![]];
        assert_eq!(
            RecordBatch::from_rows(&schema, &bad_arity).unwrap_err(),
            wire::encode(&RULES, &schema, &bad_arity).unwrap_err()
        );
        let bad_type = vec![vec![PhysicalValue::Utf8("oops".into())]];
        assert_eq!(
            RecordBatch::from_rows(&schema, &bad_type).unwrap_err(),
            wire::encode(&RULES, &schema, &bad_type).unwrap_err()
        );
    }

    #[test]
    fn decode_demotes_type_skewed_columns_instead_of_failing() {
        // A file whose schema says Int32 but whose cell is Int64 — the row
        // decoder reads it happily (self-describing tags); so must we.
        let mut w = Writer { buf: Vec::new() };
        let schema = FileSchema::of(vec![("a", PhysicalType::Int32)]);
        wire::write_header(&mut w, &RULES, &schema);
        w.len(2);
        wire::write_value(&mut w, &PhysicalValue::Int32(1));
        wire::write_value(&mut w, &PhysicalValue::Int64(1 << 40));
        w.buf.extend_from_slice(RULES.magic);
        let batch = decode(&RULES, &w.buf).unwrap();
        assert_eq!(
            batch.to_rows(),
            vec![
                vec![PhysicalValue::Int32(1)],
                vec![PhysicalValue::Int64(1 << 40)]
            ]
        );
        let (_, rows) = wire::decode(&RULES, &w.buf).unwrap();
        assert_eq!(batch.to_rows(), rows);
    }

    #[test]
    fn decode_rejects_corruption_like_the_row_decoder() {
        let schema = sample_schema();
        let bytes = wire::encode(&RULES, &schema, &sample_rows()).unwrap();
        assert!(matches!(
            decode(&RULES, b"XXXXrest"),
            Err(FormatError::WrongMagic { .. })
        ));
        assert!(decode(&RULES, &bytes[..bytes.len() / 2]).is_err());
        let mut clipped = bytes.clone();
        clipped.pop();
        assert!(decode(&RULES, &clipped).is_err());
    }

    #[test]
    fn bitmap_tracks_validity_wordwise() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0) && !b.get(1) && b.get(129));
        assert_eq!(b.count_valid(), (0..130).filter(|i| i % 3 == 0).count());
        let mut c = Bitmap::new();
        for i in 0..130 {
            c.push(i % 3 == 0);
        }
        assert!(b.same_validity(&c));
        c.push(true);
        assert!(!b.same_validity(&c));
    }
}
