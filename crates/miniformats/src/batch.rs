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
//! report stay stable. The encoder reads borrowed lanes ([`ColumnRef`]),
//! so a writer that already holds typed buffers encodes from them without
//! building a batch. [`decode`] parses straight into pre-sized typed
//! buffers; a file that does anything but fill them — a cell whose tag
//! does not match its declared column type, a nested column, any corrupt
//! byte — is decoded again cell by cell through the row decoder's reader,
//! so values, demotions and errors are the row path's.
//!
//! Nested types (list/map/struct) keep per-cell [`PhysicalValue`] storage
//! inside [`ColumnData::Nested`]; only the flat types get monomorphized
//! fast paths. That is where all the studied hot loops live.

use crate::physical::{value_matches, FileSchema, PhysicalType, PhysicalValue};
use crate::wire::{self, FormatRules, Window, Writer};
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

    /// The raw words, moved out (the inverse of [`Bitmap::from_raw`]).
    pub fn into_words(self) -> Vec<u64> {
        self.words
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

    /// `cells` cells for [`VarBuffer::set_within`] (or, for an empty one,
    /// an end offset written directly) to fill in row order.
    fn zeroed(cells: usize) -> VarBuffer {
        VarBuffer {
            offsets: vec![0; cells + 1],
            bytes: Vec::new(),
        }
    }

    /// Appends `src[start..start + len]` as cell `i` of a
    /// [`VarBuffer::zeroed`] buffer. Short cells copy through a
    /// constant-size window when one fits in `src`: a fixed-length copy
    /// compiles to two register moves, while variable short lengths bounce
    /// through the memcpy dispatcher and mispredict on every size change.
    fn set_within(&mut self, i: usize, src: &[u8], start: usize, len: usize) {
        if len <= 32 && start + 32 <= src.len() {
            let keep = self.bytes.len() + len;
            self.bytes.extend_from_slice(&src[start..start + 32]);
            self.bytes.truncate(keep);
        } else {
            self.bytes.extend_from_slice(&src[start..start + len]);
        }
        self.offsets[i + 1] = self.bytes.len();
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

    /// The offsets (one per cell plus a trailing end offset) and the
    /// concatenated payload bytes, moved out.
    pub fn into_raw(self) -> (Vec<usize>, Vec<u8>) {
        (self.offsets, self.bytes)
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

    /// The column's lanes, borrowed for [`encode_columns`].
    pub fn view(&self) -> ColumnRef<'_> {
        let data = match &self.data {
            ColumnData::Bool(v) => LaneRef::Bool(v),
            ColumnData::Int8(v) => LaneRef::Int8(v),
            ColumnData::Int16(v) => LaneRef::Int16(v),
            ColumnData::Int32(v) => LaneRef::Int32(v),
            ColumnData::Int64(v) => LaneRef::Int64(v),
            ColumnData::Float32(v) => LaneRef::Float32(v),
            ColumnData::Float64(v) => LaneRef::Float64(v),
            ColumnData::Decimal { unscaled, scale } => LaneRef::Decimal { unscaled, scale },
            ColumnData::Utf8(b) => LaneRef::Utf8 {
                offsets: &b.offsets,
                bytes: &b.bytes,
            },
            ColumnData::Bytes(b) => LaneRef::Bytes {
                offsets: &b.offsets,
                bytes: &b.bytes,
            },
            ColumnData::Nested(v) => LaneRef::Nested(v),
        };
        ColumnRef::new(self.validity.words(), self.len(), data)
    }
}

/// The typed buffer of one column, borrowed: [`ColumnData`] over slices.
/// Offsets have one entry per cell plus a trailing end offset.
#[derive(Debug, Clone, Copy)]
pub enum LaneRef<'a> {
    /// Booleans.
    Bool(&'a [bool]),
    /// 8-bit integers.
    Int8(&'a [i8]),
    /// 16-bit integers.
    Int16(&'a [i16]),
    /// 32-bit integers.
    Int32(&'a [i32]),
    /// 64-bit integers.
    Int64(&'a [i64]),
    /// 32-bit floats.
    Float32(&'a [f32]),
    /// 64-bit floats.
    Float64(&'a [f64]),
    /// Decimals: parallel unscaled/scale lanes.
    Decimal {
        /// Unscaled integers.
        unscaled: &'a [i128],
        /// Per-value scales.
        scale: &'a [u8],
    },
    /// UTF-8 strings.
    Utf8 {
        /// Cell boundaries.
        offsets: &'a [usize],
        /// Concatenated payloads.
        bytes: &'a [u8],
    },
    /// Raw byte arrays.
    Bytes {
        /// Cell boundaries.
        offsets: &'a [usize],
        /// Concatenated payloads.
        bytes: &'a [u8],
    },
    /// Nested (list/map/struct) cells, row-wise.
    Nested(&'a [PhysicalValue]),
}

impl LaneRef<'_> {
    fn len(&self) -> usize {
        match self {
            LaneRef::Bool(v) => v.len(),
            LaneRef::Int8(v) => v.len(),
            LaneRef::Int16(v) => v.len(),
            LaneRef::Int32(v) => v.len(),
            LaneRef::Int64(v) => v.len(),
            LaneRef::Float32(v) => v.len(),
            LaneRef::Float64(v) => v.len(),
            LaneRef::Decimal { unscaled, scale } => unscaled.len().min(scale.len()),
            LaneRef::Utf8 { offsets, .. } | LaneRef::Bytes { offsets, .. } => {
                offsets.len().saturating_sub(1)
            }
            LaneRef::Nested(v) => v.len(),
        }
    }
}

/// One column borrowed for encoding: validity words plus typed lanes —
/// what a [`Column`] owns, or what a writer holding the same buffers in
/// another shape lends without copying them into one.
#[derive(Debug, Clone, Copy)]
pub struct ColumnRef<'a> {
    validity: &'a [u64],
    len: usize,
    data: LaneRef<'a>,
}

impl<'a> ColumnRef<'a> {
    /// A column of `len` slots: bit `i` of `validity` set ⇒ slot `i` of
    /// `data` holds a value. Lanes shorter than `len` (or too few
    /// validity words) are a caller bug and panic here, not mid-file.
    pub fn new(validity: &'a [u64], len: usize, data: LaneRef<'a>) -> ColumnRef<'a> {
        assert!(validity.len() >= len.div_ceil(64) && data.len() >= len);
        ColumnRef {
            validity,
            len,
            data,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most bytes one cell of this column advances a [`Window`] by
    /// without [`Window::append`] (a NULL advances one).
    fn cell_bound(&self) -> usize {
        match self.data {
            LaneRef::Bool(_) => 2,
            LaneRef::Int8(_) => 3,
            LaneRef::Int16(_) => 4,
            LaneRef::Int32(_) => 6,
            LaneRef::Int64(_) => 11,
            LaneRef::Float32(_) => 5,
            LaneRef::Float64(_) => 9,
            // Tag, an `i64`'s varint, scale.
            LaneRef::Decimal { .. } => 12,
            // Tag, a one-byte length, a 32-byte window.
            LaneRef::Utf8 { .. } | LaneRef::Bytes { .. } => 34,
            LaneRef::Nested(_) => 1,
        }
    }

    /// Writes slot `i` in the wire cell encoding (tag byte + payload).
    /// Always inlined: as a call per cell the window's cursor travels
    /// through memory.
    #[inline(always)]
    fn write_cell(&self, w: &mut Window, i: usize) {
        if self.validity[i / 64] & (1u64 << (i % 64)) == 0 {
            w.put(0, 1);
            return;
        }
        // Each flat arm assembles tag + payload in a word and stores it
        // whole: this loop is the write hot path for the whole data plane.
        match self.data {
            LaneRef::Bool(v) => w.put(1 | u128::from(v[i]) << 8, 2),
            LaneRef::Int8(v) => w.tagged_varint64(2, v[i].into()),
            LaneRef::Int16(v) => w.tagged_varint64(3, v[i].into()),
            LaneRef::Int32(v) => w.tagged_varint64(4, v[i].into()),
            LaneRef::Int64(v) => w.tagged_varint64(5, v[i]),
            LaneRef::Float32(v) => w.put(6 | u128::from(v[i].to_bits()) << 8, 5),
            LaneRef::Float64(v) => w.put(7 | u128::from(v[i].to_bits()) << 8, 9),
            LaneRef::Decimal { unscaled, scale } => match i64::try_from(unscaled[i]) {
                Ok(narrow) => {
                    let (word, len) = wire::tagged_varint64_word(8, narrow);
                    w.put(word | u128::from(scale[i]) << (8 * len), len + 1);
                }
                Err(_) => w.append(|w| {
                    w.tagged_decimal(unscaled[i]);
                    w.u8(scale[i]);
                }),
            },
            LaneRef::Utf8 { offsets, bytes } => write_var_cell(w, 9, offsets, bytes, i),
            LaneRef::Bytes { offsets, bytes } => write_var_cell(w, 10, offsets, bytes, i),
            LaneRef::Nested(v) => w.append(|w| wire::write_value(w, &v[i])),
        }
    }
}

/// A column on its way to [`encode_columns`]: lanes lent as they are, or
/// a column built because the file stores them differently.
#[derive(Debug)]
pub enum ColumnCow<'a> {
    /// The writer's own buffers.
    Borrowed(ColumnRef<'a>),
    /// A converted column.
    Owned(Column),
}

impl ColumnCow<'_> {
    /// The lanes to encode.
    pub fn view(&self) -> ColumnRef<'_> {
        match self {
            ColumnCow::Borrowed(r) => *r,
            ColumnCow::Owned(c) => c.view(),
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

    /// The column reader `k` of `readers` asks for, each reader naming the
    /// column it reads (or none). A column moves out to its last reader —
    /// an empty one stays behind — and is cloned for any earlier one, so
    /// the usual schema, every column read once, copies nothing.
    pub fn take_column(&mut self, readers: &[Option<usize>], k: usize) -> Option<Column> {
        let i = readers[k]?;
        Some(if readers[k + 1..].contains(&Some(i)) {
            self.columns[i].clone()
        } else {
            std::mem::replace(&mut self.columns[i], Column::for_type(&PhysicalType::Bool))
        })
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
    encode_views(rules, &batch.schema, &batch.columns, Column::view)
}

/// [`encode`] over lent or built columns: one per schema entry, all of
/// the first one's length.
pub fn encode_columns(
    rules: &FormatRules,
    schema: &FileSchema,
    columns: &[ColumnCow<'_>],
) -> Result<Vec<u8>, FormatError> {
    encode_views(rules, schema, columns, ColumnCow::view)
}

/// Borrows the lanes of whatever holds them for [`encode_lanes`] — on the
/// stack for the one-column file every campaign but `bulk` writes.
fn encode_views<C>(
    rules: &FormatRules,
    schema: &FileSchema,
    columns: &[C],
    view: impl for<'a> Fn(&'a C) -> ColumnRef<'a>,
) -> Result<Vec<u8>, FormatError> {
    match columns {
        [one] => encode_lanes(rules, schema, &[view(one)]),
        many => encode_lanes(rules, schema, &many.iter().map(view).collect::<Vec<_>>()),
    }
}

/// The one encoder.
fn encode_lanes(
    rules: &FormatRules,
    schema: &FileSchema,
    columns: &[ColumnRef<'_>],
) -> Result<Vec<u8>, FormatError> {
    rules.check_schema(schema)?;
    if columns.len() != schema.columns.len() {
        return Err(FormatError::Corrupt(format!(
            "batch has {} columns for {} schema entries",
            columns.len(),
            schema.columns.len()
        )));
    }
    let n = columns.first().map_or(0, ColumnRef::len);
    for (col, data) in schema.columns.iter().zip(columns) {
        if data.len() != n {
            return Err(FormatError::Corrupt(format!(
                "column {} has {} rows, batch has {n}",
                col.name,
                data.len()
            )));
        }
        // Typed buffers prove conformance by construction; nested cells
        // carry arbitrary values and are validated like the row encoder.
        if let LaneRef::Nested(cells) = data.data {
            for cell in &cells[..n] {
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
    // Every store of a row lands within `room` of where the row starts:
    // a cell starts at most the bounds of the cells before it in, and
    // its stores reach the larger of its own bound and a sixteen-byte
    // word (a NULL is stored as a word too).
    let (mut room, mut cells) = (0, 0);
    for col in columns {
        room = room.max(cells + col.cell_bound().max(16));
        cells += col.cell_bound();
    }
    // Size the output once: a fixed-width cell at its bound, a
    // variable-width one at tag, length and payload, and the last row's
    // room. This is a hint, not a bound — a wide decimal, a nested cell,
    // a length past three bytes or a long header still grows the buffer.
    let mut cap = 64 + room;
    for col in columns {
        cap += match col.data {
            LaneRef::Utf8 { bytes, .. } | LaneRef::Bytes { bytes, .. } => n * 4 + bytes.len(),
            _ => n * col.cell_bound(),
        };
    }
    let mut w = Writer {
        buf: Vec::with_capacity(cap),
    };
    wire::write_header(&mut w, rules, schema);
    w.len(n);
    let mut w = Window::new(w, room);
    for i in 0..n {
        w.row();
        for col in columns {
            col.write_cell(&mut w, i);
        }
    }
    let mut w = w.finish();
    w.buf.extend_from_slice(rules.magic);
    Ok(w.buf)
}

/// Writes tag byte + length prefix + payload for cell `i` of a var-width
/// lane. A payload of up to 32 bytes copies through a constant-size
/// window when one fits in `bytes` (see [`VarBuffer::set_within`] for
/// why), and exactly when it ends the lane; a longer one is appended.
#[inline(always)]
fn write_var_cell(w: &mut Window, tag: u8, offsets: &[usize], bytes: &[u8], i: usize) {
    let (start, end) = (offsets[i], offsets[i + 1]);
    let payload = &bytes[start..end];
    if payload.len() > 32 {
        return w.append(|w| {
            w.u8(tag);
            w.bytes(payload);
        });
    }
    w.tagged_varint64(tag, payload.len() as i64);
    match bytes[start..].first_chunk() {
        Some(window) => w.store::<32>(window, payload.len()),
        None => w.put_slice(payload),
    }
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
    let body = r.pos;
    if nrows <= fits {
        if let Some(columns) = decode_typed(&mut r, &schema, nrows) {
            return Ok(RecordBatch { schema, columns });
        }
        r.pos = body;
    }
    decode_careful(r, schema, nrows, nrows.min(fits))
}

/// A flat physical type's column of `rows` NULL slots (placeholders
/// zeroed, no validity bit set); `None` for nested types.
fn typed_column(ty: &PhysicalType, rows: usize) -> Option<Column> {
    let data = match ty {
        PhysicalType::Bool => ColumnData::Bool(vec![false; rows]),
        PhysicalType::Int8 => ColumnData::Int8(vec![0; rows]),
        PhysicalType::Int16 => ColumnData::Int16(vec![0; rows]),
        PhysicalType::Int32 => ColumnData::Int32(vec![0; rows]),
        PhysicalType::Int64 => ColumnData::Int64(vec![0; rows]),
        PhysicalType::Float32 => ColumnData::Float32(vec![0.0; rows]),
        PhysicalType::Float64 => ColumnData::Float64(vec![0.0; rows]),
        PhysicalType::Decimal => ColumnData::Decimal {
            unscaled: vec![0; rows],
            scale: vec![0; rows],
        },
        PhysicalType::Utf8 => ColumnData::Utf8(VarBuffer::zeroed(rows)),
        PhysicalType::Bytes => ColumnData::Bytes(VarBuffer::zeroed(rows)),
        PhysicalType::List(_) | PhysicalType::Map(_, _) | PhysicalType::Struct(_) => return None,
    };
    Some(Column {
        validity: Bitmap::from_raw(vec![0; rows.div_ceil(64)], rows),
        data,
    })
}

/// The fast path of [`decode`]: every column flat, every cell NULL or of
/// its column's tag, every payload well-formed. Lanes and validity words
/// are sized once and set by row index, and cells are read by the
/// reader's `Option`-typed fast primitives, so no error is built for a
/// file that has none. `None` says nothing about the file except that
/// [`decode_careful`] must read it.
fn decode_typed(r: &mut wire::Reader, schema: &FileSchema, nrows: usize) -> Option<Vec<Column>> {
    let mut columns: Vec<Column> = schema
        .columns
        .iter()
        .map(|c| typed_column(&c.ty, nrows))
        .collect::<Option<_>>()?;
    let file = r.data;
    for row in 0..nrows {
        for col in &mut columns {
            // Each lane takes its own tag and NULL; any other tag ends
            // the fast path.
            match (r.fast_u8()?, &mut col.data) {
                (0, ColumnData::Utf8(buf) | ColumnData::Bytes(buf)) => {
                    buf.offsets[row + 1] = buf.bytes.len();
                    continue;
                }
                (0, _) => continue,
                (1, ColumnData::Bool(v)) => v[row] = r.fast_u8()? != 0,
                (2, ColumnData::Int8(v)) => v[row] = r.fast_int()?,
                (3, ColumnData::Int16(v)) => v[row] = r.fast_int()?,
                (4, ColumnData::Int32(v)) => v[row] = r.fast_int()?,
                (5, ColumnData::Int64(v)) => v[row] = r.fast_int()?,
                (6, ColumnData::Float32(v)) => {
                    v[row] = f32::from_bits(u32::from_le_bytes(r.fast_array()?));
                }
                (7, ColumnData::Float64(v)) => {
                    v[row] = f64::from_bits(u64::from_le_bytes(r.fast_array()?));
                }
                (8, ColumnData::Decimal { unscaled, scale }) => {
                    unscaled[row] = r.fast_decimal()?;
                    scale[row] = r.fast_u8()?;
                }
                (9, ColumnData::Utf8(buf)) => {
                    let len = r.fast_str()?.len();
                    buf.set_within(row, file, r.pos - len, len);
                }
                (10, ColumnData::Bytes(buf)) => {
                    let len = r.fast_run()?.len();
                    buf.set_within(row, file, r.pos - len, len);
                }
                _ => return None,
            }
            col.validity.words[row / 64] |= 1u64 << (row % 64);
        }
    }
    Some(columns)
}

/// The reference path of [`decode`]: the row decoder's own cell reader,
/// cell by cell in file order, so the first error is the one
/// [`crate::wire::decode`] raises; a readable cell that does not inhabit
/// its column demotes the column to row-wise nested storage.
fn decode_careful(
    mut r: wire::Reader,
    schema: FileSchema,
    nrows: usize,
    reserve: usize,
) -> Result<RecordBatch, FormatError> {
    let ncols = schema.columns.len();
    let mut batch = RecordBatch::with_capacity(schema, reserve);
    for _ in 0..nrows {
        for col in &mut batch.columns[..ncols] {
            let value = wire::read_value(&mut r, 0)?;
            if !col.push_checked(&value) {
                let mut demoted =
                    std::mem::replace(col, Column::for_type(&PhysicalType::Bool)).into_nested();
                let pushed = demoted.push_checked(&value);
                debug_assert!(pushed, "nested columns accept any value");
                *col = demoted;
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
