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
//! A file of 32,768 rows or more, on a host with two cores, is encoded and
//! decoded by two threads, one per half of its rows; the second is scoped
//! to the call. The encoder's helper writes the second half of the rows
//! into a buffer of its own, appended to the first: a row's bytes do not
//! depend on where the row sits. The decoder's helper reads from a row
//! start it finds past the byte midpoint — the first byte from which a few
//! hundred rows read through the one row reader — into the same lanes,
//! from a guessed row on, while the calling thread reads from the first
//! row. The helper's rows are taken, and moved down behind the caller's,
//! only when the caller ends exactly on the helper's first byte and the
//! helper read at least the rows left. Both have then read the bytes one
//! thread reads, from the same offsets, so the batch (or the fall to the
//! careful path) is one thread's by construction; otherwise the calling
//! thread goes on alone.
//!
//! Nested types (list/map/struct) keep per-cell [`PhysicalValue`] storage
//! inside [`ColumnData::Nested`]; only the flat types get monomorphized
//! fast paths. That is where all the studied hot loops live.

use crate::physical::{value_matches, FileSchema, PhysicalType, PhysicalValue};
use crate::wire::{self, FormatRules, Reader, Window, Writer};
use crate::FormatError;
use std::ops::Range;
use std::panic;
use std::sync::OnceLock;

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

    /// `cells` cells for the fast decoder to fill in row order (or, for an
    /// empty one, an end offset written directly).
    fn zeroed(cells: usize) -> VarBuffer {
        VarBuffer {
            offsets: vec![0; cells + 1],
            bytes: Vec::new(),
        }
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
    pub(crate) fn push_row(&mut self, row: &[PhysicalValue]) -> Result<(), FormatError> {
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

/// Rows from which a file is encoded and decoded by two threads, one per
/// half of its rows. Starting and joining a scoped thread costs about
/// 30 µs, and a row of the narrowest flat file (one boolean column) about
/// 6 ns each way: at this many rows the helper takes about 90 µs of work
/// off the caller, and the split wins on one-column and nine-column files
/// alike, where at half as many a one-column file reads as fast or
/// faster on one thread (EXPERIMENTS.md, "Two threads per large file").
const SPLIT_ROWS: usize = 32_768;

/// Whether the host runs two threads at once; asked once per process
/// (the answer reads the scheduler's affinity and cgroup limits).
fn two_cores() -> bool {
    static TWO: OnceLock<bool> = OnceLock::new();
    *TWO.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2))
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
        [one] => encode_lanes(rules, schema, &[view(one)], SPLIT_ROWS),
        many => encode_lanes(
            rules,
            schema,
            &many.iter().map(view).collect::<Vec<_>>(),
            SPLIT_ROWS,
        ),
    }
}

/// The one encoder. A file of `split_rows` rows or more, on a host with
/// two cores, has its second half of rows encoded by a scoped helper
/// thread into a buffer of its own, sized here, and appended: a row's
/// bytes do not depend on where the row sits, so the file is the one a
/// single thread writes.
fn encode_lanes(
    rules: &FormatRules,
    schema: &FileSchema,
    columns: &[ColumnRef<'_>],
    split_rows: usize,
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
    let mut w = Writer {
        buf: Vec::with_capacity(64 + room + rows_cap(columns, 0..n)),
    };
    wire::write_header(&mut w, rules, schema);
    w.len(n);
    let mut w = if n >= split_rows && two_cores() {
        let mid = n / 2;
        let tail = Writer {
            buf: Vec::with_capacity(room + rows_cap(columns, mid..n)),
        };
        let (mut w, tail) = std::thread::scope(|s| {
            let tail = s.spawn(|| write_rows(tail, room, columns, mid..n));
            let head = write_rows(w, room, columns, 0..mid);
            (
                head,
                tail.join().unwrap_or_else(|p| panic::resume_unwind(p)),
            )
        });
        w.buf.extend_from_slice(&tail.buf);
        w
    } else {
        write_rows(w, room, columns, 0..n)
    };
    w.buf.extend_from_slice(rules.magic);
    Ok(w.buf)
}

/// The bytes rows `rows` take, sized once: a fixed-width cell at its
/// bound, a variable-width one at tag, length and payload. This is a
/// hint, not a bound — a wide decimal, a nested cell or a length past
/// three bytes still grows the buffer.
fn rows_cap(columns: &[ColumnRef<'_>], rows: Range<usize>) -> usize {
    let n = rows.len();
    columns
        .iter()
        .map(|col| match col.data {
            LaneRef::Utf8 { offsets, .. } | LaneRef::Bytes { offsets, .. } => {
                n * 4 + offsets[rows.end] - offsets[rows.start]
            }
            _ => n * col.cell_bound(),
        })
        .sum()
}

/// Writes rows `rows` of the lanes after what `w` holds, each row's
/// stores within `room`.
fn write_rows(w: Writer, room: usize, columns: &[ColumnRef<'_>], rows: Range<usize>) -> Writer {
    let mut w = Window::new(w, room);
    for i in rows {
        w.row();
        for col in columns {
            col.write_cell(&mut w, i);
        }
    }
    w.finish()
}

/// Writes tag byte + length prefix + payload for cell `i` of a var-width
/// lane. A payload of up to 32 bytes copies through a constant-size
/// window when one fits in `bytes` (see [`push_within`] for
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
    decode_split(rules, data, SPLIT_ROWS)
}

/// [`decode`], reading a file of `split_rows` rows or more on two threads
/// when the host has two cores.
fn decode_split(
    rules: &FormatRules,
    data: &[u8],
    split_rows: usize,
) -> Result<RecordBatch, FormatError> {
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
        let split = nrows >= split_rows && two_cores();
        if let Some(columns) = decode_typed(&mut r, &schema, nrows, split) {
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
fn decode_typed(
    r: &mut Reader,
    schema: &FileSchema,
    nrows: usize,
    split: bool,
) -> Option<Vec<Column>> {
    let halves = split.then(|| Halves::guess(nrows, r.pos, r.data.len()));
    let slots = halves.as_ref().map_or(nrows, |h| h.slots);
    let mut columns: Vec<Column> = schema
        .columns
        .iter()
        .map(|c| typed_column(&c.ty, slots))
        .collect::<Option<_>>()?;
    match halves {
        Some(halves) => halves.read(r, &mut columns, nrows)?,
        None => _ = read_all(r, &mut columns, 0..nrows).ok()?,
    }
    Some(columns)
}

/// One column's slots from some row on, lent to [`read_rows`]: its
/// validity words and typed slots, and for a var-width lane each cell's
/// end offset and the buffer its payload is appended to.
struct Lanes<'a> {
    validity: &'a mut [u64],
    slots: Slots<'a>,
}

/// The typed slots of [`Lanes`].
enum Slots<'a> {
    Bool(&'a mut [bool]),
    Int8(&'a mut [i8]),
    Int16(&'a mut [i16]),
    Int32(&'a mut [i32]),
    Int64(&'a mut [i64]),
    Float32(&'a mut [f32]),
    Float64(&'a mut [f64]),
    Decimal(&'a mut [i128], &'a mut [u8]),
    Utf8(&'a mut [usize], &'a mut Vec<u8>),
    Bytes(&'a mut [usize], &'a mut Vec<u8>),
}

impl<'a> Lanes<'a> {
    /// The rows before row `at` (a multiple of 64), whose payloads go where
    /// they went, and the rows from it on, whose payloads go to `tail`.
    fn split_at(self, at: usize, tail: &'a mut Vec<u8>) -> (Lanes<'a>, Lanes<'a>) {
        fn halves<'a, T>(
            v: &'a mut [T],
            at: usize,
            slots: fn(&'a mut [T]) -> Slots<'a>,
        ) -> (Slots<'a>, Slots<'a>) {
            let (head, tail) = v.split_at_mut(at);
            (slots(head), slots(tail))
        }
        let (head, rest) = match self.slots {
            Slots::Bool(v) => halves(v, at, Slots::Bool),
            Slots::Int8(v) => halves(v, at, Slots::Int8),
            Slots::Int16(v) => halves(v, at, Slots::Int16),
            Slots::Int32(v) => halves(v, at, Slots::Int32),
            Slots::Int64(v) => halves(v, at, Slots::Int64),
            Slots::Float32(v) => halves(v, at, Slots::Float32),
            Slots::Float64(v) => halves(v, at, Slots::Float64),
            Slots::Decimal(unscaled, scale) => {
                let ((u0, u1), (s0, s1)) = (unscaled.split_at_mut(at), scale.split_at_mut(at));
                (Slots::Decimal(u0, s0), Slots::Decimal(u1, s1))
            }
            Slots::Utf8(ends, bytes) => {
                let (e0, e1) = ends.split_at_mut(at);
                (Slots::Utf8(e0, bytes), Slots::Utf8(e1, tail))
            }
            Slots::Bytes(ends, bytes) => {
                let (e0, e1) = ends.split_at_mut(at);
                (Slots::Bytes(e0, bytes), Slots::Bytes(e1, tail))
            }
        };
        let (v0, v1) = self.validity.split_at_mut(at / 64);
        (
            Lanes {
                validity: v0,
                slots: head,
            },
            Lanes {
                validity: v1,
                slots: rest,
            },
        )
    }

    /// The buffer a var-width lane's payloads go to.
    fn payload(&mut self) -> Option<&mut Vec<u8>> {
        match &mut self.slots {
            Slots::Utf8(_, bytes) | Slots::Bytes(_, bytes) => Some(bytes),
            _ => None,
        }
    }
}

/// `$fixed` once per fixed-width lane of a flat [`ColumnData`] (a
/// decimal's two lanes each), with `$v` the lane's `Vec`, and `$var` with
/// `$b` a var-width column's [`VarBuffer`].
macro_rules! each_lane {
    ($data:expr, $v:ident => $fixed:expr, $b:ident => $var:expr) => {
        match $data {
            ColumnData::Bool($v) => $fixed,
            ColumnData::Int8($v) => $fixed,
            ColumnData::Int16($v) => $fixed,
            ColumnData::Int32($v) => $fixed,
            ColumnData::Int64($v) => $fixed,
            ColumnData::Float32($v) => $fixed,
            ColumnData::Float64($v) => $fixed,
            ColumnData::Decimal { unscaled, scale } => {
                let $v = unscaled;
                $fixed;
                let $v = scale;
                $fixed
            }
            ColumnData::Utf8($b) | ColumnData::Bytes($b) => $var,
            ColumnData::Nested(_) => unreachable!("the fast path holds flat columns only"),
        }
    };
}

impl Column {
    /// The column's slots, lent to [`read_rows`]. A flat column only.
    fn lanes(&mut self) -> Lanes<'_> {
        let slots = match &mut self.data {
            ColumnData::Bool(v) => Slots::Bool(v),
            ColumnData::Int8(v) => Slots::Int8(v),
            ColumnData::Int16(v) => Slots::Int16(v),
            ColumnData::Int32(v) => Slots::Int32(v),
            ColumnData::Int64(v) => Slots::Int64(v),
            ColumnData::Float32(v) => Slots::Float32(v),
            ColumnData::Float64(v) => Slots::Float64(v),
            ColumnData::Decimal { unscaled, scale } => Slots::Decimal(unscaled, scale),
            ColumnData::Utf8(buf) => Slots::Utf8(&mut buf.offsets[1..], &mut buf.bytes),
            ColumnData::Bytes(buf) => Slots::Bytes(&mut buf.offsets[1..], &mut buf.bytes),
            ColumnData::Nested(_) => unreachable!("the fast path holds flat columns only"),
        };
        Lanes {
            validity: &mut self.validity.words,
            slots,
        }
    }

    /// Zeroes rows `rows` (the first a multiple of 64): placeholders and
    /// validity bits, so a row left NULL there reads as one the fast path
    /// never touched.
    fn clear_rows(&mut self, rows: Range<usize>) {
        self.validity.words[rows.start / 64..rows.end.div_ceil(64)].fill(0);
        each_lane!(&mut self.data, v => v[rows.clone()].fill(Default::default()), _b => {});
    }

    /// Moves the `moved` rows from row `from` — read by the helper, their
    /// payloads in `tail` — down to follow the first `nrows - moved`, and
    /// drops every slot past `nrows`.
    fn settle(&mut self, from: usize, moved: usize, nrows: usize, tail: &[u8]) {
        let to = nrows - moved;
        self.validity.settle(from, to, moved);
        each_lane!(&mut self.data, v => {
            if from != to {
                v.copy_within(from..from + moved, to);
            }
            v.truncate(nrows);
        }, b => {
            let (head, end) = (b.offsets[to], if moved > 0 { b.offsets[from + moved] } else { 0 });
            for i in 1..=moved {
                b.offsets[to + i] = b.offsets[from + i] + head;
            }
            b.offsets.truncate(nrows + 1);
            b.bytes.extend_from_slice(&tail[..end]);
        });
    }
}

impl Bitmap {
    /// Moves the `moved` bits from bit `from` (a multiple of 64) down to
    /// bit `to`, below which only bits `..to` may be set, and drops every
    /// bit past `to + moved`.
    fn settle(&mut self, from: usize, to: usize, moved: usize) {
        let (words, shift) = (&mut self.words, to % 64);
        if from != to {
            for w in 0..moved.div_ceil(64) {
                // The word taken is never a later word's destination: a
                // destination is at most the source just taken.
                let bits = std::mem::take(&mut words[from / 64 + w]);
                words[to / 64 + w] |= bits << shift;
                if shift > 0 {
                    words[to / 64 + w + 1] |= bits >> (64 - shift);
                }
            }
        }
        self.len = to + moved;
        words.truncate(self.len.div_ceil(64));
        if let (Some(last), tail @ 1..) = (words.last_mut(), self.len % 64) {
            *last &= (1u64 << tail) - 1;
        }
    }
}

/// [`read_rows`] over the whole of `columns`, to the last row asked for.
fn read_all(r: &mut Reader, columns: &mut [Column], rows: Range<usize>) -> Result<usize, usize> {
    match columns {
        [one] => read_rows(r, &mut [one.lanes()], rows, usize::MAX),
        many => read_rows(
            r,
            &mut many.iter_mut().map(Column::lanes).collect::<Vec<_>>(),
            rows,
            usize::MAX,
        ),
    }
}

/// The one row reader: reads rows `rows` into `lanes` while the reader
/// is short of byte `stop`. `Ok` is the row it stopped before — the end
/// of `rows`, or the first row at `stop` — and `Err` the row holding a
/// cell the fast path does not read.
fn read_rows(
    r: &mut Reader,
    lanes: &mut [Lanes],
    rows: Range<usize>,
    stop: usize,
) -> Result<usize, usize> {
    let file = r.data;
    let read = 'rows: {
        for row in rows.clone() {
            if r.pos >= stop {
                break 'rows Ok(row);
            }
            if read_row(r, file, lanes, row).is_none() {
                break 'rows Err(row);
            }
        }
        Ok(rows.end)
    };
    #[cfg(test)]
    tally(read.unwrap_or_else(|row| row + 1) - rows.start);
    read
}

/// One row's cells, each into its own lane at slot `row`.
#[inline(always)]
fn read_row(r: &mut Reader, file: &[u8], lanes: &mut [Lanes], row: usize) -> Option<()> {
    for lane in lanes {
        // Each lane takes its own tag and NULL; any other tag ends the
        // fast path.
        match (r.fast_u8()?, &mut lane.slots) {
            (0, Slots::Utf8(ends, bytes) | Slots::Bytes(ends, bytes)) => {
                ends[row] = bytes.len();
                continue;
            }
            (0, _) => continue,
            (1, Slots::Bool(v)) => v[row] = r.fast_u8()? != 0,
            (2, Slots::Int8(v)) => v[row] = r.fast_int()?,
            (3, Slots::Int16(v)) => v[row] = r.fast_int()?,
            (4, Slots::Int32(v)) => v[row] = r.fast_int()?,
            (5, Slots::Int64(v)) => v[row] = r.fast_int()?,
            (6, Slots::Float32(v)) => {
                v[row] = f32::from_bits(u32::from_le_bytes(r.fast_array()?));
            }
            (7, Slots::Float64(v)) => {
                v[row] = f64::from_bits(u64::from_le_bytes(r.fast_array()?));
            }
            (8, Slots::Decimal(unscaled, scale)) => {
                unscaled[row] = r.fast_decimal()?;
                scale[row] = r.fast_u8()?;
            }
            (9, Slots::Utf8(ends, bytes)) => {
                let len = r.fast_str()?.len();
                ends[row] = push_within(bytes, file, r.pos - len, len);
            }
            (10, Slots::Bytes(ends, bytes)) => {
                let len = r.fast_run()?.len();
                ends[row] = push_within(bytes, file, r.pos - len, len);
            }
            _ => return None,
        }
        lane.validity[row / 64] |= 1u64 << (row % 64);
    }
    Some(())
}

/// Appends `src[start..start + len]` to `bytes` and returns the new end.
/// Short cells copy through a constant-size window when one fits in
/// `src`: a fixed-length copy compiles to two register moves, while
/// variable short lengths bounce through the memcpy dispatcher and
/// mispredict on every size change.
#[inline(always)]
fn push_within(bytes: &mut Vec<u8>, src: &[u8], start: usize, len: usize) -> usize {
    if len <= 32 && start + 32 <= src.len() {
        let keep = bytes.len() + len;
        bytes.extend_from_slice(&src[start..start + 32]);
        bytes.truncate(keep);
    } else {
        bytes.extend_from_slice(&src[start..start + len]);
    }
    bytes.len()
}

/// Rows a candidate row start must read before the resync probe takes
/// it (or every row to the end of the file).
const PROBE_ROWS: usize = 256;

/// The most rows the resync probe reads, over every candidate.
const PROBE_BUDGET: usize = 1024;

/// A decode split between the calling thread, which reads rows from the
/// first on (the head), and a scoped helper, which reads rows from a row
/// start past the byte midpoint (the tail). The tail's rows land at a
/// guessed row past the head's last and move down once the head's count
/// is known; they are taken only when the head ends exactly on the
/// tail's first byte and the tail read at least the rows left, so the
/// batch is the one [`read_rows`] makes on one thread.
struct Halves {
    /// Where the rows begin.
    body: usize,
    /// Where the probe starts looking for the tail's first row.
    from: usize,
    /// The slot the tail's first row lands in: a multiple of 64, so the
    /// two threads share no validity word.
    at: usize,
    /// Slots per lane: the tail's room runs from `at` to here.
    slots: usize,
}

impl Halves {
    /// The split of a file whose `nrows` rows lie in bytes `body..end`.
    /// The head's row count is guessed from the bytes before the midpoint,
    /// with a margin of a 128th of the rows plus 64 on both sides.
    fn guess(nrows: usize, body: usize, end: usize) -> Halves {
        let from = body + (end - body) / 2;
        let est = (nrows as u128 * (from - body) as u128 / (end - body).max(1) as u128) as usize;
        let margin = nrows / 128 + 64;
        let at = (est + margin).next_multiple_of(64);
        Halves {
            body,
            from,
            at,
            slots: at + nrows + margin - est,
        }
    }

    /// Reads the file's rows into `columns` (of `self.slots` slots each)
    /// and leaves them `nrows` long, as [`read_all`] would have; `None`
    /// when the careful path must decode the file.
    fn read(self, r: &mut Reader, columns: &mut [Column], nrows: usize) -> Option<()> {
        let Halves { at, slots, .. } = self;
        let (file, end) = (r.data, r.data.len());
        let mut tails: Vec<Vec<u8>> = columns.iter().map(|_| Vec::new()).collect();
        let Some((start, span, touched)) = self.probe(file, columns, &mut tails) else {
            #[cfg(test)]
            record(Split::NoStart);
            return self.alone(r, columns, 0, nrows);
        };
        for (col, tail) in columns.iter_mut().zip(&mut tails) {
            col.clear_rows(at..at + touched);
            if let ColumnData::Utf8(own) | ColumnData::Bytes(own) = &mut col.data {
                // Payload bytes per file byte, as the probe read them,
                // with an eighth to spare: sized here, so no buffer grows
                // on the helper and the tail's bytes append without one.
                let need = |bytes: usize| {
                    let rate = tail.len() as f64 / span as f64;
                    ((rate * bytes as f64 * 1.125) as usize).min(bytes) + 64
                };
                let (head, rest) = (need(start - self.body), need(end - start));
                tail.clear();
                tail.reserve_exact(rest);
                own.bytes.reserve_exact(head + rest);
            }
        }
        let (head, tail) = std::thread::scope(|s| {
            let (mut head, mut tail): (Vec<Lanes>, Vec<Lanes>) = columns
                .iter_mut()
                .zip(&mut tails)
                .map(|(c, t)| c.lanes().split_at(at, t))
                .unzip();
            let helper = s.spawn(move || {
                let mut r = Reader {
                    data: file,
                    pos: start,
                };
                read_rows(&mut r, &mut tail, 0..slots - at, end)
            });
            let head = read_rows(r, &mut head, 0..at.min(nrows), start);
            (
                head,
                helper.join().unwrap_or_else(|p| panic::resume_unwind(p)),
            )
        });
        let landed = r.pos == start;
        let moved = match (head, tail) {
            // A row the one-thread reader fails on too.
            (Err(_), _) => return None,
            (Ok(rows), _) if rows == nrows => 0,
            (Ok(rows), Ok(read) | Err(read)) if landed && read >= nrows - rows => nrows - rows,
            // The one-thread reader fails at the row the tail failed on,
            // or at the end of the file.
            (Ok(_), Err(_)) if landed => return None,
            (Ok(_), Ok(read)) if landed && read < slots - at => return None,
            // A failed guess: the head goes on alone.
            (Ok(rows), _) => {
                #[cfg(test)]
                record(Split::Continued);
                return self.alone(r, columns, rows, nrows);
            }
        };
        #[cfg(test)]
        record(Split::Verified);
        for (col, tail) in columns.iter_mut().zip(&tails) {
            col.settle(at, moved, nrows, tail);
        }
        Some(())
    }

    /// The rows from `row` on, read on the calling thread after whatever
    /// the helper or the probe left in the tail's slots is cleared.
    fn alone(
        &self,
        r: &mut Reader,
        columns: &mut [Column],
        row: usize,
        nrows: usize,
    ) -> Option<()> {
        for col in columns.iter_mut() {
            col.clear_rows(self.at..self.slots);
        }
        read_all(r, columns, row..nrows).ok()?;
        for col in columns.iter_mut() {
            col.settle(self.at, 0, nrows, &[]);
        }
        Some(())
    }

    /// Finds the tail's first row: the first byte from `self.from` on
    /// from which [`PROBE_ROWS`] rows (or every row to the end of the
    /// file) read, through the tail's lanes, within [`PROBE_BUDGET`] rows
    /// read in all. Returns that byte, the bytes its rows took (their
    /// payloads are left in `tails`), and the tail slots it touched.
    fn probe(
        &self,
        file: &[u8],
        columns: &mut [Column],
        tails: &mut [Vec<u8>],
    ) -> Option<(usize, usize, usize)> {
        let mut lanes: Vec<Lanes> = columns
            .iter_mut()
            .zip(tails)
            .map(|(c, t)| c.lanes().split_at(self.at, t).1)
            .collect();
        let (mut spent, mut touched) = (0, 0);
        let mut r = Reader {
            data: file,
            pos: self.from,
        };
        for start in self.from..file.len() {
            if spent + PROBE_ROWS > PROBE_BUDGET {
                return None;
            }
            r.pos = start;
            for lane in &mut lanes {
                if let Some(payload) = lane.payload() {
                    payload.clear();
                }
            }
            match read_rows(
                &mut r,
                &mut lanes,
                0..PROBE_ROWS.min(self.slots - self.at),
                file.len(),
            ) {
                Ok(rows) => return Some((start, r.pos - start, touched.max(rows))),
                Err(row) => {
                    spent += row + 1;
                    touched = touched.max(row + 1);
                }
            }
        }
        None
    }
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

/// What the last split decode on this thread did with the helper's rows.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Split {
    /// The probe found no row start: the calling thread read every row.
    NoStart,
    /// The guess failed: the head went on alone.
    Continued,
    /// The tail's rows were taken.
    Verified,
}

#[cfg(test)]
thread_local! {
    static SPLIT: std::cell::Cell<Option<Split>> = const { std::cell::Cell::new(None) };
    static ROWS_READ: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn record(split: Split) {
    SPLIT.with(|s| s.set(Some(split)));
}

/// Counts the rows [`read_rows`] reads on this thread.
#[cfg(test)]
fn tally(rows: usize) {
    ROWS_READ.with(|c| c.set(c.get() + rows));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    }

    /// A little xorshift generator, so a case is its seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    const FLAT: [PhysicalType; 10] = [
        PhysicalType::Bool,
        PhysicalType::Int8,
        PhysicalType::Int16,
        PhysicalType::Int32,
        PhysicalType::Int64,
        PhysicalType::Float32,
        PhysicalType::Float64,
        PhysicalType::Decimal,
        PhysicalType::Utf8,
        PhysicalType::Bytes,
    ];

    /// A cell of `ty`: NULL one time in five, integers of every varint
    /// length, floats of any bits, decimals past `i64` one time in eight,
    /// and payloads either side of the 32-byte window and past it.
    fn cell(rng: &mut Rng, ty: &PhysicalType) -> PhysicalValue {
        if rng.below(5) == 0 {
            return PhysicalValue::Null;
        }
        let wide = rng.next() >> rng.below(64);
        let payload = |rng: &mut Rng| -> Vec<u8> {
            let len = [rng.below(8), 30 + rng.below(5), 40 + rng.below(80)][rng.below(3) as usize];
            (0..len).map(|_| b'a' + rng.below(26) as u8).collect()
        };
        match ty {
            PhysicalType::Bool => PhysicalValue::Bool(rng.below(2) == 0),
            PhysicalType::Int8 => PhysicalValue::Int8(wide as i8),
            PhysicalType::Int16 => PhysicalValue::Int16(wide as i16),
            PhysicalType::Int32 => PhysicalValue::Int32(wide as i32),
            PhysicalType::Int64 => PhysicalValue::Int64(wide as i64),
            PhysicalType::Float32 => PhysicalValue::Float32(f32::from_bits(rng.next() as u32)),
            PhysicalType::Float64 => PhysicalValue::Float64(f64::from_bits(rng.next())),
            PhysicalType::Decimal => PhysicalValue::Decimal {
                unscaled: match rng.below(8) {
                    0 => i128::from(wide as i64) << 70,
                    _ => i128::from(wide as i64),
                },
                scale: rng.below(39) as u8,
            },
            PhysicalType::Utf8 => {
                PhysicalValue::Utf8(String::from_utf8(payload(rng)).expect("ASCII"))
            }
            _ => PhysicalValue::Bytes(payload(rng)),
        }
    }

    /// A random flat table of `rows` rows and one to six columns.
    fn flat_table(rng: &mut Rng, rows: usize) -> RecordBatch {
        let width = 1 + rng.below(6) as usize;
        let types: Vec<PhysicalType> = (0..width)
            .map(|_| FLAT[rng.below(FLAT.len() as u64) as usize].clone())
            .collect();
        let schema = FileSchema::of(
            types
                .iter()
                .enumerate()
                .map(|(i, ty)| (["a", "b", "c", "d", "e", "f"][i], ty.clone()))
                .collect(),
        );
        let rows: Vec<Vec<PhysicalValue>> = (0..rows)
            .map(|_| types.iter().map(|ty| cell(rng, ty)).collect())
            .collect();
        RecordBatch::from_rows(&schema, &rows).expect("cells of their columns' types")
    }

    /// The encoder with every file of two rows or more split.
    fn split_encode(batch: &RecordBatch) -> Vec<u8> {
        let views: Vec<ColumnRef> = batch.columns.iter().map(Column::view).collect();
        encode_lanes(&RULES, &batch.schema, &views, 2).expect("a valid batch")
    }

    /// What the one-thread and the split decoder make of `bytes`, which
    /// must be the same; `Debug` so NaNs compare (every float is printed
    /// from its bits' value, and every lane and validity word is printed).
    fn decode_both(bytes: &[u8]) -> String {
        let serial = format!("{:?}", decode_split(&RULES, bytes, usize::MAX));
        let split = format!("{:?}", decode_split(&RULES, bytes, 2));
        assert_eq!(serial, split, "{bytes:?}");
        serial
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Split encode writes the one-thread file, and split decode reads
        /// back what the one-thread decoder does — of the honest file, of
        /// the file with bytes before its footer, and of the file with a
        /// row in its second half holding a cell of another column's tag.
        #[test]
        fn a_split_file_is_the_one_thread_file(seed in any::<u64>(), rows in 2usize..1500) {
            let mut rng = Rng(seed | 1);
            let batch = flat_table(&mut rng, rows);
            let bytes = encode(&RULES, &batch).expect("a valid batch");
            prop_assert_eq!(&split_encode(&batch), &bytes);
            let honest = decode_both(&bytes);
            prop_assert_eq!(honest, format!("{:?}", Ok::<_, FormatError>(&batch)));

            let footer = bytes.len() - 4;
            let mut trailing = bytes[..footer].to_vec();
            for _ in 0..1 + rng.below(100) {
                trailing.push(rng.next() as u8);
            }
            trailing.extend_from_slice(RULES.magic);
            decode_both(&trailing);

            // A row of the second half rewritten with its first column's
            // cell of another type: the careful path demotes that column.
            let row = rows / 2 + rng.below((rows - rows / 2) as u64) as usize;
            let mut skewed = batch.to_rows();
            let other = &FLAT[(FLAT.iter().position(|t| *t == batch.schema.columns[0].ty).unwrap() + 1) % FLAT.len()];
            skewed[row][0] = loop {
                let v = cell(&mut rng, other);
                if v != PhysicalValue::Null {
                    break v;
                }
            };
            let mut w = Writer { buf: Vec::new() };
            wire::write_header(&mut w, &RULES, &batch.schema);
            w.len(rows);
            for cells in &skewed {
                for v in cells {
                    wire::write_value(&mut w, v);
                }
            }
            w.buf.extend_from_slice(RULES.magic);
            let read = decode_both(&w.buf);
            prop_assert!(read.contains("Nested"), "{}", read);
        }
    }

    /// Every value of every byte in the second half of a small file's
    /// rows: the split decoder returns the one-thread decoder's batch or
    /// error, whatever the edit does to the row starts the probe finds.
    #[test]
    fn every_single_byte_edit_in_the_tail_half_decodes_as_on_one_thread() {
        let schema = FileSchema::of(vec![
            ("i", PhysicalType::Int32),
            ("s", PhysicalType::Utf8),
            ("dec", PhysicalType::Decimal),
            ("b", PhysicalType::Bool),
        ]);
        let rows: Vec<Vec<PhysicalValue>> = (0..12)
            .map(|i| {
                vec![
                    match i % 5 {
                        3 => PhysicalValue::Null,
                        _ => PhysicalValue::Int32(i * 1_000 - 5_000),
                    },
                    PhysicalValue::Utf8("ab".repeat(i as usize % 4)),
                    PhysicalValue::Decimal {
                        unscaled: i128::from(i) << (i * 6),
                        scale: 2,
                    },
                    PhysicalValue::Bool(i % 2 == 0),
                ]
            })
            .collect();
        let bytes = wire::encode(&RULES, &schema, &rows).unwrap();
        let mut r = wire::open_reader(&RULES, &bytes).unwrap();
        wire::read_header(&mut r).unwrap();
        wire::read_row_count(&mut r, schema.columns.len()).unwrap();
        let (body, footer) = (r.pos, bytes.len() - 4);
        let mut edited = bytes.clone();
        for at in body + (footer - body) / 2..footer {
            for value in 0..=255u8 {
                edited[at] = value;
                decode_both(&edited);
            }
            edited[at] = bytes[at];
        }
    }

    /// Nine columns of `bulk`'s physical types, `rows` rows.
    fn bulk_like(rows: usize) -> RecordBatch {
        let types = [
            PhysicalType::Bool,
            PhysicalType::Int32,
            PhysicalType::Int64,
            PhysicalType::Float64,
            PhysicalType::Decimal,
            PhysicalType::Utf8,
            PhysicalType::Bytes,
            PhysicalType::Int32,
            PhysicalType::Int64,
        ];
        let schema = FileSchema::of(
            types
                .iter()
                .enumerate()
                .map(|(i, ty)| {
                    (
                        ["b", "i", "l", "d", "dec", "s", "bin", "dt", "ts"][i],
                        ty.clone(),
                    )
                })
                .collect(),
        );
        let mut rng = Rng(42);
        let rows: Vec<Vec<PhysicalValue>> = (0..rows)
            .map(|_| {
                types
                    .iter()
                    .map(|ty| match ty {
                        _ if rng.below(20) == 0 => PhysicalValue::Null,
                        PhysicalType::Utf8 => PhysicalValue::Utf8("é".repeat(5) + &"x".repeat(15)),
                        PhysicalType::Bytes => {
                            PhysicalValue::Bytes(vec![7; 1 + rng.below(8) as usize])
                        }
                        PhysicalType::Decimal => PhysicalValue::Decimal {
                            unscaled: i128::from(rng.next() >> 10),
                            scale: 2,
                        },
                        ty => cell(&mut rng, ty),
                    })
                    .collect()
            })
            .collect();
        RecordBatch::from_rows(&schema, &rows).expect("cells of their columns' types")
    }

    /// An honest 131,072-row file is read by both threads: the helper's
    /// rows are taken, not read again, and the calling thread reads about
    /// half the rows.
    #[test]
    fn an_honest_bulk_file_is_read_by_two_threads() {
        let batch = bulk_like(131_072);
        let bytes = encode(&RULES, &batch).expect("a valid batch");
        assert_eq!(split_encode(&batch), bytes);
        ROWS_READ.with(|c| c.set(0));
        SPLIT.with(|s| s.set(None));
        let read = format!("{:?}", decode(&RULES, &bytes));
        assert!(
            read == format!("{:?}", Ok::<_, FormatError>(&batch)),
            "the batch written"
        );
        if two_cores() {
            assert_eq!(SPLIT.with(|s| s.get()), Some(Split::Verified));
            let rows = ROWS_READ.with(|c| c.get());
            assert!(rows < 131_072 / 2 + 1_024 + PROBE_BUDGET, "{rows}");
        }
    }

    /// A file whose first half of rows is far shorter than its second
    /// misleads the guess: the head runs out of slots before the tail's
    /// first byte and goes on alone, reading every row once, plus the
    /// probe's rows.
    #[test]
    fn a_failed_guess_costs_the_calling_thread_one_read_of_each_row() {
        let nrows = 4_096;
        let schema = FileSchema::of(vec![("s", PhysicalType::Utf8)]);
        let rows: Vec<Vec<PhysicalValue>> = (0..nrows)
            .map(|i| {
                vec![PhysicalValue::Utf8(if i < nrows / 2 {
                    String::new()
                } else {
                    "y".repeat(31)
                })]
            })
            .collect();
        let bytes = wire::encode(&RULES, &schema, &rows).unwrap();
        ROWS_READ.with(|c| c.set(0));
        SPLIT.with(|s| s.set(None));
        let split = decode_split(&RULES, &bytes, 2).unwrap();
        assert_eq!(split.to_rows(), rows);
        if two_cores() {
            assert_eq!(SPLIT.with(|s| s.get()), Some(Split::Continued));
        }
        let read = ROWS_READ.with(|c| c.get());
        assert!(read <= nrows + PROBE_BUDGET, "{read}");
        assert_eq!(
            format!("{split:?}"),
            decode_both(&bytes)
                .trim_start_matches("Ok(")
                .trim_end_matches(')')
        );
    }
}
