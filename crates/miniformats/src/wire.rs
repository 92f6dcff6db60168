//! Low-level binary encoding shared by the three container formats.
//!
//! Each format file is: 4 magic bytes, a format version byte, the encoded
//! [`FileSchema`], a row count, the rows, and the magic again as a footer.
//! Integers use zig-zag varints; strings and byte arrays are
//! length-prefixed. The formats differ in magic bytes and in which physical
//! types they admit ([`FormatRules`]).

use crate::physical::{value_matches, FileSchema, PhysicalColumn, PhysicalType, PhysicalValue};
use crate::FormatError;
use std::fmt;

/// Which physical types a format admits.
#[derive(Debug, Clone, Copy)]
pub struct FormatRules {
    /// Format name for error messages.
    pub name: &'static str,
    /// 4-byte magic.
    pub magic: &'static [u8; 4],
    /// Whether 8/16-bit integers exist in this format.
    pub allows_small_ints: bool,
    /// Whether map keys may be non-string.
    pub allows_non_string_map_keys: bool,
}

impl FormatRules {
    /// Validates a physical type against the format's rules. `context`
    /// names the column in an error and is rendered only for one.
    pub fn check_type(
        &self,
        ty: &PhysicalType,
        context: &dyn fmt::Display,
    ) -> Result<(), FormatError> {
        match ty {
            PhysicalType::Int8 | PhysicalType::Int16 if !self.allows_small_ints => {
                Err(FormatError::UnsupportedType {
                    format: self.name,
                    ty: ty.clone(),
                    context: context.to_string(),
                })
            }
            PhysicalType::List(e) => self.check_type(e, context),
            PhysicalType::Map(k, v) => {
                if !self.allows_non_string_map_keys && **k != PhysicalType::Utf8 {
                    return Err(FormatError::UnsupportedType {
                        format: self.name,
                        ty: (**k).clone(),
                        context: format!("{context}: map keys must be strings"),
                    });
                }
                self.check_type(k, context)?;
                self.check_type(v, context)
            }
            PhysicalType::Struct(fields) => {
                for (fname, fty) in fields {
                    self.check_type(fty, &format_args!("{context}.{fname}"))?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// [`FormatRules::check_type`] on every column of `schema`.
    pub(crate) fn check_schema(&self, schema: &FileSchema) -> Result<(), FormatError> {
        for col in &schema.columns {
            self.check_type(&col.ty, &format_args!("column {}", col.name))?;
        }
        Ok(())
    }
}

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    #[inline]
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn varint(&mut self, v: i128) {
        // Zig-zag then LEB128.
        let mut z = ((v << 1) ^ (v >> 127)) as u128;
        loop {
            let byte = (z & 0x7f) as u8;
            z >>= 7;
            if z == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Tag byte plus zig-zag varint: the cell [`tagged_varint64_word`]
    /// assembles, appended.
    #[inline]
    pub(crate) fn tagged_varint64(&mut self, tag: u8, v: i64) {
        let (word, len) = tagged_varint64_word(tag, v);
        self.buf.extend_from_slice(&word.to_le_bytes()[..len]);
    }

    /// The decimal tag plus the unscaled integer: 64-bit encode, wide
    /// only past `i64`.
    #[inline]
    pub(crate) fn tagged_decimal(&mut self, unscaled: i128) {
        match i64::try_from(unscaled) {
            Ok(narrow) => self.tagged_varint64(8, narrow),
            Err(_) => {
                self.u8(8);
                self.varint(unscaled);
            }
        }
    }

    pub(crate) fn len(&mut self, v: usize) {
        self.varint(v as i128);
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Zig-zag maps `i64` onto `u64` so small magnitudes get short varints.
#[inline]
pub(crate) fn zigzag64(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

/// Packs the low seven bits of each byte of `x` together (the high bit of
/// each byte must be clear or is dropped): LEB128 payload groups → value.
#[inline]
fn squeeze7(x: u64) -> u64 {
    let x = x & 0x7f7f_7f7f_7f7f_7f7f;
    let x = ((x & 0x7f00_7f00_7f00_7f00) >> 1) | (x & 0x007f_007f_007f_007f);
    let x = ((x & 0x3fff_0000_3fff_0000) >> 2) | (x & 0x0000_3fff_0000_3fff);
    ((x & 0x0fff_ffff_0000_0000) >> 4) | (x & 0x0000_0000_0fff_ffff)
}

/// Spreads the low 56 bits of `z` over eight bytes, seven to a byte (the
/// high bit of each clear): the inverse of [`squeeze7`], value → LEB128
/// payload groups.
#[inline]
fn spread7(z: u64) -> u64 {
    let x = ((z << 4) & 0x0fff_ffff_0000_0000) | (z & 0x0000_0000_0fff_ffff);
    let x = ((x << 2) & 0x3fff_0000_3fff_0000) | (x & 0x0000_3fff_0000_3fff);
    ((x << 1) & 0x7f00_7f00_7f00_7f00) | (x & 0x007f_007f_007f_007f)
}

/// Inverse of [`zigzag64`].
#[inline]
pub(crate) fn unzigzag64(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// LEB128 length of a zig-zagged value: one byte per started 7-bit group.
#[inline]
pub(crate) fn varint64_len(z: u64) -> usize {
    (64 - (z | 1).leading_zeros() as usize).div_ceil(7)
}

/// The one integer writer: a tag byte and the zig-zag LEB128 varint of
/// `v` as one little-endian word, with the cell's length in bytes (at
/// most eleven; the bytes past it are zero). One byte (every length
/// prefix of a short cell) is a compare, as in [`varint64_in`]. Anything
/// longer takes its length from the value's bit width and every byte from
/// arithmetic, so no branch depends on the length: half of all random
/// `i64`s take nine bytes and half ten, and a length dispatch mispredicts
/// on them.
#[inline(always)]
pub(crate) fn tagged_varint64_word(tag: u8, v: i64) -> (u128, usize) {
    const MORE: u128 = 0x8080_8080_8080_8080_8080;
    let z = zigzag64(v);
    if z < 0x80 {
        return (u128::from(tag) | u128::from(z) << 8, 2);
    }
    let len = varint64_len(z);
    // Bits 0–55 in the first eight bytes, 56–62 in the ninth, 63 in the
    // tenth; a continuation bit on every byte but the last.
    let groups =
        u128::from(spread7(z)) | u128::from((z >> 56) & 0x7f) << 64 | u128::from(z >> 63) << 72;
    let more = MORE & ((1u128 << (8 * len - 8)) - 1);
    (u128::from(tag) | (groups | more) << 8, len + 1)
}

/// The one LEB128 decoder of a 64-bit value: given the ten bytes at a
/// varint, its zig-zagged value and length, or `None` when it runs past
/// ten bytes or past bit 63. One byte (every length prefix of a short
/// cell) is a compare. Anything longer decodes without a branch per byte
/// — find the terminating byte in one word, squeeze the 7-bit groups
/// together, and fold in a ninth and tenth byte by arithmetic — so a
/// cell's length is no branch to mispredict.
#[inline(always)]
fn varint64_in(window: &[u8; 10]) -> Option<(u64, usize)> {
    if window[0] < 0x80 {
        return Some((u64::from(window[0]), 1));
    }
    const STOP: u64 = 0x8080_8080_8080_8080;
    let word = u64::from_le_bytes(*window.first_chunk().expect("8 of 10 bytes"));
    let (ninth, tenth) = (u64::from(window[8]), u64::from(window[9]));
    let stops = !word & STOP;
    let long = (stops == 0) as u64;
    // Bytes of the first word that belong to the varint: all eight, or up
    // to and including the first without the continuation bit.
    let in_word = if stops == 0 {
        8
    } else {
        stops.trailing_zeros() / 8 + 1
    };
    let z = squeeze7(word & (u64::MAX >> (64 - 8 * in_word)));
    let has_tenth = long & (ninth >> 7);
    // A tenth byte of 0 or 1 is bit 63 of an `i64`; anything else
    // continues or overflows.
    (has_tenth & (tenth > 1) as u64 == 0).then(|| {
        (
            z | ((ninth & 0x7f) * long) << 56 | ((tenth & 1) * has_tenth) << 63,
            (u64::from(in_word) + long + has_tenth) as usize,
        )
    })
}

/// Scratch zero-filled past a [`Window`]'s cursor at a time, within the
/// buffer's capacity: one grow per few kilobytes of file, not per row.
const AHEAD: usize = 16 << 10;

/// A file written by fixed-size stores at a cursor. The bytes before the
/// cursor are the file so far; the ones after it are scratch that later
/// stores overwrite. [`Window::row`] makes room once for a row's worth of
/// stores, so a cell is one store of a word and an advance by the cell's
/// length, with no grow check; a cell of no fixed bound goes through
/// [`Window::append`].
pub(crate) struct Window {
    w: Writer,
    pos: usize,
    /// Bytes past a row's first cursor that its stores may touch.
    room: usize,
    /// Where the current row's room ends.
    limit: usize,
}

impl Window {
    /// Continues `w` with stores, each row touching at most `room` bytes.
    pub(crate) fn new(w: Writer, room: usize) -> Window {
        let pos = w.buf.len();
        Window {
            w,
            pos,
            room,
            limit: pos,
        }
    }

    /// Makes the room for one row's stores.
    #[inline(always)]
    pub(crate) fn row(&mut self) {
        if self.w.buf.len() - self.pos < self.room {
            self.grow();
        }
        self.limit = self.pos + self.room;
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let ahead = (self.pos + AHEAD).min(self.w.buf.capacity());
        self.w.buf.resize((self.pos + self.room).max(ahead), 0);
    }

    /// Stores all `N` bytes at the cursor and advances by `len` of them:
    /// a constant-size copy, where a short variable one bounces through
    /// the memcpy dispatcher.
    #[inline(always)]
    pub(crate) fn store<const N: usize>(&mut self, bytes: &[u8; N], len: usize) {
        debug_assert!(self.pos + N <= self.limit, "a store past the row's room");
        self.w.buf[self.pos..self.pos + N].copy_from_slice(bytes);
        self.pos += len;
    }

    /// The first `len` bytes of a little-endian word.
    #[inline(always)]
    pub(crate) fn put(&mut self, word: u128, len: usize) {
        self.store(&word.to_le_bytes(), len);
    }

    /// Tag byte plus zig-zag varint.
    #[inline(always)]
    pub(crate) fn tagged_varint64(&mut self, tag: u8, v: i64) {
        let (word, len) = tagged_varint64_word(tag, v);
        self.put(word, len);
    }

    /// `bytes`, copied exactly.
    #[inline(always)]
    pub(crate) fn put_slice(&mut self, bytes: &[u8]) {
        let end = self.pos + bytes.len();
        debug_assert!(end <= self.limit, "a store past the row's room");
        self.w.buf[self.pos..end].copy_from_slice(bytes);
        self.pos = end;
    }

    /// A cell of no fixed bound, appended at the cursor by the row
    /// encoder's writer; the rest of the row gets a row's room again.
    #[cold]
    #[inline(never)]
    pub(crate) fn append(&mut self, cell: impl FnOnce(&mut Writer)) {
        self.w.buf.truncate(self.pos);
        cell(&mut self.w);
        self.pos = self.w.buf.len();
        self.row();
    }

    /// The writer holding exactly the bytes stored.
    pub(crate) fn finish(mut self) -> Writer {
        self.w.buf.truncate(self.pos);
        self.w
    }
}

pub(crate) struct Reader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn u8(&mut self) -> Result<u8, FormatError> {
        self.fast_u8()
            .ok_or_else(|| FormatError::Corrupt("unexpected end of file".into()))
    }

    pub(crate) fn varint(&mut self) -> Result<i128, FormatError> {
        let mut z: u128 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            z |= ((byte & 0x7f) as u128) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 126 {
                return Err(FormatError::Corrupt("varint too long".into()));
            }
        }
        Ok(((z >> 1) as i128) ^ -((z & 1) as i128))
    }

    /// The ten bytes at the cursor, if there are ten.
    #[inline(always)]
    fn window(&self) -> Option<&[u8; 10]> {
        self.data.get(self.pos..)?.first_chunk()
    }

    /// u64-domain varint decode: consumes the same bytes and surfaces the
    /// same corruption errors as [`Reader::varint`]. `Ok(Err(wide))` means
    /// the encoded value was valid but outside `i64` — callers map it to
    /// their own range error exactly as they would the wide read.
    #[inline]
    pub(crate) fn varint64(&mut self) -> Result<Result<i64, i128>, FormatError> {
        if let Some((z, len)) = self.window().and_then(varint64_in) {
            self.pos += len;
            return Ok(Ok(unzigzag64(z)));
        }
        // Within ten bytes of the end of the buffer, longer than ten bytes
        // or wider than 64 bits: the wide reader, so out-of-range and
        // too-long cases are its own.
        let wide = self.varint()?;
        Ok(i64::try_from(wide).map_err(|_| wide))
    }

    // The fast path's readers. What one returns as `Some` is what its
    // careful twin above returns as `Ok`, having consumed the same bytes;
    // `None` says only that the careful reader must decide. Always
    // inlined and `Option`-typed, a cell's value comes back in registers.

    /// A byte.
    #[inline(always)]
    pub(crate) fn fast_u8(&mut self) -> Option<u8> {
        let b = *self.data.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// `N` raw payload bytes.
    #[inline(always)]
    pub(crate) fn fast_array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let chunk = *self.data.get(self.pos..)?.first_chunk()?;
        self.pos += N;
        Some(chunk)
    }

    /// A varint that fits `i64` in at most ten bytes.
    #[inline(always)]
    fn fast_varint64(&mut self) -> Option<i64> {
        let (z, len) = match self.window() {
            Some(window) => varint64_in(window)?,
            None => self.varint64_near_end()?,
        };
        self.pos += len;
        Some(unzigzag64(z))
    }

    /// The same decoder over the bytes left, padded with zeros: a zero
    /// byte ends a varint, so one that runs past the end reads as longer
    /// than what is left.
    #[cold]
    fn varint64_near_end(&self) -> Option<(u64, usize)> {
        let rest = &self.data[self.pos..];
        let mut window = [0u8; 10];
        window[..rest.len()].copy_from_slice(rest);
        varint64_in(&window).filter(|&(_, len)| len <= rest.len())
    }

    /// An integer cell of type `T`.
    #[inline(always)]
    pub(crate) fn fast_int<T: TryFrom<i64>>(&mut self) -> Option<T> {
        T::try_from(self.fast_varint64()?).ok()
    }

    /// A decimal's unscaled integer; one past `i64` is read out of line
    /// by the careful reader.
    #[inline(always)]
    pub(crate) fn fast_decimal(&mut self) -> Option<i128> {
        match self.fast_varint64() {
            Some(narrow) => Some(i128::from(narrow)),
            None => self.wide_decimal(),
        }
    }

    #[cold]
    #[inline(never)]
    fn wide_decimal(&mut self) -> Option<i128> {
        self.decimal().ok()
    }

    /// A length-prefixed run of bytes, borrowed.
    #[inline(always)]
    pub(crate) fn fast_run(&mut self) -> Option<&'a [u8]> {
        let n = usize::try_from(self.fast_varint64()?).ok()?;
        let run = self.data.get(self.pos..)?.get(..n)?;
        self.pos += n;
        Some(run)
    }

    /// A length-prefixed run of UTF-8, borrowed.
    #[inline(always)]
    pub(crate) fn fast_str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.fast_run()?).ok()
    }

    /// A length prefix; a value outside `usize` is corrupt.
    pub(crate) fn len(&mut self) -> Result<usize, FormatError> {
        let negative = |_| FormatError::Corrupt("negative length".into());
        match self.varint64()? {
            Ok(v) => usize::try_from(v).map_err(negative),
            Err(wide) => usize::try_from(wide).map_err(negative),
        }
    }

    /// An integer cell of type `T`; `what` names it in the range error.
    #[inline]
    pub(crate) fn int<T: TryFrom<i64>>(&mut self, what: &str) -> Result<T, FormatError> {
        self.varint64()?
            .ok()
            .and_then(|v| T::try_from(v).ok())
            .ok_or_else(|| FormatError::Corrupt(format!("{what} out of range")))
    }

    /// A decimal's unscaled integer: 64-bit decode, wide only past `i64`.
    #[inline]
    pub(crate) fn decimal(&mut self) -> Result<i128, FormatError> {
        Ok(match self.varint64()? {
            Ok(v) => i128::from(v),
            Err(wide) => wide,
        })
    }

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, FormatError> {
        let n = self.len()?;
        // `pos <= data.len()` always; `pos + n` can wrap on a hostile `n`.
        if n > self.data.len() - self.pos {
            return Err(FormatError::Corrupt("byte run past end".into()));
        }
        let out = self.data[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn str(&mut self) -> Result<String, FormatError> {
        String::from_utf8(self.bytes()?).map_err(|_| FormatError::Corrupt("invalid UTF-8".into()))
    }

    /// Reads `N` raw payload bytes at once; same EOF error as reading
    /// them one [`Reader::u8`] at a time.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], FormatError> {
        self.fast_array()
            .ok_or_else(|| FormatError::Corrupt("unexpected end of file".into()))
    }
}

pub(crate) fn write_type(w: &mut Writer, ty: &PhysicalType) {
    match ty {
        PhysicalType::Bool => w.u8(1),
        PhysicalType::Int8 => w.u8(2),
        PhysicalType::Int16 => w.u8(3),
        PhysicalType::Int32 => w.u8(4),
        PhysicalType::Int64 => w.u8(5),
        PhysicalType::Float32 => w.u8(6),
        PhysicalType::Float64 => w.u8(7),
        PhysicalType::Decimal => w.u8(8),
        PhysicalType::Utf8 => w.u8(9),
        PhysicalType::Bytes => w.u8(10),
        PhysicalType::List(e) => {
            w.u8(11);
            write_type(w, e);
        }
        PhysicalType::Map(k, v) => {
            w.u8(12);
            write_type(w, k);
            write_type(w, v);
        }
        PhysicalType::Struct(fields) => {
            w.u8(13);
            w.len(fields.len());
            for (name, fty) in fields {
                w.str(name);
                write_type(w, fty);
            }
        }
    }
}

/// Deepest `List`/`Map`/`Struct` nesting a file may declare or carry.
/// [`read_type`] and [`read_value_body`] recurse once per level, so an
/// unbounded file overflows the stack — an abort no `catch_unwind` turns
/// into an error. The generator and the corpus nest two levels at most.
const MAX_NESTING: usize = 64;

fn check_nesting(depth: usize) -> Result<(), FormatError> {
    if depth > MAX_NESTING {
        return Err(FormatError::Corrupt("nesting too deep".into()));
    }
    Ok(())
}

/// Reads a type whose enclosing types number `depth` (0 for a column's).
pub(crate) fn read_type(r: &mut Reader, depth: usize) -> Result<PhysicalType, FormatError> {
    check_nesting(depth)?;
    Ok(match r.u8()? {
        1 => PhysicalType::Bool,
        2 => PhysicalType::Int8,
        3 => PhysicalType::Int16,
        4 => PhysicalType::Int32,
        5 => PhysicalType::Int64,
        6 => PhysicalType::Float32,
        7 => PhysicalType::Float64,
        8 => PhysicalType::Decimal,
        9 => PhysicalType::Utf8,
        10 => PhysicalType::Bytes,
        11 => PhysicalType::List(Box::new(read_type(r, depth + 1)?)),
        12 => {
            let k = read_type(r, depth + 1)?;
            let v = read_type(r, depth + 1)?;
            PhysicalType::Map(Box::new(k), Box::new(v))
        }
        13 => {
            let n = r.len()?;
            let mut fields = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let name = r.str()?;
                let fty = read_type(r, depth + 1)?;
                fields.push((name, fty));
            }
            PhysicalType::Struct(fields)
        }
        t => return Err(FormatError::Corrupt(format!("unknown type tag {t}"))),
    })
}

pub(crate) fn write_value(w: &mut Writer, v: &PhysicalValue) {
    match v {
        PhysicalValue::Null => w.u8(0),
        PhysicalValue::Bool(b) => {
            w.u8(1);
            w.u8(*b as u8);
        }
        PhysicalValue::Int8(x) => w.tagged_varint64(2, i64::from(*x)),
        PhysicalValue::Int16(x) => w.tagged_varint64(3, i64::from(*x)),
        PhysicalValue::Int32(x) => w.tagged_varint64(4, i64::from(*x)),
        PhysicalValue::Int64(x) => w.tagged_varint64(5, *x),
        PhysicalValue::Float32(x) => {
            w.u8(6);
            w.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        PhysicalValue::Float64(x) => {
            w.u8(7);
            w.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        PhysicalValue::Decimal { unscaled, scale } => {
            w.tagged_decimal(*unscaled);
            w.u8(*scale);
        }
        PhysicalValue::Utf8(s) => {
            w.u8(9);
            w.str(s);
        }
        PhysicalValue::Bytes(b) => {
            w.u8(10);
            w.bytes(b);
        }
        PhysicalValue::List(items) => {
            w.u8(11);
            w.len(items.len());
            for item in items {
                write_value(w, item);
            }
        }
        PhysicalValue::Map(pairs) => {
            w.u8(12);
            w.len(pairs.len());
            for (k, val) in pairs {
                write_value(w, k);
                write_value(w, val);
            }
        }
        PhysicalValue::Struct(fields) => {
            w.u8(13);
            w.len(fields.len());
            for (name, val) in fields {
                w.str(name);
                write_value(w, val);
            }
        }
    }
}

/// Reads a value whose enclosing values number `depth` (0 for a cell).
pub(crate) fn read_value(r: &mut Reader, depth: usize) -> Result<PhysicalValue, FormatError> {
    let tag = r.u8()?;
    read_value_body(r, tag, depth)
}

/// Reads a value whose tag byte has already been consumed. Split out so the
/// columnar decoder in [`crate::batch`] can peek the tag, route primitive
/// payloads into typed buffers, and fall back here for nested values.
pub(crate) fn read_value_body(
    r: &mut Reader,
    tag: u8,
    depth: usize,
) -> Result<PhysicalValue, FormatError> {
    check_nesting(depth)?;
    Ok(match tag {
        0 => PhysicalValue::Null,
        1 => PhysicalValue::Bool(r.u8()? != 0),
        2 => PhysicalValue::Int8(r.int("int8")?),
        3 => PhysicalValue::Int16(r.int("int16")?),
        4 => PhysicalValue::Int32(r.int("int32")?),
        5 => PhysicalValue::Int64(r.int("int64")?),
        6 => PhysicalValue::Float32(f32::from_bits(u32::from_le_bytes(r.array()?))),
        7 => PhysicalValue::Float64(f64::from_bits(u64::from_le_bytes(r.array()?))),
        8 => {
            let unscaled = r.decimal()?;
            let scale = r.u8()?;
            PhysicalValue::Decimal { unscaled, scale }
        }
        9 => PhysicalValue::Utf8(r.str()?),
        10 => PhysicalValue::Bytes(r.bytes()?),
        11 => {
            let n = r.len()?;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(read_value(r, depth + 1)?);
            }
            PhysicalValue::List(items)
        }
        12 => {
            let n = r.len()?;
            let mut pairs = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let k = read_value(r, depth + 1)?;
                let v = read_value(r, depth + 1)?;
                pairs.push((k, v));
            }
            PhysicalValue::Map(pairs)
        }
        13 => {
            let n = r.len()?;
            let mut fields = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let name = r.str()?;
                let v = read_value(r, depth + 1)?;
                fields.push((name, v));
            }
            PhysicalValue::Struct(fields)
        }
        t => return Err(FormatError::Corrupt(format!("unknown value tag {t}"))),
    })
}

pub(crate) const VERSION: u8 = 1;

/// Writes the file prelude: magic, version, schema, and metadata. Shared by
/// the row encoder and the columnar [`crate::batch`] encoder so both emit
/// byte-identical headers.
pub(crate) fn write_header(w: &mut Writer, rules: &FormatRules, schema: &FileSchema) {
    w.buf.extend_from_slice(rules.magic);
    w.u8(VERSION);
    w.len(schema.columns.len());
    for col in &schema.columns {
        w.str(&col.name);
        write_type(w, &col.ty);
        match &col.logical {
            Some(l) => {
                w.u8(1);
                w.str(l);
            }
            None => w.u8(0),
        }
    }
    w.len(schema.meta.len());
    for (k, v) in &schema.meta {
        w.str(k);
        w.str(v);
    }
}

/// Validates magic and footer, returning a reader positioned after the
/// leading magic with the footer stripped.
pub(crate) fn open_reader<'a>(
    rules: &FormatRules,
    data: &'a [u8],
) -> Result<Reader<'a>, FormatError> {
    if data.len() < 8 || &data[..4] != rules.magic {
        return Err(FormatError::WrongMagic {
            expected: std::str::from_utf8(rules.magic).unwrap_or("????"),
        });
    }
    if &data[data.len() - 4..] != rules.magic {
        return Err(FormatError::Corrupt("missing footer magic".into()));
    }
    Ok(Reader {
        data: &data[..data.len() - 4],
        pos: 4,
    })
}

/// Reads the version byte, schema, and metadata (the counterpart of
/// [`write_header`] minus the magic, which [`open_reader`] consumed).
pub(crate) fn read_header(r: &mut Reader) -> Result<FileSchema, FormatError> {
    let version = r.u8()?;
    if version != VERSION {
        return Err(FormatError::Corrupt(format!("unknown version {version}")));
    }
    let ncols = r.len()?;
    let mut columns = Vec::with_capacity(ncols.min(1 << 12));
    for _ in 0..ncols {
        let name = r.str()?;
        let ty = read_type(r, 0)?;
        let logical = if r.u8()? == 1 { Some(r.str()?) } else { None };
        columns.push(PhysicalColumn { name, ty, logical });
    }
    let nmeta = r.len()?;
    let mut meta = crate::physical::FileMeta::new();
    for _ in 0..nmeta {
        let k = r.str()?;
        let v = r.str()?;
        meta.insert(k, v);
    }
    Ok(FileSchema { columns, meta })
}

/// Reads the row count that follows the header. Rows of a zero-column
/// file occupy no bytes, so nothing in the file bounds their number: a
/// nonzero count there is corrupt (and a [`crate::batch::RecordBatch`]
/// could not hold it anyway — its length is its first column's).
pub(crate) fn read_row_count(r: &mut Reader, ncols: usize) -> Result<usize, FormatError> {
    let nrows = r.len()?;
    if ncols == 0 && nrows > 0 {
        return Err(FormatError::Corrupt("rows without columns".into()));
    }
    Ok(nrows)
}

/// Encodes a file under the given format rules.
pub fn encode(
    rules: &FormatRules,
    schema: &FileSchema,
    rows: &[Vec<PhysicalValue>],
) -> Result<Vec<u8>, FormatError> {
    rules.check_schema(schema)?;
    for row in rows {
        if row.len() != schema.columns.len() {
            return Err(FormatError::Corrupt(format!(
                "row has {} values for {} columns",
                row.len(),
                schema.columns.len()
            )));
        }
        for (col, value) in schema.columns.iter().zip(row) {
            if !value_matches(&col.ty, value) {
                return Err(FormatError::TypeMismatch {
                    column: col.name.clone(),
                    declared: col.ty.clone(),
                    found: format!("{value:?}"),
                });
            }
        }
    }
    let mut w = Writer { buf: Vec::new() };
    write_header(&mut w, rules, schema);
    w.len(rows.len());
    for row in rows {
        for value in row {
            write_value(&mut w, value);
        }
    }
    w.buf.extend_from_slice(rules.magic);
    Ok(w.buf)
}

/// Decodes a file under the given format rules.
pub fn decode(
    rules: &FormatRules,
    data: &[u8],
) -> Result<(FileSchema, Vec<Vec<PhysicalValue>>), FormatError> {
    let mut r = open_reader(rules, data)?;
    let schema = read_header(&mut r)?;
    let ncols = schema.columns.len();
    let nrows = read_row_count(&mut r, ncols)?;
    let mut rows = Vec::with_capacity(nrows.min(1 << 20));
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(read_value(&mut r, 0)?);
        }
        rows.push(row);
    }
    Ok((schema, rows))
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
                PhysicalValue::Map(vec![(
                    PhysicalValue::Int32(1),
                    PhysicalValue::Utf8("one".into()),
                )]),
            ],
            vec![
                PhysicalValue::Null,
                PhysicalValue::Null,
                PhysicalValue::Null,
            ],
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        let bytes = encode(&RULES, &sample_schema(), &sample_rows()).unwrap();
        let (schema, rows) = decode(&RULES, &bytes).unwrap();
        assert_eq!(schema, sample_schema());
        assert_eq!(rows, sample_rows());
    }

    #[test]
    fn varint_extremes_round_trip() {
        let schema = FileSchema::of(vec![("x", PhysicalType::Decimal)]);
        let rows = vec![
            vec![PhysicalValue::Decimal {
                unscaled: i128::MAX / 2,
                scale: 38,
            }],
            vec![PhysicalValue::Decimal {
                unscaled: i128::MIN / 2,
                scale: 0,
            }],
        ];
        let bytes = encode(&RULES, &schema, &rows).unwrap();
        let (_, back) = decode(&RULES, &bytes).unwrap();
        assert_eq!(back, rows);
    }

    /// What the wide reader says of `bytes`, in the 64-bit reader's terms.
    fn wide(bytes: &[u8]) -> (Result<Result<i64, i128>, FormatError>, usize) {
        let mut r = Reader {
            data: bytes,
            pos: 0,
        };
        let v = r.varint().map(|w| i64::try_from(w).map_err(|_| w));
        (v, r.pos)
    }

    fn narrow(bytes: &[u8]) -> (Result<Result<i64, i128>, FormatError>, usize) {
        let mut r = Reader {
            data: bytes,
            pos: 0,
        };
        let v = r.varint64();
        (v, r.pos)
    }

    #[test]
    fn varint64_is_varint_at_every_length_and_at_the_end_of_the_buffer() {
        let mut values = vec![0i64, -1, i64::MIN, i64::MAX];
        for bits in 0..63 {
            values.extend([
                1i64 << bits,
                (1i64 << bits) - 1,
                -(1i64 << bits),
                -(1i64 << bits) - 1,
            ]);
        }
        for v in values {
            let mut w = Writer { buf: Vec::new() };
            w.varint(v as i128);
            let len = w.buf.len();
            // With nothing, a little, and plenty after it: the fast path
            // needs ten bytes in hand, the slow one takes what there is.
            for pad in [0usize, 1, 9, 16] {
                let mut bytes = w.buf.clone();
                bytes.resize(len + pad, 0xff);
                assert_eq!(narrow(&bytes), (Ok(Ok(v)), len), "{v} padded by {pad}");
                assert_eq!(narrow(&bytes), wide(&bytes));
            }
            for cut in 0..len {
                assert_eq!(
                    narrow(&w.buf[..cut]),
                    wide(&w.buf[..cut]),
                    "{v} cut at {cut}"
                );
            }
        }
    }

    /// Overlong, over-wide and unterminated varints: every count of
    /// continuation bytes up to past the wide reader's limit, every byte
    /// after them, with and without room for the fast path.
    #[test]
    fn varint64_is_varint_on_every_terminator_after_every_run() {
        for fill in [0x80u8, 0xff, 0xd5] {
            for run in 0..=20 {
                for last in 0..=255u8 {
                    for pad in [0usize, 12] {
                        let mut bytes = vec![fill; run];
                        bytes.push(last);
                        bytes.resize(run + 1 + pad, 0x01);
                        assert_eq!(
                            narrow(&bytes),
                            wide(&bytes),
                            "{fill:#x} x {run}, then {last:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn float_bit_patterns_survive() {
        let schema = FileSchema::of(vec![("f", PhysicalType::Float64)]);
        let rows = vec![
            vec![PhysicalValue::Float64(f64::NAN)],
            vec![PhysicalValue::Float64(-0.0)],
            vec![PhysicalValue::Float64(f64::INFINITY)],
        ];
        let bytes = encode(&RULES, &schema, &rows).unwrap();
        let (_, back) = decode(&RULES, &bytes).unwrap();
        match &back[0][0] {
            PhysicalValue::Float64(v) => assert!(v.is_nan()),
            other => panic!("{other:?}"),
        }
        match &back[1][0] {
            PhysicalValue::Float64(v) => assert!(v.is_sign_negative() && *v == 0.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn encode_rejects_type_mismatches() {
        let schema = FileSchema::of(vec![("a", PhysicalType::Int32)]);
        let rows = vec![vec![PhysicalValue::Utf8("oops".into())]];
        assert!(matches!(
            encode(&RULES, &schema, &rows),
            Err(FormatError::TypeMismatch { .. })
        ));
        let short = vec![vec![]];
        assert!(matches!(
            encode(&RULES, &schema, &short),
            Err(FormatError::Corrupt(_))
        ));
    }

    #[test]
    fn rules_reject_unsupported_types() {
        let strict = FormatRules {
            name: "strict",
            magic: b"STR1",
            allows_small_ints: false,
            allows_non_string_map_keys: false,
        };
        let schema = FileSchema::of(vec![("a", PhysicalType::Int8)]);
        assert!(matches!(
            encode(&strict, &schema, &[]),
            Err(FormatError::UnsupportedType { .. })
        ));
        let schema = FileSchema::of(vec![(
            "m",
            PhysicalType::Map(Box::new(PhysicalType::Int32), Box::new(PhysicalType::Utf8)),
        )]);
        let err = encode(&strict, &schema, &[]).unwrap_err();
        assert!(matches!(err, FormatError::UnsupportedType { .. }));
        assert!(err.to_string().contains("map keys must be strings"));
    }

    #[test]
    fn decode_rejects_corruption() {
        let bytes = encode(&RULES, &sample_schema(), &sample_rows()).unwrap();
        // Wrong magic.
        assert!(matches!(
            decode(&RULES, b"XXXXrest"),
            Err(FormatError::WrongMagic { .. })
        ));
        // Truncated body.
        assert!(decode(&RULES, &bytes[..bytes.len() / 2]).is_err());
        // Footer clipped.
        let mut clipped = bytes.clone();
        clipped.pop();
        assert!(decode(&RULES, &clipped).is_err());
    }

    #[test]
    fn deeply_nested_values_round_trip() {
        let inner = PhysicalType::Struct(vec![(
            "xs".into(),
            PhysicalType::List(Box::new(PhysicalType::Int8)),
        )]);
        let schema = FileSchema::of(vec![("s", inner)]);
        let rows = vec![vec![PhysicalValue::Struct(vec![(
            "xs".into(),
            PhysicalValue::List(vec![PhysicalValue::Int8(-5), PhysicalValue::Null]),
        )])]];
        let bytes = encode(&RULES, &schema, &rows).unwrap();
        let (_, back) = decode(&RULES, &bytes).unwrap();
        assert_eq!(back, rows);
    }
}
