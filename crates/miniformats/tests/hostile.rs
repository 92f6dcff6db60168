//! Hostile files at the decoders' front door: each byte string below once
//! panicked, aborted or over-allocated a decoder, and must now come back
//! as `FormatError::Corrupt` — the same one — from the row reference and
//! the columnar decoder of every format. These are the first seeds of the byte
//! mutator's corpus (ROADMAP item 1).
//!
//! One `#[test]` on purpose: the allocation bound is read from the
//! process-wide `VmPeak`, so no other test may run beside it in this
//! binary.

use miniformats::{avro, orc, parquet, FormatError};

/// Zig-zag LEB128, as `wire::Writer::varint` writes a non-negative value.
fn varint(v: u128) -> Vec<u8> {
    let mut z = v << 1;
    let mut out = Vec::new();
    loop {
        let byte = (z & 0x7f) as u8;
        z >>= 7;
        if z == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// `magic ++ [VERSION] ++ body ++ magic`.
fn file(magic: &[u8; 4], body: &[u8]) -> Vec<u8> {
    [magic, &[1u8][..], body, magic].concat()
}

/// The bodies (everything between the version byte and the footer).
fn hostile_bodies() -> Vec<(&'static str, Vec<u8>)> {
    // A one-column header up to and including the column's name.
    let one_column_named_c = [varint(1), varint(1), b"c".to_vec()].concat();
    let wide_header: Vec<u8> = std::iter::once(varint(300))
        .chain((0..300).map(|_| [&varint(1)[..], b"d", &[8, 0]].concat()))
        .chain([varint(0), varint(1 << 40)])
        .flatten()
        .collect();
    vec![
        (
            "a column name of usize::MAX bytes (`pos + n` wrapped)",
            [varint(1), varint(usize::MAX as u128)].concat(),
        ),
        (
            "a struct of 2^60 fields (capacity overflow)",
            [&one_column_named_c[..], &[13], &varint(1 << 60)].concat(),
        ),
        (
            "200,000 nested list tags (stack overflow)",
            [&one_column_named_c[..], &[11; 200_000]].concat(),
        ),
        (
            "300 decimal columns x 2^40 rows, none present (5 GiB reserved)",
            wide_header,
        ),
        (
            "no columns x 2^40 rows (24 B reserved per claimed row, or a spin)",
            [varint(0), varint(0), varint(1 << 40)].concat(),
        ),
    ]
}

/// Peak virtual size of this process in bytes (0 where `/proc` is absent,
/// which voids the bound and keeps the `Corrupt` checks).
fn vm_peak() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmPeak:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// A decoder with its output dropped: only the verdict matters here.
type Decode = fn(&[u8]) -> Result<(), FormatError>;

/// Each format's name, magic, row reference decoder and columnar decoder.
const FORMATS: [(&str, &[u8; 4], Decode, Decode); 3] = [
    (
        "orc",
        orc::RULES.magic,
        |b| orc::decode(b).map(drop),
        |b| orc::decode_batch(b).map(drop),
    ),
    (
        "parquet",
        parquet::RULES.magic,
        |b| parquet::decode(b).map(drop),
        |b| parquet::decode_batch(b).map(drop),
    ),
    (
        "avro",
        avro::RULES.magic,
        |b| avro::decode(b).map(drop),
        |b| avro::decode_batch(b).map(drop),
    ),
];

#[test]
fn hostile_files_are_corrupt_not_fatal() {
    for (what, body) in hostile_bodies() {
        for (format, magic, decode, decode_batch) in FORMATS {
            let bytes = file(magic, &body);
            let before = vm_peak();
            let (row, batch) = (decode(&bytes), decode_batch(&bytes));
            for (plane, verdict) in [("row", &row), ("batch", &batch)] {
                assert!(
                    matches!(verdict, Err(FormatError::Corrupt(_))),
                    "{format} {plane} decoder on {what}: {verdict:?}"
                );
            }
            assert_eq!(batch, row, "{format} on {what}: the two decoders' errors");
            let grew = vm_peak() - before;
            assert!(
                grew < 64 << 20,
                "{format} on {what}: VmPeak grew {} MiB for a {}-byte file",
                grew >> 20,
                bytes.len()
            );
        }
    }
}
