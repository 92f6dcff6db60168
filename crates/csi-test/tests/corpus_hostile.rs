//! Hostile streams at `corpus::infer`'s front door: a few kilobytes that
//! once became a table of tens of millions of cells — ragged CSV rows
//! padded to the widest, JSON-lines key sets unioned — over tens of
//! seconds and gigabytes. Each must come back as a typed `InferError`
//! before the table is built. Seeds for the byte mutator's corpus
//! (ROADMAP item 1), beside `miniformats/tests/hostile.rs`.
//!
//! One `#[test]` on purpose: the allocation bound is read from the
//! process-wide `VmPeak`, so no other test may run beside it in this
//! binary.

use csi_test::corpus::{infer, InferError, MAX_CELLS, MAX_COLUMNS, MAX_ROWS};
use std::time::{Duration, Instant};

/// Header `a`, one row of `width - 1` commas, `rows - 1` one-cell rows.
fn ragged_csv(width: usize, rows: usize) -> Vec<u8> {
    let mut out = String::from("a\n");
    out.push_str(&",".repeat(width - 1));
    out.push('\n');
    out.push_str(&"1\n".repeat(rows - 1));
    out.into_bytes()
}

/// One object per line, each under a key no other line has.
fn fresh_key_json(lines: usize) -> Vec<u8> {
    (0..lines)
        .map(|i| format!("{{\"k{i}\":1}}\n"))
        .collect::<String>()
        .into_bytes()
}

/// Peak virtual size of this process in bytes (0 where `/proc` is absent,
/// which voids the bound and keeps the verdict checks).
fn vm_peak() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmPeak:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

#[test]
fn amplifying_streams_are_refused_not_built() {
    let csv = ragged_csv(8_001, 8_001);
    assert_eq!(csv.len(), 24_003);
    let json = fresh_key_json(4_000);
    assert_eq!(json.len(), 46_890);
    let cases: Vec<(&str, Vec<u8>, InferError)> = vec![
        (
            "8,001 x 8,001 from 24 KB of commas and newlines",
            csv,
            InferError::TooManyColumns(8_001),
        ),
        (
            "2,000 x 2,000: each side in bounds, the product not",
            ragged_csv(2_000, 2_000),
            InferError::TooManyCells {
                rows: 2_000,
                columns: 2_000,
            },
        ),
        (
            "one column, more rows than a table may hold",
            ragged_csv(1, MAX_ROWS + 2),
            InferError::TooManyRows(MAX_ROWS + 1),
        ),
        (
            "4,000 x 4,000 from a fresh key per JSON line",
            json,
            InferError::TooManyCells {
                rows: 4_000,
                columns: MAX_CELLS / 4_000 + 1,
            },
        ),
        (
            "one JSON object of more keys than a table has columns",
            format!(
                "{{{}}}\n",
                (0..=MAX_COLUMNS)
                    .map(|i| format!("\"k{i}\":1"))
                    .collect::<Vec<_>>()
                    .join(",")
            )
            .into_bytes(),
            InferError::TooManyColumns(MAX_COLUMNS + 1),
        ),
    ];
    for (what, bytes, expected) in cases {
        let (before, started) = (vm_peak(), Instant::now());
        assert_eq!(infer(&bytes).expect_err(what), expected, "{what}");
        let (grew, took) = (vm_peak() - before, started.elapsed());
        assert!(
            grew < 64 << 20,
            "{what}: VmPeak grew {} MiB for a {}-byte stream",
            grew >> 20,
            bytes.len()
        );
        assert!(took < Duration::from_secs(2), "{what}: took {took:?}");
    }
    // The widest and the longest table the bounds admit still infer (and
    // the JSON case above was let through at 262 columns, the last product
    // within `MAX_CELLS`).
    let widest = infer(&ragged_csv(MAX_COLUMNS, 2)).expect("widest table");
    assert_eq!(widest.columns.len(), MAX_COLUMNS);
    let longest = infer(&ragged_csv(1, MAX_ROWS + 1)).expect("longest table");
    assert_eq!(longest.columns[0].cells.len(), MAX_ROWS);
}
