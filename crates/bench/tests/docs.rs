//! The `paper` output EXPERIMENTS.md quotes, regenerated: each quoted
//! block is found in its invocation's stdout, and each invocation's
//! stdout is pinned by digest, so a change to what `paper` prints is a
//! digest edit that says so.
//!
//! A block matches when its lines, trimmed, appear in the output in
//! order and back to back, except where the block elides: a `...` line
//! stands for any run of output lines, and a line ending in `(...)`
//! matches any output line that starts with the text before it.

use csi_core::hash::fnv1a;
use std::process::Command;

/// Each quoted invocation, its stdout digest, and the sentences that
/// introduce its blocks in EXPERIMENTS.md: each block is the first fenced
/// block after its sentence.
const QUOTED: [(&[&str], u64, &[&str]); 6] = [
    (
        &["kfault", "42", "96", "4"],
        0xf1d1_b920_aadd_6a65,
        &["`paper kfault 42 96 4` ends with:"],
    ),
    (
        &["matrix", "42", "2"],
        0x8bdd_7a0f_7083_0c04,
        &[
            "prints every cell followed by the bucket totals.",
            "The same `paper matrix 42 2` run judges",
        ],
    ),
    (
        &["section8"],
        0xc623_4e88_cf39_3e35,
        &[
            "per-channel totals over all 10,128 observations:",
            "each stamped with the virtual-clock time it crossed:",
        ],
    ),
    (
        &["explore", "42", "400", "4"],
        0x3201_6ace_66e3_551a,
        &["budget, `paper explore 42 400 4`:"],
    ),
    (
        &["explore", "42", "6000", "4"],
        0x05c1_0a41_7b69_d3ca,
        &["and with room to find everything, `paper explore 42 6000 4`:"],
    ),
    (
        &["corpus", "42", "400", "4"],
        0x406b_6746_5811_5611,
        &["`paper corpus 42 400 4`:"],
    ),
];

/// The lines of the first fenced block after `anchor` in `doc`.
fn block_after<'a>(doc: &'a str, anchor: &str) -> Vec<&'a str> {
    let at = doc
        .find(anchor)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md no longer says {anchor:?}"));
    let mut lines = doc[at..].lines().skip_while(|l| !l.starts_with("```"));
    lines.next().expect("a fenced block follows");
    let block: Vec<&str> = lines.take_while(|l| !l.starts_with("```")).collect();
    assert!(!block.is_empty(), "the block after {anchor:?} is empty");
    block
}

/// Whether `quoted` appears in `output`, trimmed, back to back but for
/// its elisions.
fn quotes(output: &[&str], quoted: &[&str]) -> bool {
    let matches = |out: &str, want: &str| match want.strip_suffix("(...)") {
        Some(prefix) => out.starts_with(prefix.trim_end()),
        None => out == want,
    };
    (0..output.len()).any(|start| {
        let mut at = start;
        let mut gap = false;
        for want in quoted.iter().map(|l| l.trim()) {
            if want == "..." {
                gap = true;
                continue;
            }
            let hit = if gap {
                (at..output.len()).find(|&i| matches(output[i], want))
            } else {
                (at < output.len() && matches(output[at], want)).then_some(at)
            };
            let Some(i) = hit else { return false };
            (at, gap) = (i + 1, false);
        }
        true
    })
}

#[test]
fn every_block_experiments_md_quotes_is_what_paper_prints() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    for (args, digest, anchors) in QUOTED {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(args)
            .output()
            .expect("paper runs");
        let invocation = format!("paper {}", args.join(" "));
        assert!(out.status.success(), "{invocation} failed");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let output: Vec<&str> = stdout.lines().map(str::trim).collect();
        for anchor in anchors {
            let quoted = block_after(doc, anchor);
            assert!(
                quotes(&output, &quoted),
                "{invocation} no longer prints the block after {anchor:?}:\n{}\n--- stdout:\n{stdout}",
                quoted.join("\n")
            );
        }
        assert_eq!(
            fnv1a(stdout.as_bytes()),
            digest,
            "{invocation} printed new bytes:\n{stdout}"
        );
    }
}

#[test]
fn elisions_match_any_run_and_nothing_else_does() {
    let output = ["a", "b (x)", "c", "d", "e"];
    assert!(quotes(&output, &["b (...)", "c"]));
    assert!(quotes(&output, &["a", "...", "d", "e"]));
    // Without an elision the lines are consecutive, and in order.
    assert!(!quotes(&output, &["a", "c"]));
    assert!(!quotes(&output, &["c", "b (x)"]));
    assert!(!quotes(&output, &["a", "...", "f"]));
}
