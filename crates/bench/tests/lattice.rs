//! `paper lattice` on the reduced lattice of the paper's four keys
//! (`storeAssignmentPolicy`, `charVarcharAsString`, `intervalAsString`,
//! `dateRangeCheck`: 24 configurations, the other two keys at their
//! defaults), pinned by digest. The full six-key lattice is 216 grids,
//! too slow for an unoptimised test build; EXPERIMENTS.md quotes it.

use csi_core::hash::fnv1a;
use std::process::Command;

#[test]
fn the_four_key_lattice_holds_its_committed_digest() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["lattice", "4", "2"])
        .output()
        .expect("paper runs");
    assert!(out.status.success(), "paper lattice failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        stdout.contains("resolved by some configuration: 8/15; by the paper's one: 8/15"),
        "{stdout}"
    );
    assert_eq!(fnv1a(stdout.as_bytes()), 0xad6c_35bf_f8ac_4f27, "{stdout}");
}
