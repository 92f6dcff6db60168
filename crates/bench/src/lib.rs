//! `csi-bench` — benchmark and table/figure regeneration harness.
//!
//! The `paper <name>` binary regenerates each paper table/figure (see
//! DESIGN.md's per-experiment index), beside report binaries and Criterion
//! benches over the cross-testing harness and the simulators.

pub mod tables;
pub mod trajectory;
