//! `csi-bench` — table/figure regeneration and report binaries.
//!
//! The `paper <name>` binary regenerates each paper table, figure and
//! artefact (see DESIGN.md's per-experiment index); the other binaries
//! print one `BENCH_<bin> {…}` summary line each and assert their own
//! invariants. Nothing here is a stopwatch: how fast the bench is, and
//! whether a change moved that, is `benchmark/`'s job (`BENCHMARK.json`).

pub mod tables;
