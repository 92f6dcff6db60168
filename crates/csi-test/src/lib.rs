//! `csi-test` — the cross-system testing tool of Section 8.
//!
//! Composes `minispark` and `minihive` into the test setup of Figure 6:
//! inputs generated per data type (valid and invalid), written and read back
//! through every interface pair (SparkSQL, DataFrame, HiveQL) and storage
//! format (ORC, Parquet, Avro), checked by the write–read, error-handling,
//! and differential oracles, and classified into distinct discrepancies.
//!
//! The modes ([`shard`]'s grid, [`inject`]'s fault matrix, [`explore`],
//! [`multi`]'s compound pass) decide what runs and in what order; how a
//! trial is judged lives in [`classify`], the only module that runs an
//! oracle or attributes a failure (DESIGN.md, "Where a trial is judged").
//!
//! Beyond the exhaustive grid, [`Campaign::explore`] runs the same space
//! coverage-guided: boundary-crossing traces become coverage signatures,
//! novel inputs seed a mutating corpus, and every reported discrepancy is
//! shrunk ([`shrink`]) to a minimal reproducer.

pub mod bulk;
pub mod campaign;
pub mod classify;
pub mod contracts;
pub mod corpus;
pub mod exec;
pub mod explore;
pub mod generator;
pub mod inject;
pub mod multi;
pub mod plan;
pub mod shard;
pub mod shrink;
pub mod spec;
pub mod tolerate;

pub use bulk::BulkReport;
pub use campaign::{Campaign, CampaignOutcome, Evidence, Finding};
pub use classify::active_ids;
pub use corpus::{infer, synthesize, synthesize_inputs, CorpusShape, CorpusTable, InferredTable};
pub use exec::custom_resolving_overrides;
pub use generator::{generate_inputs, mutate_input, TestInput, Validity};
pub use inject::{fault_catalogue, small_fault_catalogue, FaultCase, FaultMatrixReport};
pub use multi::InterleaveSchedule;
pub use plan::{Experiment, Interface, TestPlan};
pub use shard::{CampaignMetrics, WorkerStats};
pub use shrink::{reproducer_triggers, Reproducer, ShrunkReproducer};
pub use spec::{
    CampaignSpec, InputSelection, SpecError, MAX_JOBS, MAX_KFAULTS, MAX_OVERRIDES,
    MAX_OVERRIDE_BYTES, MAX_SHARDS,
};
pub use tolerate::{redundant_read, redundant_read_traced, ReadPath, RedundantRead};
