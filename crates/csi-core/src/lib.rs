//! Core library for studying and testing cross-system interaction (CSI) failures.
//!
//! This crate is the reusable heart of the reproduction of *"Fail through the
//! Cracks: Cross-System Interaction Failures in Modern Cloud Systems"*
//! (EuroSys '23). It provides:
//!
//! - the paper's failure **taxonomy** ([`plane`], [`taxonomy`]): interaction
//!   planes, symptoms, discrepancy patterns, and fix patterns;
//! - a cross-system **value model** ([`value`]) with a rich SQL-style type
//!   system used as the lingua franca of the differential testing harness;
//! - the three **test oracles** of Section 8 ([`oracle`]): write–read, error
//!   handling, and differential;
//! - **discrepancy reports** ([`report`]) mirroring the artifact's
//!   `*failed.json` output;
//! - an **online CSI failure detector** ([`detect`]) that judges each
//!   observation's boundary-crossing trace as it closes and emits typed
//!   detections, cross-checked against the offline §9 oracle;
//! - **coverage signatures** ([`coverage`]) distilled from interaction
//!   traces, the feedback signal of the coverage-guided campaign mode;
//! - a provenance-tracking **configuration plane** ([`config`]) that makes
//!   cross-system configuration merges and overrides observable;
//! - a small **SQL frontend** ([`sql`]) shared by the simulated systems, with
//!   per-system dialect hooks;
//! - a capturable **diagnostic sink** ([`diag`]) so oracles can observe
//!   warnings emitted by either side of an interaction;
//! - **machine-checkable data contracts** ([`spec`]) with breaking-change
//!   diffing, and a **configuration audit** ([`audit`]) over the
//!   provenance-tracked config plane — the Section 10 directions
//!   implemented as reusable tools.
//!
//! The simulated systems (`minispark`, `minihive`, `minihdfs`, `miniyarn`,
//! `minikafka`, `miniflink`) build on these primitives; the `csi-test` crate
//! composes them into the Spark–Hive cross-testing tool of Section 8 and the
//! `csi-study` crate encodes the 120-case failure dataset of Sections 3–7.

pub mod audit;
pub mod boundary;
pub mod column;
pub mod config;
pub mod coverage;
pub mod detect;
pub mod diag;
pub mod error;
pub mod fault;
pub mod hash;
pub mod oracle;
pub mod plane;
pub mod report;
pub mod rng;
pub mod spec;
pub mod sql;
pub mod taxonomy;
pub mod value;

pub use column::{ColumnValues, Validity, ValueColumn};
pub use error::{ErrorKind, InteractionError};
pub use plane::{InteractionKind, Plane};
pub use value::{DataType, Decimal, StructField, Value};
