//! `minihive` — a warehouse substrate modeled on Apache Hive.
//!
//! Provides the downstream half of the Section 8 cross-testing case study:
//!
//! - a **metastore** holding the `default` database's tables, with
//!   case-insensitive schemas (Hive lower-cases column names — one half of
//!   the case-sensitivity discrepancies HIVE-26533 / SPARK-40409);
//! - a **HiveQL interface** interpreting the shared SQL grammar under Hive's
//!   lenient coercion rules (invalid values become NULL with a log line,
//!   rather than raising — one half of the inconsistent-error
//!   discrepancies);
//! - a **SerDe layer** over the three container formats of `miniformats`
//!   with Hive's conversions: logical-type annotations for widened small
//!   integers, declared-scale decimals validated on read, and
//!   Julian-rebased Parquet timestamps (the substrate of SPARK-39075,
//!   SPARK-39158, HIVE-26531, HIVE-26528).
//!
//! Every rule implemented here matches Hive's documented behavior; the CSI
//! discrepancies arise only in combination with `minispark`.

pub mod error;
pub mod hbase_handler;
pub mod hiveql;
pub mod metastore;
pub mod serde_layer;
pub mod types;
pub mod value;

pub use error::HiveError;
pub use hiveql::HiveQl;
pub use metastore::{ColumnDef, Metastore, SharedFs, StorageFormat, TableDef};
pub use types::HiveType;
