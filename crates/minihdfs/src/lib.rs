//! `minihdfs` — an in-memory distributed file system substrate.
//!
//! A faithful miniature of HDFS as seen by upstream systems (Spark, Hive,
//! Flink, HBase, YARN): a namenode namespace with directories and files,
//! block-based storage with replication across simulated datanodes, safe
//! mode, delegation tokens, directory quotas, and — crucially for the CSI
//! study — **custom, non-POSIX file properties**.
//!
//! The custom properties reproduce the discrepancy mechanics from the paper:
//!
//! - compressed files report a *length of `-1`* through [`FileStatus::len`],
//!   the undefined value behind SPARK-27239 (Figure 2);
//! - files carry a locality flag (local vs. remote storage), the property
//!   behind FLINK-13758;
//! - delegation tokens expire on the (manually advanced) namenode clock,
//!   the mechanic behind YARN-2790;
//! - the namenode starts in *safe mode*, the state behind HBASE-537.
//!
//! Every behavior here is correct per HDFS's own specification; failures
//! arise only when an upstream makes a discrepant assumption.

pub mod error;
pub mod fs;
pub mod path;
mod token;

pub use error::HdfsError;
pub use fs::{DataNodeId, FileBytes, FileProperties, FileStatus, Locality, MiniHdfs};
pub use path::HdfsPath;
pub use token::{DelegationToken, TokenId};
