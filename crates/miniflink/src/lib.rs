//! `miniflink` — a stream-processing substrate modeled on Apache Flink.
//!
//! Provides the upstream half of the control- and management-plane figures:
//!
//! - a **YARN resource driver** with both a synchronous (buggy, FLINK-12342)
//!   and an asynchronous (fixed) container-request loop, plus the two
//!   intermediate workarounds of Figure 5, stepped heartbeat by heartbeat
//!   on a virtual millisecond clock so every run replays exactly;
//! - a **resource calculator** that reads YARN's `minimum-allocation` keys
//!   to predict container sizes — correct under the CapacityScheduler,
//!   discrepant under the FairScheduler (FLINK-19141, Figure 3);
//! - a **JobManager memory model** whose JVM overhead can exceed the
//!   container allocation and get killed by YARN's pmem monitor (FLINK-887);
//! - a **Kafka source** whose partition discovery must run in a cluster
//!   context (FLINK-4155) and a **Hive catalog connector** that drops the
//!   PROCTIME marker on TIMESTAMP round-trips (FLINK-17189).

pub mod hive_catalog;
pub mod jobmanager;
pub mod kafka_source;
pub mod yarn_driver;

pub use jobmanager::{JobManagerSpec, LaunchOutcome, MemoryModel, SizingPolicy};
pub use yarn_driver::{run_driver, DriverMode, DriverRun, DriverStats};
