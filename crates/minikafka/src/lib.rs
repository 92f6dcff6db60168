//! `minikafka` — a partitioned log/stream substrate modeled on Kafka.
//!
//! Implements the data-plane surface behind the streaming CSI failures in
//! the study: topics with partitions, append-only logs, consumer-group
//! rebalancing, **log compaction** and **transaction markers** — the two
//! mechanisms that make offsets non-contiguous and break the "offsets
//! always increment by 1" assumption of SPARK-19361.

pub mod broker;
pub mod error;
pub mod groups;

pub use broker::{ConsumerRecord, MiniKafka, Offset, PartitionId, RecordBatch};
pub use error::KafkaError;
pub use groups::{GroupCoordinator, Membership};
