//! Errors raised by the minikafka broker.

use csi_core::fault::{Channel, FaultKind, FaultPoint, InjectedFault};
use csi_core::{ErrorKind, InteractionError};
use std::fmt;

/// Error type of minikafka operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KafkaError {
    /// The topic does not exist.
    UnknownTopic(String),
    /// The partition index is out of range for the topic.
    UnknownPartition {
        /// Topic name.
        topic: String,
        /// Requested partition.
        partition: u32,
    },
    /// A fetch named a negative offset or one beyond the end. A log is
    /// never truncated from the front, so its first valid offset is 0.
    OffsetOutOfRange {
        /// Requested offset.
        requested: i64,
        /// One past the last record.
        log_end: i64,
    },
    /// The consumer group is unknown.
    UnknownGroup(String),
    /// A transactional operation was used without an open transaction.
    NoOpenTransaction,
    /// No broker is reachable for the request.
    BrokerUnavailable,
    /// The request exceeded its deadline without a broker response.
    RequestTimedOut {
        /// The deadline, in milliseconds.
        ms: u64,
    },
    /// A record batch failed its CRC check; the broker rejects it cleanly.
    CorruptRecord {
        /// The request during which the corruption was detected.
        op: String,
    },
}

impl fmt::Display for KafkaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KafkaError::UnknownTopic(t) => write!(f, "unknown topic {t:?}"),
            KafkaError::UnknownPartition { topic, partition } => {
                write!(f, "unknown partition {topic}-{partition}")
            }
            KafkaError::OffsetOutOfRange { requested, log_end } => {
                write!(f, "offset {requested} out of range [0, {log_end})")
            }
            KafkaError::UnknownGroup(g) => write!(f, "unknown consumer group {g:?}"),
            KafkaError::NoOpenTransaction => write!(f, "no open transaction"),
            KafkaError::BrokerUnavailable => {
                write!(f, "BROKER_NOT_AVAILABLE: no broker reachable")
            }
            KafkaError::RequestTimedOut { ms } => {
                write!(f, "REQUEST_TIMED_OUT: no response within {ms}ms")
            }
            KafkaError::CorruptRecord { op } => {
                write!(f, "CORRUPT_MESSAGE: record batch failed CRC during {op}")
            }
        }
    }
}

impl std::error::Error for KafkaError {}

impl KafkaError {
    /// Stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            KafkaError::UnknownTopic(_) => "UNKNOWN_TOPIC",
            KafkaError::UnknownPartition { .. } => "UNKNOWN_PARTITION",
            KafkaError::OffsetOutOfRange { .. } => "OFFSET_OUT_OF_RANGE",
            KafkaError::UnknownGroup(_) => "UNKNOWN_GROUP",
            KafkaError::NoOpenTransaction => "NO_OPEN_TRANSACTION",
            KafkaError::BrokerUnavailable => "BROKER_UNAVAILABLE",
            KafkaError::RequestTimedOut { .. } => "REQUEST_TIMED_OUT",
            KafkaError::CorruptRecord { .. } => "CORRUPT_RECORD",
        }
    }
}

impl From<KafkaError> for InteractionError {
    fn from(e: KafkaError) -> InteractionError {
        let kind = match &e {
            KafkaError::BrokerUnavailable => ErrorKind::Unavailable,
            KafkaError::RequestTimedOut { .. } => ErrorKind::Timeout,
            _ => ErrorKind::Rejected,
        };
        InteractionError::new("minikafka", kind, e.code(), e.to_string())
    }
}

impl FaultPoint for KafkaError {
    const CHANNEL: Channel = Channel::Kafka;

    fn materialize(fault: &InjectedFault) -> KafkaError {
        match fault.kind {
            FaultKind::Unavailable => KafkaError::BrokerUnavailable,
            FaultKind::Timeout { ms } | FaultKind::Latency { ms } => {
                KafkaError::RequestTimedOut { ms }
            }
            FaultKind::CorruptPayload => KafkaError::CorruptRecord {
                op: fault.op.clone(),
            },
        }
    }
}
