//! Spark's Kafka source connector.
//!
//! Carries the SPARK-19361 discrepancy: Spark's offset-range planner
//! "assumes Kafka offsets always increment by 1, which is not always true"
//! — log compaction and transaction markers leave gaps. The shipped reader
//! validates contiguity and fails on the first gap; the fixed reader
//! tolerates gaps and reports how many records were actually delivered.

use crate::error::SparkError;
use csi_core::boundary::{BoundaryCall, CrossingContext};
use csi_core::fault::Channel;
use minikafka::{ConsumerRecord, MiniKafka, Offset, PartitionId};

/// Offset-contiguity handling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetModel {
    /// Assume offsets increment by one (the shipped behavior).
    AssumeContiguous,
    /// Tolerate gaps from compaction and transactions (the fix).
    TolerateGaps,
}

/// The planned range `[from, until)` a micro-batch should consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetRange {
    /// Inclusive start offset.
    pub from: Offset,
    /// Exclusive end offset.
    pub until: Offset,
}

impl OffsetRange {
    /// The record count Spark's planner *expects* from this range — valid
    /// only under the contiguity assumption.
    pub(crate) fn expected_count(&self) -> i64 {
        self.until - self.from
    }
}

/// Plans the next micro-batch range from the committed position to the
/// current log end, recording the planner's crossing in `ctx`. Callers
/// without a trace pass [`CrossingContext::disabled`].
pub fn plan_range(
    broker: &MiniKafka,
    topic: &str,
    partition: PartitionId,
    from: Offset,
    ctx: &CrossingContext,
) -> Result<OffsetRange, SparkError> {
    ctx.record(
        BoundaryCall::new(Channel::Kafka, "plan_range")
            .with_payload_fmt(format_args!("{topic}/p{}", partition.0)),
    );
    let until = broker
        .log_end_offset(topic, partition)
        .map_err(|e| SparkError::Connector {
            code: "KAFKA",
            message: e.to_string(),
        })?;
    Ok(OffsetRange { from, until })
}

/// Consumes a planned range.
///
/// Under [`OffsetModel::AssumeContiguous`], any offset gap raises the
/// SPARK-19361 assertion ("Got wrong record ... even after seeking to
/// offset"); under [`OffsetModel::TolerateGaps`] the batch simply contains
/// fewer records than `expected_count`.
pub fn consume_range(
    broker: &MiniKafka,
    topic: &str,
    partition: PartitionId,
    range: OffsetRange,
    model: OffsetModel,
    ctx: &CrossingContext,
) -> Result<Vec<ConsumerRecord>, SparkError> {
    ctx.record(
        BoundaryCall::new(Channel::Kafka, "consume_range")
            .with_payload_fmt(format_args!("{topic}/p{}", partition.0)),
    );
    let batch = broker
        .fetch(topic, partition, range.from, usize::MAX)
        .map_err(|e| SparkError::Connector {
            code: "KAFKA",
            message: e.to_string(),
        })?;
    let records: Vec<ConsumerRecord> = batch
        .records
        .into_iter()
        .filter(|r| r.offset < range.until)
        .collect();
    if model == OffsetModel::AssumeContiguous {
        let mut expected = range.from;
        for r in &records {
            if r.offset != expected {
                return Err(SparkError::Assertion {
                    message: format!(
                        "Got wrong record for {topic}-{} even after seeking to offset {expected}: \
                         found offset {}",
                        partition.0, r.offset
                    ),
                });
            }
            expected += 1;
        }
        if expected != range.until {
            return Err(SparkError::Assertion {
                message: format!(
                    "Expected {} records in range [{}, {}) but got {}",
                    range.expected_count(),
                    range.from,
                    range.until,
                    records.len()
                ),
            });
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PartitionId = PartitionId(0);

    fn off() -> CrossingContext {
        CrossingContext::disabled()
    }

    fn broker_with_gap() -> MiniKafka {
        let mut k = MiniKafka::new();
        k.create_topic("t", 1);
        k.produce("t", P0, Some(b"a"), Some(b"1"), 0).unwrap(); // 0
        k.produce("t", P0, Some(b"a"), Some(b"2"), 0).unwrap(); // 1
        k.produce("t", P0, Some(b"b"), Some(b"3"), 0).unwrap(); // 2
        k.compact("t", P0).unwrap(); // Offset 0 disappears.
        k
    }

    #[test]
    fn contiguous_log_consumes_cleanly() {
        let mut k = MiniKafka::new();
        k.create_topic("t", 1);
        for i in 0..5u8 {
            k.produce("t", P0, None, Some(&[i]), 0).unwrap();
        }
        let range = plan_range(&k, "t", P0, 0, &off()).unwrap();
        assert_eq!(range.expected_count(), 5);
        let records =
            consume_range(&k, "t", P0, range, OffsetModel::AssumeContiguous, &off()).unwrap();
        assert_eq!(records.len(), 5);
    }

    #[test]
    fn compacted_log_crashes_shipped_connector() {
        // SPARK-19361.
        let k = broker_with_gap();
        let range = plan_range(&k, "t", P0, 0, &off()).unwrap();
        let err =
            consume_range(&k, "t", P0, range, OffsetModel::AssumeContiguous, &off()).unwrap_err();
        assert!(err.to_string().contains("Got wrong record"), "{err}");
    }

    #[test]
    fn fixed_connector_tolerates_gaps() {
        let k = broker_with_gap();
        let range = plan_range(&k, "t", P0, 0, &off()).unwrap();
        let records = consume_range(&k, "t", P0, range, OffsetModel::TolerateGaps, &off()).unwrap();
        // Two survivors: offsets 1 and 2.
        let offsets: Vec<Offset> = records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![1, 2]);
        assert!(records.len() as i64 != range.expected_count());
    }

    #[test]
    fn transactional_markers_also_break_the_assumption() {
        let mut k = MiniKafka::new();
        k.create_topic("t", 1);
        let txn = k.begin_transaction("t").unwrap();
        k.send_transactional(txn, P0, None, Some(b"x"), 0).unwrap();
        k.commit_transaction(txn).unwrap(); // Marker at offset 1.
        k.produce("t", P0, None, Some(b"y"), 0).unwrap(); // Offset 2.
        let range = plan_range(&k, "t", P0, 0, &off()).unwrap();
        assert!(consume_range(&k, "t", P0, range, OffsetModel::AssumeContiguous, &off()).is_err());
        let fixed = consume_range(&k, "t", P0, range, OffsetModel::TolerateGaps, &off()).unwrap();
        assert_eq!(fixed.len(), 2);
    }
}
