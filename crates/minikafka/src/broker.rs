//! The minikafka broker: topics, partitioned logs, compaction, and
//! committed transactions.
//!
//! Storage is plain ordered structures: a name-keyed map of topics, each a
//! `Vec` of partitions indexed by partition id; a partition holds its log.
//! Nothing here hashes, so nothing observable can depend on a hash
//! iteration order.

use crate::error::KafkaError;
use bytes::Bytes;
use csi_core::boundary::{BoundaryCall, CrossingContext};
use csi_core::fault::Channel;
use std::collections::BTreeMap;

/// A record offset within a partition.
pub type Offset = i64;

/// A partition index within a topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(pub u32);

#[derive(Debug, Clone, PartialEq, Eq)]
enum StoredKind {
    Data,
    /// A transaction control marker: occupies an offset, never delivered.
    TxnMarker,
}

#[derive(Debug, Clone)]
struct StoredRecord {
    offset: Offset,
    key: Option<Bytes>,
    value: Option<Bytes>,
    timestamp: u64,
    kind: StoredKind,
}

/// A record as delivered to consumers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsumerRecord {
    /// The record's offset. **Not necessarily contiguous** with its
    /// neighbors: compaction and transaction markers leave gaps
    /// (SPARK-19361).
    pub offset: Offset,
    /// Optional key.
    pub key: Option<Bytes>,
    /// Value; `None` is a tombstone.
    pub value: Option<Bytes>,
    /// Producer-supplied timestamp.
    pub timestamp: u64,
}

/// Result of a fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordBatch {
    /// Delivered records, in offset order.
    pub records: Vec<ConsumerRecord>,
    /// The partition's current log-end offset (next offset to be assigned).
    pub log_end: Offset,
}

#[derive(Debug, Default)]
struct Partition {
    log: Vec<StoredRecord>,
    next_offset: Offset,
}

#[derive(Debug)]
struct Transaction {
    topic: String,
    staged: Vec<(PartitionId, Option<Bytes>, Option<Bytes>, u64)>,
}

/// The in-memory broker.
#[derive(Debug, Default)]
pub struct MiniKafka {
    /// Topic name → its partitions, indexed by partition id.
    topics: BTreeMap<String, Vec<Partition>>,
    transactions: BTreeMap<u64, Transaction>,
    next_txn_id: u64,
    crossing: Option<CrossingContext>,
}

impl MiniKafka {
    /// Creates an empty broker.
    pub fn new() -> MiniKafka {
        MiniKafka::default()
    }

    /// Attaches the deployment's crossing context; every broker request
    /// entry point crosses the [`Channel::Kafka`] boundary through it.
    pub fn set_crossing(&mut self, crossing: CrossingContext) {
        self.crossing = Some(crossing);
    }

    /// The broker request boundary crossing at the entry of `op`.
    fn cross(
        &self,
        op: &'static str,
        topic: &str,
        partition: PartitionId,
    ) -> Result<(), KafkaError> {
        match &self.crossing {
            Some(ctx) => ctx.cross(
                BoundaryCall::new(Channel::Kafka, op)
                    .with_payload_fmt(format_args!("{topic}/p{}", partition.0)),
            ),
            None => Ok(()),
        }
    }

    /// Creates a topic with `partitions` partitions. Idempotent.
    pub fn create_topic(&mut self, topic: &str, partitions: u32) {
        if !self.topics.contains_key(topic) {
            let parts = (0..partitions).map(|_| Partition::default()).collect();
            self.topics.insert(topic.to_string(), parts);
        }
    }

    fn topic(&self, topic: &str) -> Result<&Vec<Partition>, KafkaError> {
        self.topics
            .get(topic)
            .ok_or_else(|| KafkaError::UnknownTopic(topic.to_string()))
    }

    /// Number of partitions of a topic.
    pub fn partition_count(&self, topic: &str) -> Result<u32, KafkaError> {
        Ok(u32::try_from(self.topic(topic)?.len()).expect("created with a u32 count"))
    }

    fn partition_mut(
        &mut self,
        topic: &str,
        partition: PartitionId,
    ) -> Result<&mut Partition, KafkaError> {
        self.topics
            .get_mut(topic)
            .ok_or_else(|| KafkaError::UnknownTopic(topic.to_string()))?
            .get_mut(partition.0 as usize)
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition: partition.0,
            })
    }

    fn partition(&self, topic: &str, partition: PartitionId) -> Result<&Partition, KafkaError> {
        self.topic(topic)?
            .get(partition.0 as usize)
            .ok_or_else(|| KafkaError::UnknownPartition {
                topic: topic.to_string(),
                partition: partition.0,
            })
    }

    /// Produces one record; returns its offset.
    pub fn produce(
        &mut self,
        topic: &str,
        partition: PartitionId,
        key: Option<&[u8]>,
        value: Option<&[u8]>,
        timestamp: u64,
    ) -> Result<Offset, KafkaError> {
        self.cross("produce", topic, partition)?;
        let p = self.partition_mut(topic, partition)?;
        let offset = p.next_offset;
        p.next_offset += 1;
        p.log.push(StoredRecord {
            offset,
            key: key.map(Bytes::copy_from_slice),
            value: value.map(Bytes::copy_from_slice),
            timestamp,
            kind: StoredKind::Data,
        });
        Ok(offset)
    }

    /// Begins a transaction on a topic; returns the transaction handle.
    pub fn begin_transaction(&mut self, topic: &str) -> Result<u64, KafkaError> {
        self.topic(topic)?;
        self.next_txn_id += 1;
        self.transactions.insert(
            self.next_txn_id,
            Transaction {
                topic: topic.to_string(),
                staged: Vec::new(),
            },
        );
        Ok(self.next_txn_id)
    }

    /// Stages a record inside an open transaction.
    pub fn send_transactional(
        &mut self,
        txn: u64,
        partition: PartitionId,
        key: Option<&[u8]>,
        value: Option<&[u8]>,
        timestamp: u64,
    ) -> Result<(), KafkaError> {
        let t = self
            .transactions
            .get_mut(&txn)
            .ok_or(KafkaError::NoOpenTransaction)?;
        t.staged.push((
            partition,
            key.map(Bytes::copy_from_slice),
            value.map(Bytes::copy_from_slice),
            timestamp,
        ));
        Ok(())
    }

    /// Commits a transaction: staged records become visible, and a control
    /// marker consumes one offset per touched partition.
    pub fn commit_transaction(&mut self, txn: u64) -> Result<(), KafkaError> {
        let t = self
            .transactions
            .remove(&txn)
            .ok_or(KafkaError::NoOpenTransaction)?;
        let mut touched: Vec<PartitionId> = Vec::new();
        for (partition, key, value, timestamp) in t.staged {
            let p = self.partition_mut(&t.topic, partition)?;
            let offset = p.next_offset;
            p.next_offset += 1;
            p.log.push(StoredRecord {
                offset,
                key,
                value,
                timestamp,
                kind: StoredKind::Data,
            });
            if !touched.contains(&partition) {
                touched.push(partition);
            }
        }
        for partition in touched {
            let p = self.partition_mut(&t.topic, partition)?;
            let offset = p.next_offset;
            p.next_offset += 1;
            p.log.push(StoredRecord {
                offset,
                key: None,
                value: None,
                timestamp: 0,
                kind: StoredKind::TxnMarker,
            });
        }
        Ok(())
    }

    /// Fetches up to `max_records` delivered records starting at `offset`.
    ///
    /// Control markers are skipped, so **delivered offsets may have
    /// gaps**.
    pub fn fetch(
        &self,
        topic: &str,
        partition: PartitionId,
        offset: Offset,
        max_records: usize,
    ) -> Result<RecordBatch, KafkaError> {
        self.cross("fetch", topic, partition)?;
        let p = self.partition(topic, partition)?;
        if offset < 0 || offset > p.next_offset {
            return Err(KafkaError::OffsetOutOfRange {
                requested: offset,
                log_end: p.next_offset,
            });
        }
        let records = p
            .log
            .iter()
            .filter(|r| r.offset >= offset)
            .filter(|r| r.kind == StoredKind::Data)
            .take(max_records)
            .map(|r| ConsumerRecord {
                offset: r.offset,
                key: r.key.clone(),
                value: r.value.clone(),
                timestamp: r.timestamp,
            })
            .collect();
        Ok(RecordBatch {
            records,
            log_end: p.next_offset,
        })
    }

    /// One past the last assigned offset.
    pub fn log_end_offset(
        &self,
        topic: &str,
        partition: PartitionId,
    ) -> Result<Offset, KafkaError> {
        self.cross("log_end_offset", topic, partition)?;
        Ok(self.partition(topic, partition)?.next_offset)
    }

    /// Runs log compaction on a partition: for every key, only the most
    /// recent record survives; earlier offsets disappear, leaving gaps.
    /// Records without a key are retained. Returns how many records were
    /// removed.
    pub fn compact(&mut self, topic: &str, partition: PartitionId) -> Result<usize, KafkaError> {
        let p = self.partition_mut(topic, partition)?;
        // Index latest offsets by *borrowed* key slices: no record key is
        // cloned for the pass.
        let mut latest_by_key: BTreeMap<&[u8], Offset> = BTreeMap::new();
        for r in &p.log {
            if let (Some(k), StoredKind::Data) = (&r.key, &r.kind) {
                latest_by_key.insert(k.as_ref(), r.offset);
            }
        }
        // The index borrows the log, so decide survivors before mutating.
        let keep: Vec<bool> = p
            .log
            .iter()
            .map(|r| match (&r.key, &r.kind) {
                (Some(k), StoredKind::Data) => latest_by_key.get(k.as_ref()) == Some(&r.offset),
                (_, StoredKind::TxnMarker) => false, // Markers are garbage-collected.
                _ => true,
            })
            .collect();
        drop(latest_by_key);
        let before = p.log.len();
        let mut idx = 0;
        p.log.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        Ok(before - p.log.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PartitionId = PartitionId(0);

    fn broker() -> MiniKafka {
        let mut k = MiniKafka::new();
        k.create_topic("t", 2);
        k
    }

    #[test]
    fn produce_fetch_round_trip() {
        let mut k = broker();
        for i in 0..5u8 {
            k.produce("t", P0, Some(b"k"), Some(&[i]), i as u64)
                .unwrap();
        }
        let batch = k.fetch("t", P0, 0, 100).unwrap();
        assert_eq!(batch.records.len(), 5);
        assert_eq!(batch.log_end, 5);
        let offsets: Vec<Offset> = batch.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3, 4]); // Contiguous before compaction.
    }

    #[test]
    fn fetch_respects_start_and_max() {
        let mut k = broker();
        for i in 0..10u8 {
            k.produce("t", P0, None, Some(&[i]), 0).unwrap();
        }
        let batch = k.fetch("t", P0, 4, 3).unwrap();
        let offsets: Vec<Offset> = batch.records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![4, 5, 6]);
    }

    #[test]
    fn fetch_out_of_range_errors() {
        let mut k = broker();
        k.produce("t", P0, None, Some(b"x"), 0).unwrap();
        let err = k.fetch("t", P0, 99, 10).unwrap_err();
        assert!(matches!(err, KafkaError::OffsetOutOfRange { .. }));
        assert_eq!(err.to_string(), "offset 99 out of range [0, 1)");
        assert!(matches!(
            k.fetch("t", P0, -1, 10),
            Err(KafkaError::OffsetOutOfRange { .. })
        ));
        assert!(k.fetch("nope", P0, 0, 1).is_err());
        assert!(k.fetch("t", PartitionId(7), 0, 1).is_err());
    }

    #[test]
    fn compaction_leaves_offset_gaps() {
        let mut k = broker();
        // Three updates to key "a", interleaved with "b".
        k.produce("t", P0, Some(b"a"), Some(b"1"), 0).unwrap(); // 0
        k.produce("t", P0, Some(b"b"), Some(b"1"), 0).unwrap(); // 1
        k.produce("t", P0, Some(b"a"), Some(b"2"), 0).unwrap(); // 2
        k.produce("t", P0, Some(b"a"), Some(b"3"), 0).unwrap(); // 3
        let removed = k.compact("t", P0).unwrap();
        assert_eq!(removed, 2);
        let batch = k.fetch("t", P0, 0, 100).unwrap();
        let offsets: Vec<Offset> = batch.records.iter().map(|r| r.offset).collect();
        // The SPARK-19361 discrepancy: offsets 1 -> 3 jump by 2.
        assert_eq!(offsets, vec![1, 3]);
        assert_eq!(batch.log_end, 4);
    }

    #[test]
    fn committed_transaction_marker_consumes_an_offset() {
        let mut k = broker();
        let txn = k.begin_transaction("t").unwrap();
        k.send_transactional(txn, P0, None, Some(b"x"), 0).unwrap();
        k.send_transactional(txn, P0, None, Some(b"y"), 0).unwrap();
        k.commit_transaction(txn).unwrap();
        k.produce("t", P0, None, Some(b"z"), 0).unwrap();
        let batch = k.fetch("t", P0, 0, 100).unwrap();
        let offsets: Vec<Offset> = batch.records.iter().map(|r| r.offset).collect();
        // Offset 2 is the (invisible) commit marker.
        assert_eq!(offsets, vec![0, 1, 3]);
        assert_eq!(k.log_end_offset("t", P0).unwrap(), 4);
    }

    #[test]
    fn transactions_require_open_handle() {
        let mut k = broker();
        assert!(matches!(
            k.send_transactional(42, P0, None, Some(b"x"), 0),
            Err(KafkaError::NoOpenTransaction)
        ));
        let txn = k.begin_transaction("t").unwrap();
        k.commit_transaction(txn).unwrap();
        assert!(k.commit_transaction(txn).is_err());
    }

    #[test]
    fn partitions_are_independent() {
        let mut k = broker();
        k.produce("t", P0, None, Some(b"a"), 0).unwrap();
        k.produce("t", PartitionId(1), None, Some(b"b"), 0).unwrap();
        assert_eq!(k.log_end_offset("t", P0).unwrap(), 1);
        assert_eq!(k.log_end_offset("t", PartitionId(1)).unwrap(), 1);
        assert_eq!(k.partition_count("t").unwrap(), 2);
    }
}
