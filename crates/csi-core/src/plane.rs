//! Interaction planes and interaction kinds.
//!
//! The paper organizes CSI failures by the logical *plane* on which the
//! failing interaction happens (Section 2.2). The plane concepts originate in
//! the networking literature and map onto cloud systems as follows: the
//! control plane carries scheduling/coordination, the data plane carries data
//! operations, and the management plane carries configuration and monitoring.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Logical plane of a cross-system interaction (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Plane {
    /// Core control logic: scheduling, resource allocation, coordination,
    /// fault tolerance, recovery.
    Control,
    /// Data operations, in the form of tables, files, tuples, and streams.
    Data,
    /// System configuration and monitoring.
    Management,
}

impl Plane {
    /// All planes, in the order used by the paper's tables.
    pub const ALL: [Plane; 3] = [Plane::Control, Plane::Data, Plane::Management];

    /// The plane's display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Plane::Control => "Control",
            Plane::Data => "Data",
            Plane::Management => "Management",
        }
    }
}

impl fmt::Display for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The concrete channel through which an upstream talks to a downstream
/// (the "Interaction" column of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InteractionKind {
    /// Warehouse tables (e.g. Hive tables).
    DataTables,
    /// Files or file systems (e.g. HDFS).
    DataFiles,
    /// Streaming topics and offsets (e.g. Kafka).
    DataStreaming,
    /// Key-value store operations (e.g. HBase).
    DataKeyValue,
    /// Resource management (e.g. YARN container allocation).
    ControlResources,
    /// Delegated computation (e.g. Hive-on-Spark).
    ControlCompute,
}

impl InteractionKind {
    /// The plane on which this interaction channel natively operates.
    ///
    /// Note that a failure observed over a given channel can still manifest on
    /// a *different* plane; e.g. a Spark–Hive table interaction can fail on
    /// the management plane when Kerberos configuration is silently dropped
    /// (SPARK-10181). Table 1 classifies channels, Table 2 classifies failure
    /// planes; the two are related but not identical.
    pub fn native_plane(self) -> Plane {
        match self {
            InteractionKind::DataTables
            | InteractionKind::DataFiles
            | InteractionKind::DataStreaming
            | InteractionKind::DataKeyValue => Plane::Data,
            InteractionKind::ControlResources | InteractionKind::ControlCompute => Plane::Control,
        }
    }
}

impl fmt::Display for InteractionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InteractionKind::DataTables => "Data (tables)",
            InteractionKind::DataFiles => "Data (files)",
            InteractionKind::DataStreaming => "Data (streaming)",
            InteractionKind::DataKeyValue => "Data (key-value store)",
            InteractionKind::ControlResources => "Control (resource management)",
            InteractionKind::ControlCompute => "Control (compute)",
        };
        f.write_str(s)
    }
}

/// One of the seven systems covered by the open-source study, plus the
/// CBS-era systems used in the comparison dataset (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SystemId {
    /// Apache Spark (data processing).
    Spark,
    /// Apache Hive (warehouse).
    Hive,
    /// Apache Hadoop YARN (resource management).
    Yarn,
    /// Apache Hadoop HDFS (distributed file system).
    Hdfs,
    /// Apache Flink (stream processing).
    Flink,
    /// Apache Kafka (log/stream broker).
    Kafka,
    /// Apache HBase (key-value store).
    HBase,
    /// Hadoop MapReduce (CBS comparison only).
    MapReduce,
    /// Apache Cassandra (CBS comparison only).
    Cassandra,
    /// Apache ZooKeeper (CBS comparison only).
    ZooKeeper,
    /// Apache Flume (CBS comparison only).
    Flume,
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SystemId::Spark => "Spark",
            SystemId::Hive => "Hive",
            SystemId::Yarn => "YARN",
            SystemId::Hdfs => "HDFS",
            SystemId::Flink => "Flink",
            SystemId::Kafka => "Kafka",
            SystemId::HBase => "HBase",
            SystemId::MapReduce => "MapReduce",
            SystemId::Cassandra => "Cassandra",
            SystemId::ZooKeeper => "ZooKeeper",
            SystemId::Flume => "Flume",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_planes_match_channel_families() {
        assert_eq!(InteractionKind::DataTables.native_plane(), Plane::Data);
        assert_eq!(InteractionKind::DataFiles.native_plane(), Plane::Data);
        assert_eq!(InteractionKind::DataStreaming.native_plane(), Plane::Data);
        assert_eq!(InteractionKind::DataKeyValue.native_plane(), Plane::Data);
        assert_eq!(
            InteractionKind::ControlResources.native_plane(),
            Plane::Control
        );
        assert_eq!(
            InteractionKind::ControlCompute.native_plane(),
            Plane::Control
        );
    }

    #[test]
    fn plane_display_is_stable() {
        let names: Vec<String> = Plane::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["Control", "Data", "Management"]);
    }

    #[test]
    fn plane_serde_round_trip() {
        for p in Plane::ALL {
            let json = serde_json::to_string(&p).unwrap();
            let back: Plane = serde_json::from_str(&json).unwrap();
            assert_eq!(p, back);
        }
    }
}
