//! Flink's Kafka source: partition discovery and its invocation context.
//!
//! FLINK-4155: partition discovery must run where the Kafka cluster is
//! reachable — inside the Flink cluster — but the shipped code invoked it
//! in the *client* context (the machine submitting the job), which "may
//! not have access to the Kafka cluster". A classic wrong-context API
//! misuse (Finding 11).

use minikafka::{MiniKafka, PartitionId};
use std::fmt;

/// Where a piece of connector code is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionContext {
    /// The submitting client's JVM — may be outside the cluster network.
    Client,
    /// A task manager inside the cluster.
    Cluster,
}

/// Network reachability of the Kafka cluster from each context.
#[derive(Debug, Clone, Copy)]
pub struct Reachability {
    /// Whether client machines can reach the brokers.
    pub client_can_reach: bool,
    /// Whether cluster machines can reach the brokers.
    pub cluster_can_reach: bool,
}

impl Default for Reachability {
    fn default() -> Reachability {
        // The typical production topology: brokers are on the cluster
        // network, not exposed to submitting clients.
        Reachability {
            client_can_reach: false,
            cluster_can_reach: true,
        }
    }
}

/// Error raised by partition discovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryError {
    /// The context that failed.
    pub context: ExecutionContext,
    /// Description.
    pub message: String,
}

impl fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "partition discovery failed in {:?} context: {}",
            self.context, self.message
        )
    }
}

impl std::error::Error for DiscoveryError {}

/// Discovers the partitions of a topic from a given execution context.
pub(crate) fn discover_partitions(
    broker: &MiniKafka,
    topic: &str,
    context: ExecutionContext,
    net: Reachability,
) -> Result<Vec<PartitionId>, DiscoveryError> {
    let reachable = match context {
        ExecutionContext::Client => net.client_can_reach,
        ExecutionContext::Cluster => net.cluster_can_reach,
    };
    if !reachable {
        return Err(DiscoveryError {
            context,
            message: "org.apache.kafka.common.errors.TimeoutException: \
                      Timeout expired while fetching topic metadata"
                .to_string(),
        });
    }
    let n = broker.partition_count(topic).map_err(|e| DiscoveryError {
        context,
        message: e.to_string(),
    })?;
    Ok((0..n).map(PartitionId).collect())
}

/// Which context the connector uses for discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryMode {
    /// Shipped: discovery runs where the job is *constructed* — the client
    /// (FLINK-4155).
    Shipped,
    /// Fixed: discovery deferred to the task managers.
    Fixed,
}

/// The connector's discovery entry point.
pub fn connector_discover(
    broker: &MiniKafka,
    topic: &str,
    mode: DiscoveryMode,
    net: Reachability,
) -> Result<Vec<PartitionId>, DiscoveryError> {
    let context = match mode {
        DiscoveryMode::Shipped => ExecutionContext::Client,
        DiscoveryMode::Fixed => ExecutionContext::Cluster,
    };
    discover_partitions(broker, topic, context, net)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker() -> MiniKafka {
        let mut k = MiniKafka::new();
        k.create_topic("events", 4);
        k
    }

    #[test]
    fn shipped_discovery_times_out_in_production_topology() {
        // FLINK-4155.
        let k = broker();
        let err = connector_discover(
            &k,
            "events",
            DiscoveryMode::Shipped,
            Reachability::default(),
        )
        .unwrap_err();
        assert_eq!(err.context, ExecutionContext::Client);
        assert!(err.message.contains("TimeoutException"));
    }

    #[test]
    fn fixed_discovery_succeeds() {
        let k = broker();
        let parts = connector_discover(&k, "events", DiscoveryMode::Fixed, Reachability::default())
            .unwrap();
        assert_eq!(parts.len(), 4);
    }

    #[test]
    fn shipped_discovery_works_in_permissive_networks() {
        // Which is why the bug escaped testing: dev environments expose
        // the brokers everywhere.
        let k = broker();
        let net = Reachability {
            client_can_reach: true,
            cluster_can_reach: true,
        };
        assert!(connector_discover(&k, "events", DiscoveryMode::Shipped, net).is_ok());
    }

    #[test]
    fn unknown_topics_fail_cleanly() {
        let k = broker();
        let err = connector_discover(&k, "nope", DiscoveryMode::Fixed, Reachability::default())
            .unwrap_err();
        assert!(err.message.contains("unknown topic"));
    }
}
