//! Consumer-group membership and rebalancing.
//!
//! Every join or leave rebalances the group: its *generation* number bumps
//! and the topic's partitions are dealt round-robin over the sorted member
//! list, so a member's assignment is a function of the membership alone.

use crate::broker::{MiniKafka, PartitionId};
use crate::error::KafkaError;
use std::collections::BTreeMap;

/// A member's view after joining: its generation and assigned partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// The group generation this assignment belongs to.
    pub generation: u64,
    /// Partitions assigned to this member.
    pub partitions: Vec<PartitionId>,
}

/// One consumer group, bound to a topic.
#[derive(Debug, Default)]
pub(crate) struct ConsumerGroup {
    topic: String,
    /// Member names, sorted: rebalance order is observable through
    /// assignments, and a member's slot is a `binary_search` away.
    members: Vec<String>,
    generation: u64,
    /// Assigned partitions, indexed by member slot (parallel to `members`).
    assignment: Vec<Vec<PartitionId>>,
}

impl ConsumerGroup {
    /// The slot `member` holds in the sorted list, or the one it would take.
    fn slot_of(&self, member: &str) -> Result<usize, usize> {
        self.members.binary_search_by(|m| m.as_str().cmp(member))
    }
}

/// The group coordinator.
#[derive(Debug, Default)]
pub struct GroupCoordinator {
    /// Group name → group.
    groups: BTreeMap<String, ConsumerGroup>,
}

impl GroupCoordinator {
    /// Creates an empty coordinator.
    pub fn new() -> GroupCoordinator {
        GroupCoordinator::default()
    }

    /// Joins (or re-joins) a member to a group on a topic, triggering a
    /// rebalance: the generation bumps and partitions are redistributed
    /// round-robin over the sorted member list.
    pub fn join(
        &mut self,
        broker: &MiniKafka,
        group: &str,
        topic: &str,
        member: &str,
    ) -> Result<Membership, KafkaError> {
        let partitions = broker.partition_count(topic)?;
        let g = self.groups.entry(group.to_string()).or_default();
        g.topic = topic.to_string();
        let slot = g.slot_of(member).unwrap_or_else(|slot| {
            g.members.insert(slot, member.to_string());
            slot
        });
        Self::rebalance(g, partitions);
        Ok(Membership {
            generation: g.generation,
            partitions: g.assignment[slot].clone(),
        })
    }

    /// Removes a member, triggering a rebalance among the rest.
    pub fn leave(
        &mut self,
        broker: &MiniKafka,
        group: &str,
        member: &str,
    ) -> Result<(), KafkaError> {
        let g = self
            .groups
            .get_mut(group)
            .ok_or_else(|| KafkaError::UnknownGroup(group.to_string()))?;
        if let Ok(slot) = g.slot_of(member) {
            g.members.remove(slot);
        }
        // A leave always rebalances, member or not.
        let partitions = broker.partition_count(&g.topic)?;
        Self::rebalance(g, partitions);
        Ok(())
    }

    fn rebalance(g: &mut ConsumerGroup, partitions: u32) {
        g.generation += 1;
        g.assignment = vec![Vec::new(); g.members.len()];
        if g.members.is_empty() {
            return;
        }
        // Round-robin over the sorted member list.
        for p in 0..partitions {
            g.assignment[p as usize % g.members.len()].push(PartitionId(p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker() -> MiniKafka {
        let mut k = MiniKafka::new();
        k.create_topic("t", 4);
        k
    }

    #[test]
    fn join_assigns_all_partitions() {
        let k = broker();
        let mut gc = GroupCoordinator::new();
        let m = gc.join(&k, "g", "t", "a").unwrap();
        assert_eq!(m.generation, 1);
        assert_eq!(m.partitions.len(), 4);
    }

    #[test]
    fn rebalance_splits_partitions_and_bumps_generation() {
        let k = broker();
        let mut gc = GroupCoordinator::new();
        let a1 = gc.join(&k, "g", "t", "a").unwrap();
        assert_eq!(a1.generation, 1);
        // A second member joins: generation bumps, A's view is now stale.
        let b = gc.join(&k, "g", "t", "b").unwrap();
        assert_eq!(b.generation, 2);
        assert_eq!(b.partitions.len(), 2);
        // A re-joins and the two fresh views partition the topic exactly.
        let a2 = gc.join(&k, "g", "t", "a").unwrap();
        assert_eq!(a2.generation, 3);
        let b2 = gc.join(&k, "g", "t", "b").unwrap();
        assert_eq!(b2.generation, 4);
        let mut all: Vec<u32> = a2.partitions.iter().map(|p| p.0).collect();
        // A's generation-3 assignment equals its generation-4 assignment
        // (membership did not change between them), so the union holds.
        all.extend(b2.partitions.iter().map(|p| p.0));
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn out_of_order_joins_assign_by_sorted_member_name() {
        // Members join unsorted; assignments must still distribute
        // round-robin over the *sorted* list, through mid-list splices and
        // removals.
        let k = broker();
        let mut gc = GroupCoordinator::new();
        for m in ["delta", "alpha", "charlie", "bravo"] {
            gc.join(&k, "g", "t", m).unwrap();
        }
        let views: Vec<(&str, Vec<u32>)> = ["alpha", "bravo", "charlie", "delta"]
            .into_iter()
            .map(|m| {
                let v = gc.join(&k, "g", "t", m).unwrap();
                (m, v.partitions.iter().map(|p| p.0).collect())
            })
            .collect();
        // 4 partitions round-robin over 4 sorted members: one each.
        assert_eq!(
            views,
            vec![
                ("alpha", vec![0]),
                ("bravo", vec![1]),
                ("charlie", vec![2]),
                ("delta", vec![3]),
            ]
        );
        // Removing a middle member reindexes the tail correctly.
        gc.leave(&k, "g", "bravo").unwrap();
        let c = gc.join(&k, "g", "t", "charlie").unwrap();
        assert_eq!(c.partitions, vec![PartitionId(1)]); // slot 1 of [alpha, charlie, delta]
        let d = gc.join(&k, "g", "t", "delta").unwrap();
        assert_eq!(d.partitions, vec![PartitionId(2)]);
    }

    #[test]
    fn leave_rebalances_the_remainder() {
        let k = broker();
        let mut gc = GroupCoordinator::new();
        gc.join(&k, "g", "t", "a").unwrap();
        gc.join(&k, "g", "t", "b").unwrap();
        gc.leave(&k, "g", "b").unwrap();
        let a = gc.join(&k, "g", "t", "a").unwrap();
        assert_eq!(a.partitions.len(), 4);
        assert!(gc.leave(&k, "nope", "x").is_err());
    }
}
