//! A warm pool of [`Deployment`]s shared across campaigns.
//!
//! Building a deployment (metastore + namenode + two engine frontends)
//! is the fixed cost of every campaign. A long-running host — the
//! `csi-serve` daemon above all — runs thousands of campaigns, so the pool
//! keeps finished stacks warm on one shelf and hands them back out instead
//! of rebuilding.
//!
//! The invariant that makes pooling safe: **a released deployment is
//! reset until it is construction-identical to a fresh one** —
//! `Deployment::reset_to_fresh` is the one place that says what that
//! takes. Pooled campaigns are therefore byte-identical to unpooled
//! ones — pinned by `exec::tests::pooled_run_is_byte_identical_to_fresh`
//! and `campaign::tests::pooled_campaign_is_byte_identical_across_reuse`.
//!
//! Every deployment is built alike, so the shelf has no key: everything a
//! [`CrossTestConfig`] asks of a run — Spark overrides, fault plan,
//! detector — is armed on acquire (`Deployment::arm`) and stripped on
//! release, so any shelved stack serves any campaign.
//!
//! The pool is bounded: it never holds more than [`MAX_SHELVED`]
//! deployments, and a release at the cap drops the stack instead of
//! shelving it.

use crate::exec::{CrossTestConfig, Deployment};
use crate::spec::MAX_SHARDS;
use csi_core::boundary::CrossingContext;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing how well a pool is amortizing deployment
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Deployments built from scratch (shelf misses).
    pub created: u64,
    /// Deployments handed back out from the shelf (hits).
    pub reused: u64,
    /// Deployments currently on the shelf.
    pub shelved: usize,
}

/// A thread-safe pool of reset-to-fresh [`Deployment`]s.
pub struct DeploymentPool {
    /// At most [`MAX_SHELVED`] deployments, the last released on top.
    shelf: Mutex<Vec<Deployment>>,
    created: AtomicU64,
    reused: AtomicU64,
}

impl fmt::Debug for DeploymentPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("DeploymentPool")
            .field("created", &stats.created)
            .field("reused", &stats.reused)
            .field("shelved", &stats.shelved)
            .finish()
    }
}

impl Default for DeploymentPool {
    fn default() -> DeploymentPool {
        DeploymentPool::new()
    }
}

/// The most deployments the pool keeps: what one campaign at the shard
/// bound can hand back at once. Campaigns running side by side can hand
/// back more; the excess is dropped, so an idle daemon parks at most this
/// many stacks.
const MAX_SHELVED: usize = MAX_SHARDS;

impl DeploymentPool {
    /// An empty pool.
    pub fn new() -> DeploymentPool {
        DeploymentPool {
            shelf: Mutex::new(Vec::new()),
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// Pre-builds `n` deployments so the first `n` acquires are shelf
    /// hits. The daemon calls this at startup to hide construction cost
    /// from the first wave of tenants.
    pub fn warm(&self, n: usize) {
        for _ in 0..n {
            let fresh = self.build();
            self.shelve(fresh);
        }
    }

    fn build(&self) -> Deployment {
        self.created.fetch_add(1, Ordering::Relaxed);
        Deployment::new(CrossingContext::new())
    }

    /// Puts a construction-identical-to-fresh deployment on the shelf, or
    /// drops it when the pool already holds [`MAX_SHELVED`].
    fn shelve(&self, deployment: Deployment) {
        let mut shelf = self.shelf.lock();
        if shelf.len() < MAX_SHELVED {
            shelf.push(deployment);
        }
    }

    /// Hit/miss/occupancy counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            shelved: self.shelf.lock().len(),
        }
    }

    /// Takes a deployment off the shelf (or builds one), then arms
    /// `config`'s per-run attachments on it: the Spark overrides, the
    /// fault plan, and the detector that judges its observations.
    pub(crate) fn acquire(&self, config: &CrossTestConfig) -> Deployment {
        let shelved = self.shelf.lock().pop();
        let mut deployment = match shelved {
            Some(d) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                d
            }
            None => self.build(),
        };
        deployment.arm(config);
        deployment
    }

    /// Resets `deployment` to construction-identical-to-fresh and shelves
    /// it for the next acquire (or drops it, at the cap).
    pub(crate) fn release(&self, mut deployment: Deployment) {
        deployment.reset_to_fresh();
        self.shelve(deployment);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minispark::config::STORE_ASSIGNMENT_POLICY;

    #[test]
    fn one_shelf_serves_every_configuration() {
        let pool = DeploymentPool::new();
        let plain = CrossTestConfig::default();
        let tuned = CrossTestConfig {
            spark_overrides: CrossTestConfig::custom_resolving_overrides(),
            ..CrossTestConfig::default()
        };
        let detecting = CrossTestConfig {
            detector: Some(csi_core::detect::DetectorSpec {
                config: csi_core::detect::DetectorConfig::default(),
                baselines: Default::default(),
                tap: None,
            }),
            ..CrossTestConfig::default()
        };
        let fresh = format!("{:?}", Deployment::new(CrossingContext::new()).spark.config);

        let d = pool.acquire(&plain);
        assert_eq!(d.spark.config.get(STORE_ASSIGNMENT_POLICY), Some("ANSI"));
        pool.release(d);
        let d = pool.acquire(&tuned);
        assert_eq!(
            d.spark.config.get(STORE_ASSIGNMENT_POLICY),
            Some("LEGACY"),
            "overrides not armed"
        );
        pool.release(d);
        let d = pool.acquire(&detecting);
        assert!(d.detector.is_some());
        assert_eq!(
            format!("{:?}", d.spark.config),
            fresh,
            "the overrides outlived their release"
        );
        pool.release(d);
        let stats = pool.stats();
        assert_eq!((stats.created, stats.reused, stats.shelved), (1, 2, 1));
    }

    #[test]
    fn warm_prebuilds_shelf_hits() {
        let pool = DeploymentPool::new();
        let config = CrossTestConfig::default();
        pool.warm(2);
        assert_eq!(pool.stats().shelved, 2);
        let a = pool.acquire(&config);
        let b = pool.acquire(&config);
        assert_eq!(pool.stats().reused, 2);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.stats().shelved, 2);
    }

    #[test]
    fn releases_past_the_cap_are_dropped() {
        let pool = DeploymentPool::new();
        let config = CrossTestConfig::default();
        let held: Vec<_> = (0..MAX_SHELVED + 44)
            .map(|_| pool.acquire(&config))
            .collect();
        for d in held {
            pool.release(d);
        }
        assert_eq!(pool.stats().shelved, MAX_SHELVED);
        // A full pool still serves, from the shelf.
        let d = pool.acquire(&config);
        pool.release(d);
        let stats = pool.stats();
        assert_eq!(
            (stats.created, stats.reused, stats.shelved),
            (MAX_SHELVED as u64 + 44, 1, MAX_SHELVED)
        );
    }

    #[test]
    fn per_run_attachments_are_armed_on_acquire_and_stripped_on_release() {
        use csi_core::boundary::BoundaryCall;
        use csi_core::fault::{Channel, FaultKind, FaultPlan, FaultSpec, Trigger};

        fn probe_call() -> BoundaryCall {
            BoundaryCall::new(Channel::Metastore, "get_table")
        }

        let pool = DeploymentPool::new();
        let plan = FaultPlan {
            seed: 7,
            faults: vec![FaultSpec {
                id: "probe".into(),
                channel: Channel::Metastore,
                op: "get_table".into(),
                kind: FaultKind::Unavailable,
                trigger: Trigger::Always,
            }],
        };
        let config = CrossTestConfig {
            fault_plan: Some(plan),
            ..CrossTestConfig::default()
        };
        let d = pool.acquire(&config);
        assert!(
            d.crossing.intercept(probe_call()).is_some(),
            "armed fault did not fire"
        );
        pool.release(d);

        let fault_free = CrossTestConfig::default();
        let d = pool.acquire(&fault_free);
        assert!(
            d.crossing.intercept(probe_call()).is_none(),
            "armed faults leaked the shelf"
        );
        pool.release(d);
    }
}
