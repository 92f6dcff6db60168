//! A warm pool of [`Deployment`]s shared across campaigns.
//!
//! Building a deployment (metastore + namenode + two engine frontends)
//! is the fixed cost of every campaign. A long-running host — the
//! `csi-serve` daemon above all — runs thousands of campaigns against
//! identical deployment *shapes*, so the pool keeps finished stacks warm
//! on per-shape shelves and hands them back out instead of rebuilding.
//!
//! The invariant that makes pooling safe: **a released deployment is
//! reset until it is construction-identical to a fresh one** —
//! `Deployment::reset_to_fresh` is the one place that says what that
//! takes. Pooled campaigns are therefore byte-identical to unpooled
//! ones — pinned by `exec::tests::pooled_run_is_byte_identical_to_fresh`.
//!
//! Shelves are keyed by the parts of a [`CrossTestConfig`] that are baked
//! in at construction time (Spark overrides, boundary tracing); per-run
//! attachments — fault plans, detectors — are armed on acquire
//! (`Deployment::arm`) and torn down on release, so one shelf serves
//! faulty and fault-free campaigns alike.
//!
//! The key comes from the campaign spec, which a `csi-serve` client
//! writes, so the pool is bounded: it never holds more than
//! [`MAX_SHELVED`] deployments, and a release at the cap drops the stack
//! instead of shelving it.

use crate::exec::{CrossTestConfig, Deployment};
use crate::spec::MAX_SHARDS;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing how well a pool is amortizing deployment
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Deployments built from scratch (shelf misses).
    pub created: u64,
    /// Deployments handed back out from a shelf (hits).
    pub reused: u64,
    /// Deployments currently sitting on shelves.
    pub shelved: usize,
}

/// A thread-safe pool of reset-to-fresh [`Deployment`]s, keyed by
/// deployment shape.
pub struct DeploymentPool {
    /// `(shelf key, deployment)`, at most [`MAX_SHELVED`] of them.
    shelves: Mutex<Vec<(String, Deployment)>>,
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

/// The shelf key: exactly the configuration a deployment bakes in at
/// construction time. Everything else (faults, detectors) is armed per
/// acquire.
fn shelf_key(config: &CrossTestConfig) -> String {
    let mut key = String::from(if config.records_traces() {
        "trace"
    } else {
        "notrace"
    });
    for (k, v) in &config.spark_overrides {
        key.push('|');
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key
}

/// The most deployments the pool keeps across all shelves: what one
/// campaign at the shard bound can hand back at once. Distinct override
/// lists each open a shelf, so without a cap a client could park a full
/// stack per list for the life of the daemon.
const MAX_SHELVED: usize = MAX_SHARDS;

impl DeploymentPool {
    /// An empty pool.
    pub fn new() -> DeploymentPool {
        DeploymentPool {
            shelves: Mutex::new(Vec::new()),
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// Pre-builds `n` deployments of `config`'s shape so the first `n`
    /// acquires are shelf hits. The daemon calls this at startup to hide
    /// construction cost from the first wave of tenants.
    pub fn warm(&self, config: &CrossTestConfig, n: usize) {
        for _ in 0..n {
            let fresh = self.build(config);
            self.shelve(config, fresh);
        }
    }

    fn build(&self, config: &CrossTestConfig) -> Deployment {
        self.created.fetch_add(1, Ordering::Relaxed);
        Deployment::unarmed(config)
    }

    /// Puts a construction-identical-to-fresh deployment on `config`'s
    /// shelf, or drops it when the pool already holds [`MAX_SHELVED`].
    fn shelve(&self, config: &CrossTestConfig, deployment: Deployment) {
        let key = shelf_key(config);
        let mut shelves = self.shelves.lock();
        if shelves.len() < MAX_SHELVED {
            shelves.push((key, deployment));
        }
    }

    /// Hit/miss/occupancy counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            shelved: self.shelves.lock().len(),
        }
    }

    /// Takes a deployment of `config`'s shape off its shelf (or builds
    /// one), then arms `config`'s per-run attachments on it: the fault
    /// plan, and the detector that judges its observations.
    pub(crate) fn acquire(&self, config: &CrossTestConfig) -> Deployment {
        let key = shelf_key(config);
        let shelved = {
            let mut shelves = self.shelves.lock();
            shelves
                .iter()
                .rposition(|(k, _)| *k == key)
                .map(|i| shelves.remove(i))
        };
        let mut deployment = match shelved {
            Some((_, d)) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                d
            }
            None => self.build(config),
        };
        deployment.arm(config.fault_plan.as_ref(), config.detector.as_ref());
        deployment
    }

    /// Resets `deployment` to construction-identical-to-fresh and shelves
    /// it for the next acquire of the same shape (or drops it, at the
    /// cap).
    pub(crate) fn release(&self, config: &CrossTestConfig, mut deployment: Deployment) {
        deployment.reset_to_fresh();
        self.shelve(config, deployment);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shelves_are_keyed_by_deployment_shape() {
        let pool = DeploymentPool::new();
        let plain = CrossTestConfig::default();
        let tuned = CrossTestConfig {
            spark_overrides: CrossTestConfig::custom_resolving_overrides(),
            ..CrossTestConfig::default()
        };
        assert_ne!(shelf_key(&plain), shelf_key(&tuned));
        // A detector reads the trace, so it shares the traced shelf.
        let detecting = CrossTestConfig {
            trace_boundaries: false,
            detector: Some(csi_core::detect::DetectorSpec {
                config: csi_core::detect::DetectorConfig::default(),
                baselines: Default::default(),
                tap: None,
            }),
            ..CrossTestConfig::default()
        };
        assert_eq!(shelf_key(&detecting), shelf_key(&plain));

        let d = pool.acquire(&plain);
        pool.release(&plain, d);
        // A different shape misses the shelf...
        let d = pool.acquire(&tuned);
        pool.release(&tuned, d);
        // ...while the same shape hits it.
        let d = pool.acquire(&plain);
        pool.release(&plain, d);
        let stats = pool.stats();
        assert_eq!((stats.created, stats.reused), (2, 1));
        assert_eq!(stats.shelved, 2);
    }

    #[test]
    fn warm_prebuilds_shelf_hits() {
        let pool = DeploymentPool::new();
        let config = CrossTestConfig::default();
        pool.warm(&config, 2);
        assert_eq!(pool.stats().shelved, 2);
        let a = pool.acquire(&config);
        let b = pool.acquire(&config);
        assert_eq!(pool.stats().reused, 2);
        pool.release(&config, a);
        pool.release(&config, b);
        assert_eq!(pool.stats().shelved, 2);
    }

    #[test]
    fn distinct_shapes_cannot_grow_the_pool_past_the_cap() {
        let pool = DeploymentPool::new();
        for i in 0..300 {
            let config = CrossTestConfig {
                spark_overrides: vec![("spark.client.chosen".into(), i.to_string())],
                ..CrossTestConfig::default()
            };
            let d = pool.acquire(&config);
            pool.release(&config, d);
        }
        assert_eq!(pool.stats().shelved, 256);
        // A full pool still serves a shape it has no shelf for.
        let plain = CrossTestConfig::default();
        let d = pool.acquire(&plain);
        pool.release(&plain, d);
        let stats = pool.stats();
        assert_eq!((stats.created, stats.reused, stats.shelved), (301, 0, 256));
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
        pool.release(&config, d);

        let fault_free = CrossTestConfig::default();
        let d = pool.acquire(&fault_free);
        assert!(
            d.crossing.intercept(probe_call()).is_none(),
            "armed faults leaked the shelf"
        );
        pool.release(&fault_free, d);
    }
}
