//! Flink's YARN resource driver: the FLINK-12342 container storm
//! (Figure 1) and its fixes (Figure 5), plus the FLINK-19141 resource
//! calculator (Figure 3).
//!
//! The driver runs in virtual time: a loop steps a millisecond clock from
//! one heartbeat to the next, so a run replays deterministically and a
//! sweep over allocation latencies costs no wall time. Its heartbeat asks
//! YARN for containers and, in the shipped configuration, *re-adds* its
//! pending request count every 500 ms — a correct strategy under the
//! implicit assumption that a request is served within one interval, and
//! a request storm the moment YARN's allocation latency exceeds the
//! interval.

use csi_core::boundary::CrossingContext;
use csi_core::config::ConfigMap;
use miniyarn::config as yarn_config;
use miniyarn::scheduler::{CapacityScheduler, FairScheduler, Scheduler};
use miniyarn::{ApplicationId, Resource, ResourceManager, YarnError};

/// Virtual time, in milliseconds since the driver started.
pub type Millis = u64;

/// The four request-loop strategies of Figures 1 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverMode {
    /// The shipped loop: synchronous NMClient, pending requests re-added
    /// every interval (FLINK-12342).
    BuggySync,
    /// Workaround #1 (5/7/2019): make the interval configurable and raise
    /// it for jobs with many containers.
    LongerInterval,
    /// Workaround #2 (11/6/2019): remove satisfied/stale container
    /// requests from YARN as fast as possible.
    EagerRemove,
    /// Resolution #3 (11/18/2019): NMClientAsync — starts do not block the
    /// heartbeat loop and outstanding asks are tracked exactly.
    AsyncClient,
}

/// A point-in-time snapshot of the driver/RM interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Virtual time, ms.
    pub at_ms: Millis,
    /// Total container asks ever sent to YARN.
    pub total_requested: u64,
    /// Asks sitting in YARN's pipeline.
    pub pending: usize,
    /// Containers started by Flink.
    pub started: usize,
}

/// Final statistics of a driver run.
#[derive(Debug, Clone)]
pub struct DriverStats {
    /// Total asks sent (the "4000+ requested" number of Figure 1).
    pub total_requested: u64,
    /// Largest pending backlog observed at YARN.
    pub max_pending: usize,
    /// Containers started.
    pub started: usize,
    /// When the target was reached, if it was.
    pub completed_at: Option<Millis>,
    /// Time series for plotting Figure 1.
    pub history: Vec<Snapshot>,
    /// The RM error that stopped the driver, if one did. `None` for a
    /// clean run (including one that merely missed its deadline).
    pub error: Option<YarnError>,
}

/// Flink's driver plus the YARN RM it heartbeats.
struct YarnDriverWorld {
    rm: ResourceManager,
    app: ApplicationId,
    mode: DriverMode,
    target: usize,
    interval_ms: Millis,
    start_latency_ms: Millis,
    ask: Resource,
    started: usize,
    outstanding: usize,
    history: Vec<Snapshot>,
    completed_at: Option<Millis>,
    error: Option<YarnError>,
}

impl YarnDriverWorld {
    /// One heartbeat at virtual time `now`. Returns the delay to the next
    /// beat, or `None` once the target is reached or an RM call fails.
    fn heartbeat(&mut self, now: Millis) -> Option<Millis> {
        // Keep the RM's clock in step with virtual time.
        let delta = now.saturating_sub(self.rm.now());
        self.rm.advance_clock(delta);
        let resp = match self.rm.allocate(self.app) {
            Ok(resp) => resp,
            Err(e) => {
                // An RM failure stops the driver: record it and stop
                // heartbeating instead of panicking.
                self.error = Some(e);
                return None;
            }
        };
        let newly = resp.allocated.len();
        let mut block_ms = 0;
        for c in &resp.allocated {
            if let Err(e) = self.rm.start_container(c.id) {
                self.error = Some(e);
                return None;
            }
            if self.mode != DriverMode::AsyncClient {
                // The synchronous NMClient blocks the driver thread for
                // every container start.
                block_ms += self.start_latency_ms;
            }
        }
        self.started += newly;
        self.outstanding = self.outstanding.saturating_sub(newly);
        let missing = self.target.saturating_sub(self.started);
        if missing > 0 {
            match self.mode {
                DriverMode::BuggySync | DriverMode::LongerInterval => {
                    // Re-add the full pending count: the storm.
                    for _ in 0..missing {
                        let _ = self.rm.add_container_request(self.app, self.ask);
                    }
                    self.outstanding += missing;
                }
                DriverMode::EagerRemove => {
                    let removed = self
                        .rm
                        .remove_container_requests(self.app, self.outstanding);
                    self.outstanding -= removed;
                    for _ in 0..missing {
                        let _ = self.rm.add_container_request(self.app, self.ask);
                    }
                    self.outstanding += missing;
                }
                DriverMode::AsyncClient => {
                    // Ask only for what is not already in flight.
                    let need = missing.saturating_sub(self.outstanding);
                    for _ in 0..need {
                        let _ = self.rm.add_container_request(self.app, self.ask);
                    }
                    self.outstanding += need;
                }
            }
        }
        self.history.push(Snapshot {
            at_ms: now,
            total_requested: self.rm.total_requested(),
            pending: self.rm.pending_count(),
            started: self.started,
        });
        if self.started >= self.target {
            self.completed_at = Some(now);
            return None;
        }
        Some(self.interval_ms + block_ms)
    }
}

/// Parameters of a driver run.
#[derive(Debug, Clone, Copy)]
pub struct DriverRun {
    /// Strategy under test.
    pub mode: DriverMode,
    /// Containers the job needs (the paper's large `C`).
    pub target: usize,
    /// Heartbeat interval, ms (500 in FLINK-12342).
    pub interval_ms: Millis,
    /// YARN's per-container allocation service time, ms.
    pub alloc_service_ms: Millis,
    /// Synchronous container-start latency, ms.
    pub start_latency_ms: Millis,
    /// Give up after this much virtual time.
    pub deadline_ms: Millis,
}

impl Default for DriverRun {
    fn default() -> DriverRun {
        DriverRun {
            mode: DriverMode::BuggySync,
            target: 200,
            // The FLINK-12342 regime: allocating the batch takes much
            // longer than one heartbeat interval (200 x 100 ms >> 500 ms).
            interval_ms: 500,
            alloc_service_ms: 100,
            start_latency_ms: 5,
            deadline_ms: 60_000,
        }
    }
}

/// Runs the driver to its deadline (or completion).
///
/// # Examples
///
/// ```
/// use miniflink::yarn_driver::{run_driver, DriverMode, DriverRun};
///
/// // Below the crossover (fast allocation) even the buggy loop asks for
/// // exactly its 200 containers.
/// let stats = run_driver(DriverRun {
///     mode: DriverMode::BuggySync,
///     alloc_service_ms: 1,
///     ..DriverRun::default()
/// });
/// assert_eq!(stats.total_requested, 200);
/// ```
pub fn run_driver(params: DriverRun) -> DriverStats {
    run_driver_traced(params, None)
}

/// Like [`run_driver`], with the deployment's crossing context wired into
/// the ResourceManager, so every AM–RM heartbeat of the driver
/// is recorded (and injectable) as a YARN boundary crossing — injected
/// allocation latency reproduces the FLINK-12342 regime without touching
/// the driver's own parameters, and injected RM failures exercise the
/// driver's error path.
pub fn run_driver_traced(params: DriverRun, crossing: Option<CrossingContext>) -> DriverStats {
    let mut rm = ResourceManager::with_nodes(64, Resource::new(1 << 22, 1 << 12));
    rm.set_alloc_service_ms(params.alloc_service_ms);
    if let Some(ctx) = crossing {
        rm.set_crossing(ctx);
    }
    let app = rm.register_application("flink-session");
    let interval = match params.mode {
        // Workaround #1: stretch the interval to cover the worst-case
        // allocation latency for the whole batch.
        DriverMode::LongerInterval => params
            .interval_ms
            .max(params.alloc_service_ms * params.target as u64 + 100),
        _ => params.interval_ms,
    };
    let mut world = YarnDriverWorld {
        rm,
        app,
        mode: params.mode,
        target: params.target,
        interval_ms: interval,
        start_latency_ms: params.start_latency_ms,
        ask: Resource::new(1024, 1),
        started: 0,
        outstanding: 0,
        history: Vec::new(),
        completed_at: None,
        error: None,
    };
    // A beat due exactly at the deadline still runs.
    let mut now: Millis = 0;
    while now <= params.deadline_ms {
        match world.heartbeat(now) {
            Some(delay) => now = now.saturating_add(delay),
            None => break,
        }
    }
    DriverStats {
        total_requested: world.rm.total_requested(),
        max_pending: world.history.iter().map(|s| s.pending).max().unwrap_or(0),
        started: world.started,
        completed_at: world.completed_at,
        history: world.history,
        error: world.error,
    }
}

/// Flink's resource calculator (Figure 3 / FLINK-19141): predicts the
/// container size YARN will allocate by reading the
/// `yarn.scheduler.minimum-allocation-*` keys — the CapacityScheduler's
/// normalization rule. Correct on Capacity clusters, discrepant on Fair
/// clusters, where YARN normalizes with the increment-allocation keys.
pub fn flink_predicted_allocation(ask: Resource, yarn_conf: &ConfigMap) -> Resource {
    let min = yarn_config::min_allocation(yarn_conf);
    ask.component_max(&min).round_up_to(&min)
}

/// Validates that Flink's predicted cutoff matches what the deployed
/// scheduler will really allocate; returns the FLINK-19141 error message
/// when they disagree.
pub fn check_allocation_consistency(
    ask: Resource,
    yarn_conf: &ConfigMap,
    deployed: &dyn Scheduler,
) -> Result<Resource, YarnError> {
    let predicted = flink_predicted_allocation(ask, yarn_conf);
    let actual = deployed.normalize(ask, yarn_conf)?;
    if predicted != actual {
        return Err(YarnError::BadConfig(format!(
            "Could not allocate the required resource: Flink computed {predicted} from the \
             minimum-allocation keys but the {:?} scheduler allocates {actual}",
            deployed.kind()
        )));
    }
    Ok(actual)
}

/// Convenience: the two scheduler implementations for consistency checks.
pub fn capacity_scheduler() -> CapacityScheduler {
    CapacityScheduler
}

/// See [`capacity_scheduler`].
pub fn fair_scheduler() -> FairScheduler {
    FairScheduler
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buggy_sync_storms_yarn() {
        // Figure 1: thousands of requests for a 200-container job.
        let stats = run_driver(DriverRun {
            mode: DriverMode::BuggySync,
            deadline_ms: 30_000,
            ..DriverRun::default()
        });
        assert!(
            stats.total_requested > 4000,
            "expected a storm, got {} requests",
            stats.total_requested
        );
        assert!(stats.max_pending > 1000);
    }

    #[test]
    fn async_client_requests_exactly_the_target() {
        let stats = run_driver(DriverRun {
            mode: DriverMode::AsyncClient,
            ..DriverRun::default()
        });
        assert_eq!(stats.total_requested, 200);
        assert_eq!(stats.started, 200);
        assert!(stats.completed_at.is_some());
    }

    #[test]
    fn workarounds_reduce_the_storm_but_async_is_best() {
        let base = DriverRun {
            deadline_ms: 30_000,
            ..DriverRun::default()
        };
        let buggy = run_driver(DriverRun {
            mode: DriverMode::BuggySync,
            ..base
        });
        let longer = run_driver(DriverRun {
            mode: DriverMode::LongerInterval,
            ..base
        });
        let eager = run_driver(DriverRun {
            mode: DriverMode::EagerRemove,
            ..base
        });
        let fixed = run_driver(DriverRun {
            mode: DriverMode::AsyncClient,
            ..base
        });
        assert!(longer.total_requested < buggy.total_requested / 2);
        assert!(eager.max_pending <= buggy.max_pending);
        assert!(fixed.total_requested <= longer.total_requested);
        assert!(fixed.total_requested <= eager.total_requested);
    }

    #[test]
    fn no_storm_when_allocation_is_faster_than_the_interval() {
        // The implicit assumption holds: allocation fits in the interval.
        let stats = run_driver(DriverRun {
            mode: DriverMode::BuggySync,
            target: 10,
            alloc_service_ms: 1,
            ..DriverRun::default()
        });
        // The first round asks for all 10; they arrive before round two.
        assert_eq!(stats.total_requested, 10);
        assert!(stats.completed_at.is_some());
    }

    #[test]
    fn rm_failure_during_heartbeat_surfaces_as_typed_error() {
        // Regression: the heartbeat used to `expect()` the allocate call;
        // under an injected RM outage that was a panic, not an error.
        use csi_core::fault::{Channel, FaultKind, FaultSpec, Trigger};
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "rm-down".into(),
            channel: Channel::Yarn,
            op: "allocate".into(),
            kind: FaultKind::Unavailable,
            trigger: Trigger::Always,
        });
        let stats = run_driver_traced(
            DriverRun {
                target: 10,
                deadline_ms: 5_000,
                ..DriverRun::default()
            },
            Some(ctx),
        );
        assert_eq!(stats.error, Some(YarnError::RmUnavailable));
        assert_eq!(stats.started, 0);
        assert!(stats.completed_at.is_none());
    }

    #[test]
    fn injected_allocation_latency_reproduces_the_storm() {
        // FLINK-12342 via the fault plane: the driver's own parameters are
        // the no-storm regime (tiny job, fast allocation), but injected
        // per-ask latency pushes allocation past the heartbeat interval.
        use csi_core::fault::{Channel, FaultKind, FaultSpec, Trigger};
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "rm-slow".into(),
            channel: Channel::Yarn,
            op: "allocate".into(),
            kind: FaultKind::Latency { ms: 600 },
            trigger: Trigger::Always,
        });
        let params = DriverRun {
            target: 20,
            alloc_service_ms: 1,
            deadline_ms: 15_000,
            ..DriverRun::default()
        };
        let clean = run_driver(params);
        assert_eq!(clean.total_requested, 20, "control run must not storm");
        let slow = run_driver_traced(params, Some(ctx));
        assert!(slow.error.is_none(), "latency is not an error");
        assert!(
            slow.total_requested > 20 * 3,
            "expected a request storm, got {} asks",
            slow.total_requested
        );
    }

    fn digest_stats(h: &mut csi_core::hash::Fnv1a, stats: &DriverStats) {
        for s in &stats.history {
            for word in [
                s.at_ms,
                s.total_requested,
                s.pending as u64,
                s.started as u64,
            ] {
                h.bytes(&word.to_le_bytes());
            }
        }
        for word in [
            stats.total_requested,
            stats.max_pending as u64,
            stats.started as u64,
            stats.completed_at.map_or(u64::MAX, |t| t),
        ] {
            h.bytes(&word.to_le_bytes());
        }
        h.bytes(format!("{:?}", stats.error).as_bytes());
    }

    /// Every driver run this crate's figures read, digested: the four
    /// modes across the allocation sweep, a heartbeat that falls exactly
    /// on the deadline, and a run stopped by an RM failure. A change to
    /// the heartbeat loop's timing moves the digest.
    #[test]
    fn driver_runs_hold_their_committed_digest() {
        use csi_core::fault::{Channel, FaultKind, FaultSpec, Trigger};
        let mut h = csi_core::hash::Fnv1a::new();
        for mode in [
            DriverMode::BuggySync,
            DriverMode::LongerInterval,
            DriverMode::EagerRemove,
            DriverMode::AsyncClient,
        ] {
            for alloc_service_ms in [1, 100, 200] {
                let stats = run_driver(DriverRun {
                    mode,
                    alloc_service_ms,
                    ..DriverRun::default()
                });
                digest_stats(&mut h, &stats);
            }
        }
        // Beats at 0, 500 and 1,000: the last is due exactly at the
        // deadline and still runs.
        let at_deadline = run_driver(DriverRun {
            mode: DriverMode::AsyncClient,
            interval_ms: 500,
            deadline_ms: 1_000,
            ..DriverRun::default()
        });
        assert!(at_deadline.completed_at.is_none());
        assert_eq!(at_deadline.history.last().map(|s| s.at_ms), Some(1_000));
        digest_stats(&mut h, &at_deadline);
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "rm-down-late".into(),
            channel: Channel::Yarn,
            op: "allocate".into(),
            kind: FaultKind::Unavailable,
            trigger: Trigger::OnCall(3),
        });
        let failed = run_driver_traced(
            DriverRun {
                target: 50,
                deadline_ms: 10_000,
                ..DriverRun::default()
            },
            Some(ctx),
        );
        assert_eq!(failed.error, Some(YarnError::RmUnavailable));
        digest_stats(&mut h, &failed);
        assert_eq!(h.finish(), 0xe8bf_9684_3841_e7c6);
    }

    #[test]
    fn allocation_consistency_holds_on_capacity_clusters() {
        let conf = yarn_config::default_yarn_config();
        let ask = Resource::new(1536, 1);
        let got = check_allocation_consistency(ask, &conf, &capacity_scheduler()).unwrap();
        assert_eq!(got, Resource::new(2048, 1));
    }

    #[test]
    fn allocation_consistency_breaks_on_fair_clusters() {
        // FLINK-19141 / Figure 3.
        let conf = yarn_config::default_yarn_config();
        let ask = Resource::new(1536, 1);
        let err = check_allocation_consistency(ask, &conf, &fair_scheduler()).unwrap_err();
        assert!(err.to_string().contains("Could not allocate"), "{err}");
    }
}
