//! Spark's YARN connector: executor resource calculation and cluster
//! metrics access.
//!
//! Carries two studied discrepancies:
//!
//! - **SPARK-2604**: Spark validated `spark.executor.memory` against
//!   YARN's maximum allocation *without* the memory overhead it actually
//!   requests, so an "accepted" configuration produced container asks that
//!   YARN rejected. Shipped and fixed validators are provided.
//! - **YARN-9724**: Spark assumed `getYarnClusterMetrics` is available in
//!   every deployment mode; in federation mode the call fails.

use crate::config::{SparkConfig, EXECUTOR_CORES, EXECUTOR_MEMORY_MB, EXECUTOR_MEMORY_OVERHEAD_MB};
use crate::error::SparkError;
use csi_core::boundary::{BoundaryCall, CrossingContext};
use csi_core::fault::Channel;
use csi_core::plane::{Plane, SystemId};
use miniyarn::{Resource, ResourceManager};

/// Minimum executor memory overhead, MB (Spark's documented constant).
pub const MIN_OVERHEAD_MB: u64 = 384;

/// The memory overhead Spark adds to each executor container.
pub(crate) fn executor_overhead_mb(config: &SparkConfig) -> u64 {
    if let Some(Ok(v)) = config.map().get_i64(EXECUTOR_MEMORY_OVERHEAD_MB) {
        return v.max(0) as u64;
    }
    let mem = executor_memory_mb(config);
    MIN_OVERHEAD_MB.max(mem / 10)
}

/// `spark.executor.memory`, MB.
pub(crate) fn executor_memory_mb(config: &SparkConfig) -> u64 {
    match config.map().get_i64(EXECUTOR_MEMORY_MB) {
        Some(Ok(v)) if v > 0 => v as u64,
        _ => 1024,
    }
}

/// The container resource Spark actually requests for one executor:
/// memory + overhead.
pub fn executor_container_request(config: &SparkConfig) -> Resource {
    let cores = match config.map().get_i64(EXECUTOR_CORES) {
        Some(Ok(v)) if v > 0 => v as u32,
        _ => 1,
    };
    Resource::new(
        executor_memory_mb(config) + executor_overhead_mb(config),
        cores,
    )
}

/// Validation mode for executor sizing (SPARK-2604).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizingCheck {
    /// Validate the raw executor memory only (shipped, inconsistent with
    /// what is actually requested).
    Shipped,
    /// Validate memory + overhead, the amount actually requested (fixed).
    Fixed,
}

/// Validates an executor configuration against the cluster's maximum
/// allocation the way `Client.verifyClusterResources` does.
pub fn validate_executor_sizing(
    config: &SparkConfig,
    max_allocation: Resource,
    check: SizingCheck,
) -> Result<(), SparkError> {
    let checked_mb = match check {
        SizingCheck::Shipped => executor_memory_mb(config),
        SizingCheck::Fixed => executor_memory_mb(config) + executor_overhead_mb(config),
    };
    if checked_mb > max_allocation.memory_mb {
        return Err(SparkError::analysis(
            "EXECUTOR_MEMORY_EXCEEDS_MAX",
            format!(
                "Required executor memory ({checked_mb} MB) is above the max threshold \
                 ({} MB) of this cluster",
                max_allocation.memory_mb
            ),
        ));
    }
    Ok(())
}

/// Fetches cluster metrics, as `Client.getYarnClusterMetrics` does —
/// assuming the API exists in the deployed mode (YARN-9724). Spark's
/// management-plane crossing is recorded in `ctx` (the RM's own boundary,
/// when wired, traces the serving side); callers without a trace pass
/// [`CrossingContext::disabled`].
pub fn cluster_metrics(
    rm: &ResourceManager,
    ctx: &CrossingContext,
) -> Result<miniyarn::ClusterMetrics, SparkError> {
    ctx.record(
        BoundaryCall::new(Channel::Yarn, "cluster_metrics")
            .from_upstream(SystemId::Spark)
            .with_plane(Plane::Management)
            .with_payload("cluster"),
    );
    rm.get_cluster_metrics().map_err(|e| SparkError::Connector {
        code: "YARN_METRICS",
        message: e.to_string(),
    })
}

/// How a Spark job actually ended, from the driver's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// All stages completed.
    Succeeded,
    /// The driver observed a failure.
    Failed,
    /// The driver exited without reporting anything (the SPARK-10851 R
    /// runner shape: no exception, just a silent exit).
    ExitedSilently,
}

/// The final status the ApplicationMaster registers with YARN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalStatus {
    /// Reported SUCCEEDED.
    Succeeded,
    /// Reported FAILED.
    Failed,
    /// Reported UNDEFINED (YARN's default when nothing was registered).
    Undefined,
}

/// Final-status reporting behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusReporting {
    /// The shipped paths of SPARK-3627 / SPARK-10851: failed jobs register
    /// SUCCEEDED, silent exits register nothing.
    Shipped,
    /// The fix: the registered status reflects the observed outcome, and a
    /// silent exit is treated as a failure.
    Fixed,
}

/// The status the AM registers for a given outcome — the management-plane
/// observability discrepancy of Section 6.2.2.
///
/// Under [`StatusReporting::Shipped`], YARN's view of a failed job is
/// *success* — every downstream consumer of the monitoring signal (alerts,
/// retry policies, workflow engines) is silently misled.
pub fn register_final_status(outcome: JobOutcome, mode: StatusReporting) -> FinalStatus {
    match (mode, outcome) {
        (StatusReporting::Shipped, JobOutcome::Succeeded) => FinalStatus::Succeeded,
        // SPARK-3627: "Spark reports success for failed YARN jobs".
        (StatusReporting::Shipped, JobOutcome::Failed) => FinalStatus::Succeeded,
        // SPARK-10851: nothing is thrown, nothing is registered.
        (StatusReporting::Shipped, JobOutcome::ExitedSilently) => FinalStatus::Undefined,
        (StatusReporting::Fixed, JobOutcome::Succeeded) => FinalStatus::Succeeded,
        (StatusReporting::Fixed, JobOutcome::Failed | JobOutcome::ExitedSilently) => {
            FinalStatus::Failed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniyarn::rm::RmMode;

    #[test]
    fn overhead_is_max_of_floor_and_ten_percent() {
        let mut c = SparkConfig::new();
        c.set(EXECUTOR_MEMORY_MB, "1024");
        assert_eq!(executor_overhead_mb(&c), 384);
        c.set(EXECUTOR_MEMORY_MB, "8192");
        assert_eq!(executor_overhead_mb(&c), 819);
        c.set(EXECUTOR_MEMORY_OVERHEAD_MB, "512");
        assert_eq!(executor_overhead_mb(&c), 512);
    }

    #[test]
    fn shipped_check_accepts_what_yarn_rejects() {
        // SPARK-2604: executor memory 8000 MB fits the 8192 MB maximum,
        // but the actual ask (8000 + 800) does not.
        let mut c = SparkConfig::new();
        c.set(EXECUTOR_MEMORY_MB, "8000");
        let max = Resource::new(8192, 8);
        validate_executor_sizing(&c, max, SizingCheck::Shipped).unwrap();
        let ask = executor_container_request(&c);
        assert!(!ask.fits_in(&max)); // YARN will reject the real request.
                                     // The fixed validator catches it up front.
        assert!(validate_executor_sizing(&c, max, SizingCheck::Fixed).is_err());
    }

    #[test]
    fn shipped_status_reporting_misleads_yarn() {
        // SPARK-3627: failure registers as success.
        assert_eq!(
            register_final_status(JobOutcome::Failed, StatusReporting::Shipped),
            FinalStatus::Succeeded
        );
        // SPARK-10851: a silent exit registers nothing.
        assert_eq!(
            register_final_status(JobOutcome::ExitedSilently, StatusReporting::Shipped),
            FinalStatus::Undefined
        );
    }

    #[test]
    fn fixed_status_reporting_is_faithful() {
        for (outcome, want) in [
            (JobOutcome::Succeeded, FinalStatus::Succeeded),
            (JobOutcome::Failed, FinalStatus::Failed),
            (JobOutcome::ExitedSilently, FinalStatus::Failed),
        ] {
            assert_eq!(register_final_status(outcome, StatusReporting::Fixed), want);
        }
    }

    #[test]
    fn metrics_fail_in_federation_mode() {
        let off = CrossingContext::disabled();
        let rm = ResourceManager::new(miniyarn::config::default_yarn_config(), RmMode::Federation);
        let err = cluster_metrics(&rm, &off).unwrap_err();
        assert_eq!(err.code(), "YARN_METRICS");
        let rm = ResourceManager::with_nodes(1, Resource::new(4096, 4));
        assert!(cluster_metrics(&rm, &off).is_ok());
    }
}
