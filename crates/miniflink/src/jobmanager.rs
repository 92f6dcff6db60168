//! The Flink JobManager's memory model and its YARN container sizing.
//!
//! FLINK-887: the JobManager runs inside a YARN container, but its JVM uses
//! more physical memory than the heap size Flink requested for the
//! container — so YARN's pmem monitor kills it. Neither side is buggy: the
//! JVM is allowed to allocate off-heap memory, and the monitor is doing its
//! documented job. The discrepancy is in the sizing policy.

use miniyarn::{ApplicationId, ContainerId, Resource, ResourceManager, YarnError};

/// How the JVM inside the JobManager container uses memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModel {
    /// Configured JVM heap, MB.
    pub heap_mb: u64,
    /// Direct/off-heap allocations, MB.
    pub off_heap_mb: u64,
}

impl MemoryModel {
    /// JVM metaspace-and-overhead floor, MB.
    pub const JVM_OVERHEAD_FLOOR_MB: u64 = 192;

    /// Total physical memory the process tree actually uses.
    pub(crate) fn process_size_mb(&self) -> u64 {
        let overhead = Self::JVM_OVERHEAD_FLOOR_MB.max((self.heap_mb + self.off_heap_mb) / 10);
        self.heap_mb + self.off_heap_mb + overhead
    }
}

/// Container sizing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizingPolicy {
    /// Request exactly the configured heap (the shipped FLINK-887
    /// behavior): the JVM's real footprint exceeds the container.
    HeapOnly,
    /// Request the full process size and shrink the heap to leave a safety
    /// cutoff (the fix).
    ProcessSizeWithCutoff,
}

/// A JobManager deployment specification.
#[derive(Debug, Clone, Copy)]
pub struct JobManagerSpec {
    /// The memory model of the JVM that will run.
    pub memory: MemoryModel,
    /// The sizing policy in effect.
    pub policy: SizingPolicy,
    /// vcores for the container.
    pub vcores: u32,
}

impl JobManagerSpec {
    /// The container resource Flink requests from YARN.
    pub fn container_request(&self) -> Resource {
        let mb = match self.policy {
            SizingPolicy::HeapOnly => self.memory.heap_mb,
            SizingPolicy::ProcessSizeWithCutoff => self.memory.process_size_mb(),
        };
        Resource::new(mb, self.vcores)
    }
}

/// Outcome of launching a JobManager and running it under the pmem monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchOutcome {
    /// The JobManager is running.
    Running(ContainerId),
    /// YARN's pmem monitor killed the container; the payload is the kill
    /// reason from the NodeManager log.
    KilledByPmemMonitor {
        /// The killed container.
        container: ContainerId,
        /// NodeManager's kill message.
        reason: String,
    },
}

/// Launches a JobManager on YARN and immediately exercises the pmem
/// monitor against the JVM's true footprint.
pub fn launch_jobmanager(
    rm: &mut ResourceManager,
    app: ApplicationId,
    spec: &JobManagerSpec,
) -> Result<LaunchOutcome, YarnError> {
    rm.add_container_request(app, spec.container_request())?;
    rm.advance_clock(1_000);
    let resp = rm.allocate(app)?;
    let container = resp
        .allocated
        .first()
        .ok_or(YarnError::UnknownContainer(0))?
        .id;
    rm.start_container(container)?;
    // The JVM starts and reaches its steady-state footprint.
    rm.report_container_pmem(container, spec.memory.process_size_mb())?;
    let killed = rm.enforce_pmem();
    if killed.contains(&container) {
        let reason = match &rm.container(container).expect("exists").state {
            miniyarn::ContainerState::Killed { reason } => reason.clone(),
            other => format!("{other:?}"),
        };
        Ok(LaunchOutcome::KilledByPmemMonitor { container, reason })
    } else {
        Ok(LaunchOutcome::Running(container))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> (ResourceManager, ApplicationId) {
        let mut rm = ResourceManager::with_nodes(2, Resource::new(16384, 16));
        let app = rm.register_application("flink");
        (rm, app)
    }

    #[test]
    fn heap_only_sizing_gets_killed() {
        // FLINK-887 end to end.
        let (mut rm, app) = cluster();
        let spec = JobManagerSpec {
            memory: MemoryModel {
                heap_mb: 2048,
                off_heap_mb: 256,
            },
            policy: SizingPolicy::HeapOnly,
            vcores: 1,
        };
        match launch_jobmanager(&mut rm, app, &spec).unwrap() {
            LaunchOutcome::KilledByPmemMonitor { reason, .. } => {
                assert!(reason.contains("beyond physical memory limits"));
            }
            other => panic!("expected a pmem kill, got {other:?}"),
        }
    }

    #[test]
    fn process_size_sizing_survives() {
        let (mut rm, app) = cluster();
        let spec = JobManagerSpec {
            memory: MemoryModel {
                heap_mb: 2048,
                off_heap_mb: 256,
            },
            policy: SizingPolicy::ProcessSizeWithCutoff,
            vcores: 1,
        };
        assert!(matches!(
            launch_jobmanager(&mut rm, app, &spec).unwrap(),
            LaunchOutcome::Running(_)
        ));
    }

    #[test]
    fn process_size_includes_jvm_overhead_floor() {
        let small = MemoryModel {
            heap_mb: 512,
            off_heap_mb: 0,
        };
        assert_eq!(small.process_size_mb(), 512 + 192);
        let big = MemoryModel {
            heap_mb: 8192,
            off_heap_mb: 1808,
        };
        assert_eq!(big.process_size_mb(), 8192 + 1808 + 1000);
    }
}
