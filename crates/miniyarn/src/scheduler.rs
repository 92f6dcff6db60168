//! Schedulers and their (deliberately, faithfully) inconsistent request
//! normalization semantics.

use crate::config::{increment_allocation, max_allocation, min_allocation};
use crate::error::YarnError;
use crate::resource::Resource;
use csi_core::config::ConfigMap;

/// Which scheduler implementation a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// The CapacityScheduler (the default).
    Capacity,
    /// The FairScheduler.
    Fair,
}

/// Scheduler-side normalization of a container request.
pub trait Scheduler {
    /// Scheduler kind.
    fn kind(&self) -> SchedulerKind;

    /// Normalizes an ask into the resource YARN will actually allocate, or
    /// rejects it.
    ///
    /// Both implementations are individually correct; they simply use
    /// different configuration keys with different meanings. That is the
    /// discrepancy of FLINK-19141.
    fn normalize(&self, ask: Resource, config: &ConfigMap) -> Result<Resource, YarnError>;
}

/// The CapacityScheduler: asks are raised to at least the minimum
/// allocation and rounded up to a multiple of it.
#[derive(Debug, Default, Clone, Copy)]
pub struct CapacityScheduler;

impl Scheduler for CapacityScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Capacity
    }

    fn normalize(&self, ask: Resource, config: &ConfigMap) -> Result<Resource, YarnError> {
        let min = min_allocation(config);
        let max = max_allocation(config);
        let normalized = ask.component_max(&min).round_up_to(&min);
        if !normalized.fits_in(&max) {
            return Err(YarnError::InvalidResourceRequest {
                ask: normalized,
                max,
            });
        }
        Ok(normalized)
    }
}

/// The FairScheduler: the minimum allocation is only a floor; rounding uses
/// the *increment* allocation keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FairScheduler;

impl Scheduler for FairScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Fair
    }

    fn normalize(&self, ask: Resource, config: &ConfigMap) -> Result<Resource, YarnError> {
        let min = min_allocation(config);
        let inc = increment_allocation(config);
        let max = max_allocation(config);
        let normalized = ask.component_max(&min).round_up_to(&inc);
        if !normalized.fits_in(&max) {
            return Err(YarnError::InvalidResourceRequest {
                ask: normalized,
                max,
            });
        }
        Ok(normalized)
    }
}

/// Instantiates the scheduler configured under
/// [`crate::config::SCHEDULER_CLASS`]; unknown classes fall back to the
/// CapacityScheduler, matching YARN's default.
pub(crate) fn scheduler_from_config(config: &ConfigMap) -> Box<dyn Scheduler + Send> {
    match config.get(crate::config::SCHEDULER_CLASS) {
        Some(class) if class.contains("FairScheduler") => Box::new(FairScheduler),
        _ => Box::new(CapacityScheduler),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{self, default_yarn_config};

    #[test]
    fn capacity_rounds_to_minimum_allocation_multiples() {
        let c = default_yarn_config();
        // min = 1024 MB / 1 vcore.
        let got = CapacityScheduler
            .normalize(Resource::new(1536, 1), &c)
            .unwrap();
        assert_eq!(got, Resource::new(2048, 1));
        // Small asks are raised to the minimum.
        let got = CapacityScheduler
            .normalize(Resource::new(100, 1), &c)
            .unwrap();
        assert_eq!(got, Resource::new(1024, 1));
    }

    #[test]
    fn fair_rounds_to_increment_allocation_multiples() {
        let c = default_yarn_config();
        // inc = 512 MB; min = 1024 MB only floors.
        let got = FairScheduler.normalize(Resource::new(1536, 1), &c).unwrap();
        assert_eq!(got, Resource::new(1536, 1));
        let got = FairScheduler.normalize(Resource::new(1600, 1), &c).unwrap();
        assert_eq!(got, Resource::new(2048, 1));
    }

    #[test]
    fn same_ask_same_config_different_answers() {
        // The FLINK-19141 discrepancy in one assertion: identical ask and
        // identical configuration, two different allocations depending on
        // the scheduler actually deployed.
        let c = default_yarn_config();
        let ask = Resource::new(1536, 1);
        let cap = CapacityScheduler.normalize(ask, &c).unwrap();
        let fair = FairScheduler.normalize(ask, &c).unwrap();
        assert_ne!(cap, fair);
    }

    #[test]
    fn both_schedulers_enforce_maximum() {
        let c = default_yarn_config();
        let huge = Resource::new(100_000, 1);
        assert!(matches!(
            CapacityScheduler.normalize(huge, &c),
            Err(YarnError::InvalidResourceRequest { .. })
        ));
        assert!(matches!(
            FairScheduler.normalize(huge, &c),
            Err(YarnError::InvalidResourceRequest { .. })
        ));
    }

    #[test]
    fn normalization_can_push_a_valid_ask_over_the_maximum() {
        // An ask that fits the maximum can be *rejected after rounding* —
        // surprising but correct behavior that upstreams must anticipate.
        let mut c = default_yarn_config();
        c.set(config::MIN_ALLOC_MB, "3072", "test");
        c.set(config::MAX_ALLOC_MB, "4096", "test");
        let ask = Resource::new(4000, 1);
        assert!(CapacityScheduler.normalize(ask, &c).is_err()); // 4000 -> 6144 > 4096.
    }

    #[test]
    fn scheduler_class_selection() {
        let mut c = default_yarn_config();
        assert_eq!(scheduler_from_config(&c).kind(), SchedulerKind::Capacity);
        c.set(
            config::SCHEDULER_CLASS,
            "org.apache.hadoop.yarn.server.resourcemanager.scheduler.fair.FairScheduler",
            "test",
        );
        assert_eq!(scheduler_from_config(&c).kind(), SchedulerKind::Fair);
    }
}
