//! YARN configuration keys and defaults.
//!
//! The keys in this module carry the *inconsistent semantics* at the heart
//! of FLINK-19141 (Figure 3): the CapacityScheduler normalizes container
//! requests to multiples of `yarn.scheduler.minimum-allocation-*`, while the
//! FairScheduler treats those keys only as a floor and instead rounds to
//! multiples of `yarn.resource-types.*.increment-allocation`. Both behaviors
//! are documented and correct; an upstream that reads the former keys while
//! the cluster runs the latter scheduler miscalculates what YARN will
//! actually hand out.

use crate::resource::Resource;
use csi_core::config::ConfigMap;

/// `yarn.scheduler.minimum-allocation-mb`.
pub const MIN_ALLOC_MB: &str = "yarn.scheduler.minimum-allocation-mb";
/// `yarn.scheduler.minimum-allocation-vcores`.
pub const MIN_ALLOC_VCORES: &str = "yarn.scheduler.minimum-allocation-vcores";
/// `yarn.scheduler.maximum-allocation-mb`.
pub const MAX_ALLOC_MB: &str = "yarn.scheduler.maximum-allocation-mb";
/// `yarn.scheduler.maximum-allocation-vcores`.
pub const MAX_ALLOC_VCORES: &str = "yarn.scheduler.maximum-allocation-vcores";
/// `yarn.resource-types.memory-mb.increment-allocation` (FairScheduler).
pub const INC_ALLOC_MB: &str = "yarn.resource-types.memory-mb.increment-allocation";
/// `yarn.resource-types.vcores.increment-allocation` (FairScheduler).
pub const INC_ALLOC_VCORES: &str = "yarn.resource-types.vcores.increment-allocation";
/// `yarn.nodemanager.pmem-check-enabled`.
pub const PMEM_CHECK_ENABLED: &str = "yarn.nodemanager.pmem-check-enabled";
/// `yarn.resourcemanager.scheduler.class`.
pub const SCHEDULER_CLASS: &str = "yarn.resourcemanager.scheduler.class";

/// Builds a `yarn-site.xml`-like [`ConfigMap`] with YARN's defaults.
pub fn default_yarn_config() -> ConfigMap {
    let mut c = ConfigMap::new("yarn");
    let src = "yarn-default.xml";
    c.set(MIN_ALLOC_MB, "1024", src);
    c.set(MIN_ALLOC_VCORES, "1", src);
    c.set(MAX_ALLOC_MB, "8192", src);
    c.set(MAX_ALLOC_VCORES, "4", src);
    c.set(INC_ALLOC_MB, "512", src);
    c.set(INC_ALLOC_VCORES, "1", src);
    c.set(PMEM_CHECK_ENABLED, "true", src);
    c.set(
        SCHEDULER_CLASS,
        "org.apache.hadoop.yarn.server.resourcemanager.scheduler.capacity.CapacityScheduler",
        src,
    );
    c
}

fn get_u64(config: &ConfigMap, key: &str, default: u64) -> u64 {
    match config.get_i64(key) {
        Some(Ok(v)) if v >= 0 => v as u64,
        _ => default,
    }
}

/// Reads the minimum-allocation resource from a config.
pub fn min_allocation(config: &ConfigMap) -> Resource {
    Resource::new(
        get_u64(config, MIN_ALLOC_MB, 1024),
        get_u64(config, MIN_ALLOC_VCORES, 1) as u32,
    )
}

/// Reads the maximum-allocation resource from a config.
pub fn max_allocation(config: &ConfigMap) -> Resource {
    Resource::new(
        get_u64(config, MAX_ALLOC_MB, 8192),
        get_u64(config, MAX_ALLOC_VCORES, 4) as u32,
    )
}

/// Reads the increment-allocation resource from a config (FairScheduler).
pub(crate) fn increment_allocation(config: &ConfigMap) -> Resource {
    Resource::new(
        get_u64(config, INC_ALLOC_MB, 512),
        get_u64(config, INC_ALLOC_VCORES, 1) as u32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_complete() {
        let c = default_yarn_config();
        assert_eq!(min_allocation(&c), Resource::new(1024, 1));
        assert_eq!(max_allocation(&c), Resource::new(8192, 4));
        assert_eq!(increment_allocation(&c), Resource::new(512, 1));
        assert_eq!(c.get_bool(PMEM_CHECK_ENABLED), Some(Ok(true)));
    }

    #[test]
    fn malformed_values_fall_back_to_defaults() {
        let mut c = default_yarn_config();
        c.set(MIN_ALLOC_MB, "not-a-number", "test");
        assert_eq!(min_allocation(&c).memory_mb, 1024);
    }
}
