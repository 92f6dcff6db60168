//! Container resource vectors.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A resource vector: memory in MB and virtual cores.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Resource {
    /// Memory, in megabytes.
    pub memory_mb: u64,
    /// Virtual cores.
    pub vcores: u32,
}

impl Resource {
    /// Creates a resource vector.
    pub const fn new(memory_mb: u64, vcores: u32) -> Resource {
        Resource { memory_mb, vcores }
    }

    /// Whether `self` fits within `capacity` on both dimensions.
    pub fn fits_in(&self, capacity: &Resource) -> bool {
        self.memory_mb <= capacity.memory_mb && self.vcores <= capacity.vcores
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, other: &Resource) -> Resource {
        Resource {
            memory_mb: self.memory_mb.saturating_sub(other.memory_mb),
            vcores: self.vcores.saturating_sub(other.vcores),
        }
    }

    /// Rounds each dimension *up* to a multiple of the given step, with a
    /// zero step treated as 1.
    pub fn round_up_to(&self, step: &Resource) -> Resource {
        fn round(v: u64, s: u64) -> u64 {
            let s = s.max(1);
            v.div_ceil(s) * s
        }
        Resource {
            memory_mb: round(self.memory_mb, step.memory_mb),
            vcores: round(self.vcores as u64, step.vcores.max(1) as u64) as u32,
        }
    }

    /// Component-wise maximum.
    pub fn component_max(&self, other: &Resource) -> Resource {
        Resource {
            memory_mb: self.memory_mb.max(other.memory_mb),
            vcores: self.vcores.max(other.vcores),
        }
    }
}

impl Add for Resource {
    type Output = Resource;
    fn add(self, rhs: Resource) -> Resource {
        Resource {
            memory_mb: self.memory_mb + rhs.memory_mb,
            vcores: self.vcores + rhs.vcores,
        }
    }
}

impl AddAssign for Resource {
    fn add_assign(&mut self, rhs: Resource) {
        *self = *self + rhs;
    }
}

impl Sub for Resource {
    type Output = Resource;
    fn sub(self, rhs: Resource) -> Resource {
        self.saturating_sub(&rhs)
    }
}

impl SubAssign for Resource {
    fn sub_assign(&mut self, rhs: Resource) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<memory:{}MB, vCores:{}>", self.memory_mb, self.vcores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_in_requires_both_dimensions() {
        let cap = Resource::new(4096, 4);
        assert!(Resource::new(1024, 2).fits_in(&cap));
        assert!(!Resource::new(8192, 1).fits_in(&cap));
        assert!(!Resource::new(1024, 8).fits_in(&cap));
    }

    #[test]
    fn round_up_to_multiples() {
        let ask = Resource::new(1000, 3);
        let step = Resource::new(512, 2);
        assert_eq!(ask.round_up_to(&step), Resource::new(1024, 4));
        // Exact multiples are unchanged.
        assert_eq!(
            Resource::new(1024, 4).round_up_to(&step),
            Resource::new(1024, 4)
        );
        // A zero step behaves as 1.
        assert_eq!(
            ask.round_up_to(&Resource::new(0, 0)),
            Resource::new(1000, 3)
        );
    }

    #[test]
    fn arithmetic_saturates() {
        let a = Resource::new(100, 2);
        let b = Resource::new(300, 1);
        assert_eq!(a + b, Resource::new(400, 3));
        assert_eq!(a - b, Resource::new(0, 1));
        let mut c = b;
        c -= a;
        assert_eq!(c, Resource::new(200, 0));
    }

    #[test]
    fn component_wise_max() {
        assert_eq!(
            Resource::new(100, 8).component_max(&Resource::new(200, 2)),
            Resource::new(200, 8)
        );
    }
}
