//! Cache geometry configuration.

use crate::replacement::Policy;
use std::fmt;
use tla_types::{LineAddr, LINE_BYTES};

/// Maximum supported associativity. The set-associative storage keeps
/// valid/dirty/tag state as a one-word
/// [`WayMask`](crate::probe::WayMask) bitmap per set, so a set holds at
/// most 64 ways — four times the paper's 16-way LLC. The fully-associative
/// victim cache keeps no per-set masks and is not bound by this limit.
pub const MAX_WAYS: usize = 64;

/// Errors produced when validating a [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Capacity is not a multiple of `ways * LINE_BYTES`.
    CapacityNotDivisible {
        /// Requested capacity in bytes.
        capacity: usize,
        /// Requested associativity.
        ways: usize,
    },
    /// The derived number of sets is not a power of two.
    SetsNotPowerOfTwo {
        /// Derived set count.
        sets: usize,
    },
    /// Associativity of zero was requested.
    ZeroWays,
    /// Associativity exceeds [`MAX_WAYS`] (the width of the one-word
    /// per-set bitmaps).
    TooManyWays {
        /// Requested associativity.
        ways: usize,
    },
    /// The PLRU policy requires a power-of-two associativity.
    PlruNeedsPow2Ways {
        /// Requested associativity.
        ways: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::CapacityNotDivisible { capacity, ways } => write!(
                f,
                "capacity {capacity} B is not divisible by {ways} ways of {LINE_BYTES} B lines"
            ),
            ConfigError::SetsNotPowerOfTwo { sets } => {
                write!(f, "derived set count {sets} is not a power of two")
            }
            ConfigError::ZeroWays => write!(f, "associativity must be at least 1"),
            ConfigError::TooManyWays { ways } => write!(
                f,
                "associativity {ways} exceeds the {MAX_WAYS}-way limit of the one-word set bitmaps"
            ),
            ConfigError::PlruNeedsPow2Ways { ways } => {
                write!(
                    f,
                    "tree PLRU requires power-of-two associativity, got {ways}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Geometry and replacement policy of one cache.
///
/// Line size is fixed at [`LINE_BYTES`] (64 B) as in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    name: String,
    sets: usize,
    ways: usize,
    policy: Policy,
}

impl CacheConfig {
    /// Creates a configuration from a total capacity in bytes and an
    /// associativity. The set count is derived and must come out a power of
    /// two.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the geometry is inconsistent.
    ///
    /// # Examples
    ///
    /// ```
    /// use tla_cache::{CacheConfig, Policy};
    /// let llc = CacheConfig::new("LLC", 2 * 1024 * 1024, 16, Policy::Nru)?;
    /// assert_eq!(llc.sets(), 2048);
    /// # Ok::<(), tla_cache::ConfigError>(())
    /// ```
    pub fn new(
        name: impl Into<String>,
        capacity_bytes: usize,
        ways: usize,
        policy: Policy,
    ) -> Result<Self, ConfigError> {
        if ways == 0 {
            return Err(ConfigError::ZeroWays);
        }
        if ways > MAX_WAYS {
            return Err(ConfigError::TooManyWays { ways });
        }
        let way_bytes = ways * LINE_BYTES;
        if capacity_bytes == 0 || !capacity_bytes.is_multiple_of(way_bytes) {
            return Err(ConfigError::CapacityNotDivisible {
                capacity: capacity_bytes,
                ways,
            });
        }
        let sets = capacity_bytes / way_bytes;
        if !sets.is_power_of_two() {
            return Err(ConfigError::SetsNotPowerOfTwo { sets });
        }
        if policy == Policy::Plru && !ways.is_power_of_two() {
            return Err(ConfigError::PlruNeedsPow2Ways { ways });
        }
        Ok(CacheConfig {
            name: name.into(),
            sets,
            ways,
            policy,
        })
    }

    /// Creates a configuration directly from a set count (must be a power of
    /// two) and associativity.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the geometry is inconsistent.
    pub fn with_sets(
        name: impl Into<String>,
        sets: usize,
        ways: usize,
        policy: Policy,
    ) -> Result<Self, ConfigError> {
        Self::new(name, sets * ways * LINE_BYTES, ways, policy)
    }

    /// Human-readable cache name used in reports (e.g. `"LLC"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of sets (a power of two).
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Replacement policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * LINE_BYTES
    }

    /// The set a line maps to.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() & (self.sets as u64 - 1)) as usize
    }

    /// Returns a copy with a different replacement policy.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the policy is incompatible with the
    /// geometry (PLRU with non-power-of-two ways).
    pub fn with_policy(&self, policy: Policy) -> Result<Self, ConfigError> {
        if policy == Policy::Plru && !self.ways.is_power_of_two() {
            return Err(ConfigError::PlruNeedsPow2Ways { ways: self.ways });
        }
        Ok(CacheConfig {
            policy,
            ..self.clone()
        })
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} KB, {}-way, {} sets, {}",
            self.name,
            self.capacity_bytes() / 1024,
            self.ways,
            self.sets,
            self.policy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_paper_geometries() {
        // The paper's baseline caches (§IV-A).
        let l1 = CacheConfig::new("L1D", 32 * 1024, 4, Policy::Lru).unwrap();
        assert_eq!(l1.sets(), 128);
        let l2 = CacheConfig::new("L2", 256 * 1024, 8, Policy::Lru).unwrap();
        assert_eq!(l2.sets(), 512);
        let llc = CacheConfig::new("LLC", 2 * 1024 * 1024, 16, Policy::Nru).unwrap();
        assert_eq!(llc.sets(), 2048);
        assert_eq!(llc.capacity_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(matches!(
            CacheConfig::new("x", 1000, 4, Policy::Lru),
            Err(ConfigError::CapacityNotDivisible { .. })
        ));
        assert!(matches!(
            CacheConfig::new("x", 3 * 64 * 4, 4, Policy::Lru),
            Err(ConfigError::SetsNotPowerOfTwo { sets: 3 })
        ));
        assert!(matches!(
            CacheConfig::new("x", 64, 0, Policy::Lru),
            Err(ConfigError::ZeroWays)
        ));
        assert!(matches!(
            CacheConfig::new("x", 64 * 12 * 16, 12, Policy::Plru),
            Err(ConfigError::PlruNeedsPow2Ways { ways: 12 })
        ));
    }

    #[test]
    fn rejects_more_than_sixty_four_ways() {
        // 65 ways with 1 set is otherwise a consistent geometry, but the
        // one-word set bitmaps cap associativity at 64.
        for ways in [65, 128, 256] {
            assert_eq!(
                CacheConfig::with_sets("x", 1, ways, Policy::Lru),
                Err(ConfigError::TooManyWays { ways })
            );
        }
        let err = CacheConfig::new("x", 65 * 64, 65, Policy::Nru).unwrap_err();
        assert_eq!(err, ConfigError::TooManyWays { ways: 65 });
        assert!(err.to_string().contains("64-way limit"), "{err}");
        assert!(CacheConfig::with_sets("x", 1, 64, Policy::Lru).is_ok());
        assert!(CacheConfig::with_sets("x", 2, 64, Policy::Plru).is_ok());
    }

    #[test]
    fn set_mapping_masks_low_bits() {
        let cfg = CacheConfig::with_sets("t", 16, 2, Policy::Lru).unwrap();
        assert_eq!(cfg.set_of(LineAddr::new(0)), 0);
        assert_eq!(cfg.set_of(LineAddr::new(17)), 1);
        assert_eq!(cfg.set_of(LineAddr::new(31)), 15);
    }

    #[test]
    fn with_policy_swaps() {
        let cfg = CacheConfig::with_sets("t", 16, 16, Policy::Nru).unwrap();
        let lru = cfg.with_policy(Policy::Lru).unwrap();
        assert_eq!(lru.policy(), Policy::Lru);
        assert_eq!(lru.sets(), cfg.sets());
        // error text is printable
        let err = CacheConfig::new("x", 64, 0, Policy::Lru).unwrap_err();
        assert!(!err.to_string().is_empty());
    }
}
