//! Simulation configuration.
//!
//! [`DbConfig`] gathers the knobs the paper's evaluation section varies or
//! holds fixed: page size (always 8 KB), partition size in pages (24–100,
//! with 48 for the headline tables), buffer size (always equal to one
//! partition), the garbage-collection trigger (a fixed number of pointer
//! overwrites, 150–300), and the maximum object weight used by the
//! `WeightedPointer` policy (16, i.e. 4 bits).

use crate::error::{PgcError, Result};
use crate::units::{Bytes, PageCount, DEFAULT_PAGE_SIZE};

/// How new objects are placed among partitions.
///
/// The paper's test database "attempts to place a new object near its
/// parent" — the clustering that makes a dying subtree leave *concentrated*
/// garbage. The alternatives exist for ablations of that premise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Try the parent's partition first, then any partition with room
    /// (the paper's policy).
    #[default]
    NearParent,
    /// Ignore the parent: first existing partition with room.
    FirstFit,
    /// Ignore the parent: rotate through partitions with room, spreading
    /// related objects apart (an anti-clustering worst case).
    Spread,
}

/// Static configuration of the simulated object database.
///
/// Construct with [`DbConfig::default`] and adjust with the `with_*`
/// builders; [`DbConfig::validate`] is called by the database constructor,
/// so invalid combinations are rejected before any simulation runs.
///
/// ```
/// use pgc_types::DbConfig;
///
/// let cfg = DbConfig::default()
///     .with_partition_pages(48)
///     .with_gc_overwrite_threshold(200);
/// assert_eq!(cfg.partition_bytes().get(), 48 * 8192);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbConfig {
    /// Size of one page in bytes. The paper uses 8 KB pages throughout.
    pub page_size: usize,
    /// Number of pages per partition (paper: 24–100, default 48).
    pub partition_pages: u64,
    /// Number of page frames in the I/O buffer. The paper always sizes the
    /// buffer equal to one partition.
    pub buffer_pages: u64,
    /// Garbage collection is triggered after this many pointer *overwrites*
    /// (stores that replace a previously non-null pointer). Paper: 150–300.
    pub gc_overwrite_threshold: u64,
    /// Maximum object weight for the `WeightedPointer` policy. The paper
    /// stores weights in 4 bits, so the maximum (and default) is 16;
    /// 1..=32 is accepted.
    pub max_weight: u8,
    /// Object placement among partitions (paper: near the parent).
    pub placement: PlacementPolicy,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self {
            page_size: DEFAULT_PAGE_SIZE,
            partition_pages: 48,
            buffer_pages: 48,
            gc_overwrite_threshold: 250,
            max_weight: 16,
            placement: PlacementPolicy::NearParent,
        }
    }
}

impl DbConfig {
    /// Sets the page size in bytes.
    #[must_use]
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Sets the partition size in pages **and** keeps the buffer the same
    /// size as one partition, following the paper's experimental setup. Use
    /// [`DbConfig::with_buffer_pages`] afterwards to decouple them.
    #[must_use]
    pub fn with_partition_pages(mut self, pages: u64) -> Self {
        self.partition_pages = pages;
        self.buffer_pages = pages;
        self
    }

    /// Sets the buffer size in page frames.
    #[must_use]
    pub fn with_buffer_pages(mut self, pages: u64) -> Self {
        self.buffer_pages = pages;
        self
    }

    /// Sets the number of pointer overwrites between collections.
    #[must_use]
    pub fn with_gc_overwrite_threshold(mut self, overwrites: u64) -> Self {
        self.gc_overwrite_threshold = overwrites;
        self
    }

    /// Sets the maximum object weight (the `WeightedPointer` cap).
    #[must_use]
    pub fn with_max_weight(mut self, max_weight: u8) -> Self {
        self.max_weight = max_weight;
        self
    }

    /// Sets the object placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Capacity of one partition in bytes.
    #[inline]
    pub fn partition_bytes(&self) -> Bytes {
        PageCount(self.partition_pages).bytes(self.page_size)
    }

    /// Checks internal consistency; returns a descriptive error for the
    /// first violated constraint.
    pub fn validate(&self) -> Result<()> {
        // Page indices are shifts by the page size's trailing zeros.
        if !self.page_size.is_power_of_two() {
            return Err(PgcError::InvalidConfig("page_size must be a power of two"));
        }
        if self.partition_pages == 0 {
            return Err(PgcError::InvalidConfig("partition_pages must be positive"));
        }
        if self.buffer_pages == 0 {
            return Err(PgcError::InvalidConfig("buffer_pages must be positive"));
        }
        if self.gc_overwrite_threshold == 0 {
            return Err(PgcError::InvalidConfig(
                "gc_overwrite_threshold must be positive",
            ));
        }
        if self.max_weight == 0 {
            return Err(PgcError::InvalidConfig("max_weight must be positive"));
        }
        // `WeightedPointer` sums `2^(max_weight - w)` per overwrite into a
        // `u64` per partition: 32 leaves 2^32 overwrites of headroom.
        if self.max_weight > 32 {
            return Err(PgcError::InvalidConfig("max_weight must be at most 32"));
        }
        // The buffer's page -> frame table is one `u32` (frame index + 1)
        // per page of address space, partitions x `partition_pages`: 2^31
        // frames keep the `+ 1` representable, and 2^20 pages (an 8 GiB
        // partition at 8 KB pages; the paper uses 24-100) keep the table at
        // 4 MiB per partition and every page index far inside a `u64`.
        if self.buffer_pages > 1 << 31 || self.partition_pages > 1 << 20 {
            return Err(PgcError::InvalidConfig(
                "buffer_pages must be at most 2^31 and partition_pages at most 2^20",
            ));
        }
        // A partition is `partition_pages x page_size` bytes, multiplied
        // unchecked: 2^30 (1 GiB pages; the paper's are 8 KB) keeps the
        // product at most 2^50, and the footprint of 2^14 partitions that
        // wide inside a `u64`.
        if self.page_size > 1 << 30 {
            return Err(PgcError::InvalidConfig("page_size must be at most 2^30"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_headline_setup() {
        let cfg = DbConfig::default();
        assert_eq!(cfg.page_size, 8192);
        assert_eq!(cfg.partition_pages, 48);
        assert_eq!(cfg.buffer_pages, 48);
        assert_eq!(cfg.max_weight, 16);
        assert!(cfg.gc_overwrite_threshold >= 150 && cfg.gc_overwrite_threshold <= 300);
        cfg.validate().unwrap();
    }

    #[test]
    fn with_partition_pages_tracks_buffer() {
        let cfg = DbConfig::default().with_partition_pages(100);
        assert_eq!(cfg.partition_pages, 100);
        assert_eq!(cfg.buffer_pages, 100);
        let cfg = cfg.with_buffer_pages(24);
        assert_eq!(cfg.partition_pages, 100);
        assert_eq!(cfg.buffer_pages, 24);
    }

    #[test]
    fn derived_capacities() {
        let cfg = DbConfig::default().with_partition_pages(24);
        assert_eq!(cfg.partition_bytes(), Bytes::from_kib(24 * 8));
    }

    #[test]
    fn validation_rejects_zero_fields() {
        assert!(DbConfig::default().with_page_size(0).validate().is_err());
        assert!(DbConfig::default()
            .with_partition_pages(0)
            .validate()
            .is_err());
        assert!(DbConfig::default().with_buffer_pages(0).validate().is_err());
        assert!(DbConfig::default()
            .with_gc_overwrite_threshold(0)
            .validate()
            .is_err());
        assert!(DbConfig::default().with_max_weight(0).validate().is_err());
        assert!(DbConfig::default().with_max_weight(32).validate().is_ok());
        assert!(DbConfig::default().with_max_weight(33).validate().is_err());
        let cfg = DbConfig::default().with_buffer_pages((1 << 31) + 1);
        assert!(cfg.validate().is_err());
        let cfg = DbConfig::default().with_partition_pages((1 << 20) + 1);
        assert!(cfg.with_buffer_pages(48).validate().is_err());
        assert!(DbConfig::default()
            .with_page_size(1 << 30)
            .validate()
            .is_ok());
        assert!(DbConfig::default()
            .with_page_size(1 << 61)
            .validate()
            .is_err());
    }

    #[test]
    fn validation_takes_only_power_of_two_page_sizes() {
        for (page_size, ok) in [(1000, false), (3000, false), (1024, true), (8192, true)] {
            let cfg = DbConfig::default().with_page_size(page_size);
            assert_eq!(cfg.validate().is_ok(), ok, "page_size {page_size}");
        }
    }
}
