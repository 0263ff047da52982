//! Disk I/O accounting, attributed by context.
//!
//! Table 2 of the paper reports application I/Os, collector I/Os, and their
//! total; the buffer pool therefore tags every disk read and write with the
//! [`IoContext`] active when it happened. Evictions are charged to the
//! context that *triggered* them — if the collector faults in a page and
//! thereby evicts a dirty application page, the resulting disk write is
//! collector work, exactly as it would be in a real system.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Who is performing I/O right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IoContext {
    /// The application (object creation, traversal, mutation).
    #[default]
    Application,
    /// The garbage collector (copying, remembered-set forwarding).
    Collector,
}

impl fmt::Display for IoContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoContext::Application => write!(f, "application"),
            IoContext::Collector => write!(f, "collector"),
        }
    }
}

/// Cumulative disk and cache statistics for one buffer pool. A restored
/// pool's counters come from a generation file, and nothing bounds them by
/// the events applied, so every count and sum saturates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Disk page reads performed while the application was running.
    pub app_disk_reads: u64,
    /// Disk page writes (evictions of dirty pages) charged to the
    /// application.
    pub app_disk_writes: u64,
    /// Disk page reads performed by the collector.
    pub gc_disk_reads: u64,
    /// Disk page writes charged to the collector.
    pub gc_disk_writes: u64,
    /// Buffer hits (no disk traffic), all contexts.
    pub hits: u64,
    /// Buffer misses (each implies one disk read), all contexts.
    pub misses: u64,
}

impl IoStats {
    /// Total disk operations attributed to the application.
    pub fn app_ios(&self) -> u64 {
        self.app_disk_reads.saturating_add(self.app_disk_writes)
    }

    /// Total disk operations attributed to the collector.
    pub fn gc_ios(&self) -> u64 {
        self.gc_disk_reads.saturating_add(self.gc_disk_writes)
    }

    /// Grand total of disk operations (the paper's "Total I/Os").
    pub(crate) fn total_ios(&self) -> u64 {
        self.app_ios().saturating_add(self.gc_ios())
    }

    /// Buffer hit rate in `[0, 1]`; `None` before any access.
    pub fn hit_rate(&self) -> Option<f64> {
        let accesses = self.hits.saturating_add(self.misses);
        (accesses > 0).then(|| self.hits as f64 / accesses as f64)
    }

    /// Records one disk read in the given context.
    pub(crate) fn count_disk_read(&mut self, ctx: IoContext) {
        let count = match ctx {
            IoContext::Application => &mut self.app_disk_reads,
            IoContext::Collector => &mut self.gc_disk_reads,
        };
        *count = count.saturating_add(1);
    }

    /// Records one disk write in the given context.
    pub(crate) fn count_disk_write(&mut self, ctx: IoContext) {
        let count = match ctx {
            IoContext::Application => &mut self.app_disk_writes,
            IoContext::Collector => &mut self.gc_disk_writes,
        };
        *count = count.saturating_add(1);
    }
}

impl Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            app_disk_reads: self.app_disk_reads.saturating_add(rhs.app_disk_reads),
            app_disk_writes: self.app_disk_writes.saturating_add(rhs.app_disk_writes),
            gc_disk_reads: self.gc_disk_reads.saturating_add(rhs.gc_disk_reads),
            gc_disk_writes: self.gc_disk_writes.saturating_add(rhs.gc_disk_writes),
            hits: self.hits.saturating_add(rhs.hits),
            misses: self.misses.saturating_add(rhs.misses),
        }
    }
}

impl AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "app r/w {}/{}, gc r/w {}/{}, total {} (hit rate {:.1}%)",
            self.app_disk_reads,
            self.app_disk_writes,
            self.gc_disk_reads,
            self.gc_disk_writes,
            self.total_ios(),
            self.hit_rate().unwrap_or(0.0) * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_partition_by_context() {
        let mut s = IoStats::default();
        s.count_disk_read(IoContext::Application);
        s.count_disk_read(IoContext::Application);
        s.count_disk_write(IoContext::Application);
        s.count_disk_read(IoContext::Collector);
        s.count_disk_write(IoContext::Collector);
        s.count_disk_write(IoContext::Collector);
        assert_eq!(s.app_ios(), 3);
        assert_eq!(s.gc_ios(), 3);
        assert_eq!(s.total_ios(), 6);
    }

    #[test]
    fn hit_rate_none_before_accesses() {
        assert!(IoStats::default().hit_rate().is_none());
        let s = IoStats {
            hits: 3,
            misses: 1,
            ..IoStats::default()
        };
        assert!((s.hit_rate().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn addition_is_fieldwise() {
        let a = IoStats {
            app_disk_reads: 1,
            app_disk_writes: 2,
            gc_disk_reads: 3,
            gc_disk_writes: 4,
            hits: 5,
            misses: 6,
        };
        let mut b = a;
        b += a;
        assert_eq!(b.app_disk_reads, 2);
        assert_eq!(b.gc_disk_writes, 8);
        assert_eq!(b.total_ios(), 2 * a.total_ios());
    }

    #[test]
    fn counts_and_sums_saturate() {
        let mut s = IoStats {
            app_disk_reads: u64::MAX,
            app_disk_writes: 1,
            gc_disk_reads: u64::MAX - 1,
            gc_disk_writes: 2,
            hits: u64::MAX,
            misses: 1,
        };
        assert_eq!([s.app_ios(), s.gc_ios(), s.total_ios()], [u64::MAX; 3]);
        assert_eq!(s.hit_rate(), Some(1.0));
        s.count_disk_read(IoContext::Application);
        s += s;
        assert_eq!([s.app_disk_reads, s.gc_disk_reads, s.hits], [u64::MAX; 3]);
    }

    #[test]
    fn display_is_informative() {
        let s = IoStats {
            hits: 1,
            misses: 1,
            app_disk_reads: 1,
            ..IoStats::default()
        };
        let txt = s.to_string();
        assert!(txt.contains("total 1"));
        assert!(txt.contains("50.0%"));
    }
}
