//! The write-back buffer pool and its disk-cost semantics.
//!
//! Cost rules (matching the paper's simulator):
//!
//! * **Read hit / write hit** — no disk traffic; the page is promoted to
//!   most-recently-used (a write hit also sets the dirty bit).
//! * **Read miss / write miss** — one disk read to fault the page in; if the
//!   buffer is full, the LRU page is evicted first, and *if it is dirty*
//!   that costs one disk write (write-back).
//! * **[`Access::WriteNew`]** — materializing a freshly allocated page (the
//!   first object placed on a page, or a collector copy target). No disk
//!   read is needed because the page has no prior contents; the frame is
//!   installed dirty. Eviction costs still apply.
//! * **Invalidation** — after a partition is collected its old pages hold
//!   only garbage; [`BufferPool::invalidate`] drops such frames without
//!   write-back, since their contents will never be read again.
//!
//! All disk operations are charged to the currently active [`IoContext`].

use super::lru::{Inserted, LruCache};
use super::stats::{IoContext, IoStats};
use pgc_types::{PageId, Result, Words};

/// The kind of page access being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read the page's current contents (faults it in on a miss).
    Read,
    /// Modify the page's current contents (faults it in on a miss, then
    /// dirties it).
    Write,
    /// Materialize the page with entirely new contents (no fault-in read;
    /// dirties it).
    WriteNew,
}

/// An LRU write-back page buffer with context-attributed disk accounting.
///
/// ```
/// use pgc_odb::buffer::{Access, BufferPool, IoContext};
/// use pgc_types::PageId;
///
/// let mut pool = BufferPool::new(2);
/// pool.access(PageId(0), Access::Read);     // miss: 1 app read
/// pool.access(PageId(0), Access::Write);    // hit, dirties page 0
/// pool.set_context(IoContext::Collector);
/// pool.access(PageId(1), Access::Read);     // miss: 1 gc read
/// pool.access(PageId(2), Access::Read);     // miss: evicts dirty page 0
///                                           //   => 1 gc write + 1 gc read
/// let s = pool.stats();
/// assert_eq!(s.app_disk_reads, 1);
/// assert_eq!(s.gc_disk_reads, 2);
/// assert_eq!(s.gc_disk_writes, 1);
/// ```
#[derive(Debug, Clone)]
pub struct BufferPool {
    cache: LruCache,
    stats: IoStats,
    context: IoContext,
}

impl BufferPool {
    /// Creates a pool with `frames` page frames (must be positive).
    pub fn new(frames: usize) -> Self {
        Self {
            cache: LruCache::new(frames),
            stats: IoStats::default(),
            context: IoContext::Application,
        }
    }

    /// Switches the accounting context (application vs collector).
    pub fn set_context(&mut self, ctx: IoContext) {
        self.context = ctx;
    }

    /// Performs one page access, charging any disk traffic it implies.
    pub fn access(&mut self, page: PageId, kind: Access) {
        let dirty = !matches!(kind, Access::Read);
        if self.cache.touch(page, dirty) {
            self.stats.hits = self.stats.hits.saturating_add(1);
            return;
        }
        self.stats.misses = self.stats.misses.saturating_add(1);
        // Fault-in read, except for freshly materialized pages.
        if !matches!(kind, Access::WriteNew) {
            self.stats.count_disk_read(self.context);
        }
        if let Inserted::Evicted { dirty: true, .. } = self.cache.insert(page, dirty) {
            self.stats.count_disk_write(self.context);
        }
    }

    /// Accesses every page in `pages` (an object's page span) with the same
    /// access kind.
    pub(crate) fn access_span(&mut self, pages: impl IntoIterator<Item = PageId>, kind: Access) {
        for p in pages {
            self.access(p, kind);
        }
    }

    /// Drops frames for the given pages without write-back. Used when a
    /// partition has been collected and its old pages can never be read
    /// again. Costs no disk traffic.
    pub fn invalidate(&mut self, pages: impl IntoIterator<Item = PageId>) {
        for p in pages {
            self.cache.remove(p);
        }
    }

    /// True if `page` is currently buffered.
    pub fn is_resident(&self, page: PageId) -> bool {
        self.cache.contains(page)
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.cache.len()
    }

    /// Snapshot of the cumulative statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Appends the counters and the resident frames, least recently used
    /// first. Between operations the context is always the application's,
    /// so it is not saved.
    pub(crate) fn save(&self, out: &mut Vec<u64>) {
        debug_assert_eq!(self.context, IoContext::Application);
        let s = &self.stats;
        out.extend([
            s.app_disk_reads,
            s.app_disk_writes,
            s.gc_disk_reads,
            s.gc_disk_writes,
            s.hits,
            s.misses,
        ]);
        self.cache.save(out);
    }

    /// Refills a fresh pool with what `save` wrote; every page must lie
    /// below `page_bound`.
    pub(crate) fn load(&mut self, words: &mut Words<'_>, page_bound: u64) -> Result<()> {
        self.stats = IoStats {
            app_disk_reads: words.word()?,
            app_disk_writes: words.word()?,
            gc_disk_reads: words.word()?,
            gc_disk_writes: words.word()?,
            hits: words.word()?,
            misses: words.word()?,
        };
        self.cache.load(words, page_bound)
    }

    /// Debug invariant check (delegates to the LRU structure).
    pub fn check_invariants(&self) {
        self.cache.check_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_miss_then_hit() {
        let mut pool = BufferPool::new(4);
        pool.access(PageId(1), Access::Read);
        pool.access(PageId(1), Access::Read);
        let s = pool.stats();
        assert_eq!(s.app_disk_reads, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.total_ios(), 1);
    }

    #[test]
    fn write_miss_faults_in_page() {
        let mut pool = BufferPool::new(4);
        pool.access(PageId(1), Access::Write);
        let s = pool.stats();
        // Write-back cache must read the page before modifying part of it.
        assert_eq!(s.app_disk_reads, 1);
        assert_eq!(s.app_disk_writes, 0);
    }

    #[test]
    fn write_new_skips_fault_in() {
        let mut pool = BufferPool::new(4);
        pool.access(PageId(1), Access::WriteNew);
        let s = pool.stats();
        assert_eq!(s.app_disk_reads, 0);
        assert_eq!(s.app_disk_writes, 0);
        assert_eq!(s.misses, 1);
        // The page is resident and dirty: evicting it costs a write.
        pool.access(PageId(2), Access::Read);
        pool.access(PageId(3), Access::Read);
        pool.access(PageId(4), Access::Read);
        pool.access(PageId(5), Access::Read); // evicts dirty page 1
        assert_eq!(pool.stats().app_disk_writes, 1);
    }

    #[test]
    fn dirty_eviction_costs_a_write_clean_does_not() {
        let mut pool = BufferPool::new(2);
        pool.access(PageId(1), Access::Read); // clean
        pool.access(PageId(2), Access::Write); // dirty
        pool.access(PageId(3), Access::Read); // evicts 1 (clean): no write
        assert_eq!(pool.stats().app_disk_writes, 0);
        pool.access(PageId(4), Access::Read); // evicts 2 (dirty): 1 write
        assert_eq!(pool.stats().app_disk_writes, 1);
    }

    #[test]
    fn eviction_charged_to_current_context() {
        let mut pool = BufferPool::new(1);
        pool.access(PageId(1), Access::Write); // app: 1 read, page dirty
        pool.set_context(IoContext::Collector);
        pool.access(PageId(2), Access::Read); // gc: evicts dirty page 1
        let s = pool.stats();
        assert_eq!(s.app_disk_reads, 1);
        assert_eq!(s.app_disk_writes, 0);
        assert_eq!(s.gc_disk_reads, 1);
        assert_eq!(s.gc_disk_writes, 1);
    }

    #[test]
    fn invalidate_avoids_write_back() {
        let mut pool = BufferPool::new(2);
        pool.access(PageId(1), Access::Write);
        pool.invalidate([PageId(1)]);
        assert!(!pool.is_resident(PageId(1)));
        // Filling the buffer now evicts nothing dirty.
        pool.access(PageId(2), Access::Read);
        pool.access(PageId(3), Access::Read);
        pool.access(PageId(4), Access::Read);
        assert_eq!(pool.stats().app_disk_writes, 0);
    }

    #[test]
    fn access_span_touches_every_page() {
        let mut pool = BufferPool::new(16);
        pool.access_span((0..8).map(PageId), Access::WriteNew);
        assert_eq!(pool.resident_pages(), 8);
        assert_eq!(pool.stats().misses, 8);
        pool.access_span((0..8).map(PageId), Access::Read);
        assert_eq!(pool.stats().hits, 8);
    }

    #[test]
    fn locality_reduces_io() {
        // Sequential re-scans of a working set that fits: only cold misses.
        let mut pool = BufferPool::new(8);
        for _ in 0..10 {
            pool.access_span((0..8).map(PageId), Access::Read);
        }
        assert_eq!(pool.stats().app_disk_reads, 8);
        // Working set larger than the buffer: LRU thrashes on every access.
        let mut pool = BufferPool::new(8);
        for _ in 0..10 {
            pool.access_span((0..9).map(PageId), Access::Read);
        }
        assert_eq!(pool.stats().app_disk_reads, 90);
    }
}
