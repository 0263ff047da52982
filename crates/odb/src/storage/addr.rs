//! Physical addresses and page-span arithmetic.
//!
//! An object lives at a byte offset inside one partition and never straddles
//! a partition boundary (objects *may* straddle page boundaries within the
//! partition, as 100-byte objects packed into 8 KB pages naturally do).
//! Partition `p` of a database with `partition_pages` pages per partition
//! owns the global pages `[p * partition_pages, (p+1) * partition_pages)`,
//! so translating an object's extent into the pages it touches — the unit
//! the I/O buffer works in — is pure arithmetic.

use pgc_types::{Bytes, PageId, PartitionId};

/// The physical location of an object: a byte offset within a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjAddr {
    /// The partition holding the object.
    pub partition: PartitionId,
    /// Byte offset of the object's first byte within the partition.
    pub offset: u64,
}

impl ObjAddr {
    /// Convenience constructor.
    pub const fn new(partition: PartitionId, offset: u64) -> Self {
        Self { partition, offset }
    }
}

impl std::fmt::Display for ObjAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}+{}", self.partition, self.offset)
    }
}

/// An iterator over the global pages an object extent occupies.
///
/// Cheap to construct and `Clone`; yields consecutive [`PageId`]s.
#[derive(Debug, Clone)]
pub struct PageSpan {
    next: u64,
    end: u64, // exclusive
}

impl PageSpan {
    /// Number of pages in the span.
    pub(crate) fn len(&self) -> u64 {
        self.end - self.next
    }
}

impl Iterator for PageSpan {
    type Item = PageId;

    fn next(&mut self) -> Option<PageId> {
        if self.next == self.end {
            return None;
        }
        let p = PageId(self.next);
        self.next += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PageSpan {}

/// Computes the global pages touched by an object of `size` bytes at `addr`.
///
/// `page_size` and `partition_pages` come from the database configuration,
/// whose validation makes `page_size` a power of two: a page index is a
/// shift, not a division. A zero-sized extent touches no pages.
///
/// # Panics
///
/// Debug-asserts that the page size is a power of two and that the extent
/// stays inside its partition; the allocator guarantees the latter for all
/// addresses it hands out.
pub fn page_span(addr: ObjAddr, size: Bytes, page_size: usize, partition_pages: u64) -> PageSpan {
    let base_page = addr.partition.index() as u64 * partition_pages;
    if size.is_zero() {
        return PageSpan { next: 0, end: 0 };
    }
    let shift = page_size.trailing_zeros();
    let first = addr.offset >> shift;
    let last = (addr.offset + size.get() - 1) >> shift;
    debug_assert!(
        page_size.is_power_of_two() && last < partition_pages,
        "extent {addr}+{size} escapes its partition ({partition_pages} pages of {page_size} bytes)"
    );
    PageSpan {
        next: base_page + first,
        end: base_page + last + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::DEFAULT_PAGE_SIZE;

    const PP: u64 = 48;

    fn span_vec(partition: u32, offset: u64, size: u64) -> Vec<u64> {
        page_span(
            ObjAddr::new(PartitionId(partition), offset),
            Bytes(size),
            DEFAULT_PAGE_SIZE,
            PP,
        )
        .map(|p| p.index())
        .collect()
    }

    #[test]
    fn small_object_on_one_page() {
        assert_eq!(span_vec(0, 0, 100), vec![0]);
        assert_eq!(span_vec(0, 8000, 100), vec![0]); // fits before 8192
    }

    #[test]
    fn object_straddling_a_page_boundary() {
        // Bytes 8100..8200 touch pages 0 and 1.
        assert_eq!(span_vec(0, 8100, 100), vec![0, 1]);
    }

    #[test]
    fn object_exactly_filling_a_page() {
        assert_eq!(span_vec(0, 8192, 8192), vec![1]);
    }

    #[test]
    fn large_object_spans_many_pages() {
        // A 64 KB object starting at offset 0 touches pages 0..8.
        assert_eq!(span_vec(0, 0, 64 * 1024), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn partition_offsets_map_to_global_pages() {
        // Partition 2 starts at global page 96 when partitions are 48 pages.
        assert_eq!(span_vec(2, 0, 100), vec![96]);
        assert_eq!(span_vec(2, 8192, 100), vec![97]);
    }

    #[test]
    fn zero_size_touches_nothing() {
        let s = page_span(
            ObjAddr::new(PartitionId(1), 500),
            Bytes::ZERO,
            DEFAULT_PAGE_SIZE,
            PP,
        );
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn span_len_matches_iteration() {
        let s = page_span(
            ObjAddr::new(PartitionId(1), 4000),
            Bytes(20_000),
            DEFAULT_PAGE_SIZE,
            PP,
        );
        assert_eq!(s.len() as usize, s.clone().count());
        assert_eq!(s.size_hint(), (3, Some(3)));
    }

    #[test]
    fn display_shows_partition_and_offset() {
        assert_eq!(ObjAddr::new(PartitionId(3), 128).to_string(), "P3+128");
    }

    #[test]
    #[should_panic(expected = "escapes")]
    #[cfg(debug_assertions)]
    fn escaping_extent_panics_in_debug() {
        let _ = page_span(
            ObjAddr::new(PartitionId(0), (PP - 1) * DEFAULT_PAGE_SIZE as u64),
            Bytes(2 * DEFAULT_PAGE_SIZE as u64),
            DEFAULT_PAGE_SIZE,
            PP,
        );
    }
}
