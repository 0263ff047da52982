//! A fixed-capacity O(1) LRU page table.
//!
//! Implemented as a slab of frames threaded onto an intrusive doubly-linked
//! recency list (head = most recently used) plus a dense page → frame
//! table. Page ids are dense by construction (partition × partition pages,
//! plus the page), so the table is a `Vec<u32>` indexed by
//! [`PageId::index`] holding `frame + 1` (0 = not resident), grown on
//! demand to the highest page touched: a page touch, the operation under
//! every simulated event, is one indexed load with no hashing. Nothing is
//! allocated up front, and `DbConfig::validate` bounds `buffer_pages` and
//! `partition_pages` so `frame + 1` fits the `u32` and the table stays a
//! few bytes per page of address space. All operations are O(1).
//!
//! This module knows nothing about disks or I/O accounting; it is the pure
//! replacement-policy data structure that [`super::pool::BufferPool`] builds
//! on.

use pgc_types::{PageId, PgcError, Result, Words};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Frame {
    page: PageId,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// What `insert` did with the incoming page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserted {
    /// There was a free frame; nothing was evicted.
    NoEviction,
    /// The least-recently-used page was evicted to make room. The flag is
    /// its dirty bit (a dirty eviction costs a disk write under write-back).
    Evicted {
        /// The page that was evicted.
        page: PageId,
        /// Whether the evicted page was dirty.
        dirty: bool,
    },
}

/// Fixed-capacity LRU set of pages with dirty bits.
#[derive(Debug, Clone)]
pub struct LruCache {
    frames: Vec<Frame>,
    /// `table[page.index()]` = frame index + 1, or 0 when the page is not
    /// resident (including every page past the table's end).
    table: Vec<u32>,
    len: usize,
    head: usize,
    tail: usize,
    free: Vec<usize>,
    capacity: usize,
}

impl LruCache {
    /// Creates a cache with room for `capacity` pages. `capacity` must be
    /// positive and leave `frame + 1` representable in the `u32` table.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        assert!(
            capacity < u32::MAX as usize,
            "LRU capacity must fit the u32 page table"
        );
        Self {
            frames: Vec::new(),
            table: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity,
        }
    }

    /// Number of resident pages.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True if `page` is resident.
    pub(crate) fn contains(&self, page: PageId) -> bool {
        self.frame_of(page).is_some()
    }

    /// The frame holding `page`, if it is resident.
    fn frame_of(&self, page: PageId) -> Option<usize> {
        match self.table.get(page.index() as usize) {
            Some(&entry) if entry != 0 => Some(entry as usize - 1),
            _ => None,
        }
    }

    /// If `page` is resident, marks it most-recently-used, ORs in `dirty`,
    /// and returns `true`; otherwise returns `false`.
    pub(crate) fn touch(&mut self, page: PageId, dirty: bool) -> bool {
        let Some(idx) = self.frame_of(page) else {
            return false;
        };
        self.frames[idx].dirty |= dirty;
        self.move_to_front(idx);
        true
    }

    /// Inserts a non-resident page as most-recently-used, evicting the LRU
    /// page if the cache is full.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `page` is already resident — callers must
    /// `touch` first.
    pub(crate) fn insert(&mut self, page: PageId, dirty: bool) -> Inserted {
        debug_assert!(!self.contains(page), "insert of resident page {page}");
        let evicted = if self.len == self.capacity {
            let victim_idx = self.tail;
            let Frame { page, dirty, .. } = self.frames[victim_idx];
            self.unlink(victim_idx);
            self.table[page.index() as usize] = 0;
            self.len -= 1;
            self.free.push(victim_idx);
            Inserted::Evicted { page, dirty }
        } else {
            Inserted::NoEviction
        };

        let frame = Frame {
            page,
            dirty,
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(free_idx) = self.free.pop() {
            self.frames[free_idx] = frame;
            free_idx
        } else {
            self.frames.push(frame);
            self.frames.len() - 1
        };
        let at = page.index() as usize;
        if self.table.len() <= at {
            self.table.resize(at + 1, 0);
        }
        self.table[at] = idx as u32 + 1;
        self.len += 1;
        self.link_front(idx);
        evicted
    }

    /// Removes `page` if resident, returning its dirty bit.
    pub(crate) fn remove(&mut self, page: PageId) -> Option<bool> {
        let idx = self.frame_of(page)?;
        self.table[page.index() as usize] = 0;
        self.len -= 1;
        let dirty = self.frames[idx].dirty;
        self.unlink(idx);
        self.free.push(idx);
        Some(dirty)
    }

    /// Appends the resident pages, least recently used first, each as
    /// `page << 1 | dirty`, behind their count.
    pub(crate) fn save(&self, out: &mut Vec<u64>) {
        out.push(self.len as u64);
        let mut cursor = self.tail;
        while cursor != NIL {
            let f = &self.frames[cursor];
            out.push(f.page.index() << 1 | u64::from(f.dirty));
            cursor = f.prev;
        }
    }

    /// Refills an empty cache with what `save` wrote, in the same recency
    /// order. Every page must lie below `page_bound`, none
    /// twice, and no more of them than the cache holds.
    pub(crate) fn load(&mut self, words: &mut Words<'_>, page_bound: u64) -> Result<()> {
        debug_assert_eq!(self.len, 0, "load into a used cache");
        let bad = |what: &str| PgcError::TraceFormat(format!("run image: buffer {what}"));
        let count = words.count()?;
        if count > self.capacity {
            return Err(bad("holds more pages than it has frames"));
        }
        for &word in words.take(count)? {
            let page = PageId(word >> 1);
            if page.index() >= page_bound {
                return Err(bad("page out of range"));
            }
            if self.contains(page) {
                return Err(bad("page listed twice"));
            }
            self.insert(page, word & 1 == 1);
        }
        Ok(())
    }

    /// Iterates over resident pages from most- to least-recently-used,
    /// yielding `(page, dirty)`: how the unit tests read the recency order.
    #[cfg(test)]
    pub(crate) fn iter_mru(&self) -> impl Iterator<Item = (PageId, bool)> + '_ {
        MruIter {
            cache: self,
            cursor: self.head,
        }
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.link_front(idx);
    }

    fn link_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    /// Debug invariant check: list and page table agree, list is
    /// well-formed. Used by property tests.
    pub(crate) fn check_invariants(&self) {
        let mut seen = 0usize;
        let mut cursor = self.head;
        let mut prev = NIL;
        while cursor != NIL {
            let f = &self.frames[cursor];
            assert_eq!(f.prev, prev, "prev link broken at {}", f.page);
            assert_eq!(
                self.frame_of(f.page),
                Some(cursor),
                "table does not point at frame for {}",
                f.page
            );
            prev = cursor;
            cursor = f.next;
            seen += 1;
            assert!(seen <= self.len, "cycle in recency list");
        }
        assert_eq!(seen, self.len, "list length != resident count");
        let mapped = self.table.iter().filter(|&&entry| entry != 0).count();
        assert_eq!(mapped, self.len, "table has stale or missing entries");
        assert_eq!(self.tail, prev, "tail does not match last node");
        assert!(self.len <= self.capacity, "over capacity");
    }
}

#[cfg(test)]
struct MruIter<'a> {
    cache: &'a LruCache,
    cursor: usize,
}

#[cfg(test)]
impl Iterator for MruIter<'_> {
    type Item = (PageId, bool);
    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let f = &self.cache.frames[self.cursor];
        self.cursor = f.next;
        Some((f.page, f.dirty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(cache: &LruCache) -> Vec<u64> {
        cache.iter_mru().map(|(p, _)| p.index()).collect()
    }

    #[test]
    fn insert_until_full_then_evict_lru() {
        let mut c = LruCache::new(3);
        assert_eq!(c.insert(PageId(1), false), Inserted::NoEviction);
        assert_eq!(c.insert(PageId(2), false), Inserted::NoEviction);
        assert_eq!(c.insert(PageId(3), false), Inserted::NoEviction);
        assert_eq!(pages(&c), vec![3, 2, 1]);
        // Page 1 is LRU and clean.
        assert_eq!(
            c.insert(PageId(4), false),
            Inserted::Evicted {
                page: PageId(1),
                dirty: false
            }
        );
        assert_eq!(pages(&c), vec![4, 3, 2]);
        c.check_invariants();
    }

    #[test]
    fn touch_promotes_and_accumulates_dirty() {
        let mut c = LruCache::new(3);
        c.insert(PageId(1), false);
        c.insert(PageId(2), false);
        c.insert(PageId(3), false);
        assert!(c.touch(PageId(1), true));
        assert_eq!(pages(&c), vec![1, 3, 2]);
        // 2 is now LRU; it is clean, 1 is dirty.
        assert_eq!(
            c.insert(PageId(4), false),
            Inserted::Evicted {
                page: PageId(2),
                dirty: false
            }
        );
        // Dirty bit sticks even after a clean touch.
        assert!(c.touch(PageId(1), false));
        c.insert(PageId(5), false); // evicts 3
        c.insert(PageId(6), false); // evicts 4
        assert_eq!(
            c.insert(PageId(7), false),
            Inserted::Evicted {
                page: PageId(1),
                dirty: true
            }
        );
        c.check_invariants();
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut c = LruCache::new(2);
        assert!(!c.touch(PageId(9), true));
        c.insert(PageId(9), false);
        assert!(c.touch(PageId(9), false));
    }

    #[test]
    fn remove_returns_dirty_bit_and_frees_slot() {
        let mut c = LruCache::new(2);
        c.insert(PageId(1), true);
        c.insert(PageId(2), false);
        assert_eq!(c.remove(PageId(1)), Some(true));
        assert_eq!(c.remove(PageId(1)), None);
        assert_eq!(c.len(), 1);
        // Freed slot is reused without eviction.
        assert_eq!(c.insert(PageId(3), false), Inserted::NoEviction);
        assert_eq!(pages(&c), vec![3, 2]);
        c.check_invariants();
    }

    #[test]
    fn a_loaded_cache_has_the_saved_recency_and_dirt() {
        let mut c = LruCache::new(4);
        for (page, dirty) in [(5, true), (2, false), (9, false), (7, true)] {
            c.insert(PageId(page), dirty);
        }
        c.touch(PageId(5), false);
        c.remove(PageId(9));
        let mut saved = Vec::new();
        c.save(&mut saved);
        let mut loaded = LruCache::new(4);
        loaded
            .load(&mut Words::new(&saved), 16)
            .expect("a saved cache loads");
        assert_eq!(
            loaded.iter_mru().collect::<Vec<_>>(),
            c.iter_mru().collect::<Vec<_>>()
        );
        loaded.check_invariants();

        let refused =
            |words: &[u64], bound: u64| LruCache::new(4).load(&mut Words::new(words), bound);
        assert!(refused(&saved, 7).is_err(), "page 7 is out of range");
        assert!(refused(&[2, 4, 4], 16).is_err(), "a page twice");
        assert!(
            refused(&[5, 0, 2, 4, 6, 8], 16).is_err(),
            "more pages than frames"
        );
    }

    #[test]
    fn capacity_one_works() {
        let mut c = LruCache::new(1);
        c.insert(PageId(1), true);
        assert_eq!(
            c.insert(PageId(2), false),
            Inserted::Evicted {
                page: PageId(1),
                dirty: true
            }
        );
        assert_eq!(c.len(), 1);
        assert!(c.contains(PageId(2)));
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::new(0);
    }

    #[test]
    fn long_mixed_sequence_keeps_invariants() {
        let mut c = LruCache::new(8);
        for i in 0..1000u64 {
            let p = PageId(i % 23);
            if !c.touch(p, i % 3 == 0) {
                c.insert(p, i % 3 == 0);
            }
            if i % 7 == 0 {
                c.remove(PageId((i + 5) % 23));
            }
            c.check_invariants();
        }
        assert!(c.len() <= 8);
    }
}
