//! Creating and reclaiming the tree's two-slot objects does not call the
//! allocator per object.
//!
//! The only allocations left on that path are amortised growth — the object
//! table's oid index, its records and their free set, the member lists, the
//! event log — whose count is logarithmic in the number of objects, so a counting allocator separates "none per object"
//! from "one per object" by orders of magnitude. Its own test binary: the
//! counter is process-wide.

use pgc::odb::Database;
use pgc::types::{Bytes, DbConfig, SlotId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size`
        // is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn two_slot_objects_are_created_and_reclaimed_without_the_allocator() {
    const OBJECTS: u64 = 20_000;
    let mut db = Database::new(DbConfig::default()).expect("db");
    let root = db.create_root(Bytes(100), 2).expect("root");
    let before = CALLS.load(Ordering::Relaxed);
    // A chain, each object placed near its parent: only the handful of
    // edges at partition boundaries reach the (hash-based) remembered sets.
    let mut parent = root;
    for _ in 0..OBJECTS {
        let (child, _) = db
            .create_object(Bytes(100), 2, parent, SlotId(0))
            .expect("child");
        parent = child;
        // Nobody drains the bus here; keep the log from growing.
        db.clear_events();
    }
    let created = CALLS.load(Ordering::Relaxed) - before;
    // Cut the chain at the root; collecting the partitions in chain order
    // reclaims all of it.
    db.write_slot(root, SlotId(0), None).expect("cut");
    for victim in db.collectable_partitions() {
        if db.objects().member_count(victim) > 0 {
            db.collect_partition(victim).expect("collect");
            db.clear_events();
        }
    }
    let total = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(db.stats().reclaimed_objects, OBJECTS);
    assert!(
        created < OBJECTS / 20,
        "{created} allocator calls creating {OBJECTS} two-slot objects"
    );
    assert!(
        total < OBJECTS / 20,
        "{total} allocator calls creating and reclaiming {OBJECTS} two-slot objects"
    );
}
