//! A hand-driven scenario on the low-level database API: a design-document
//! repository (the kind of CAD/engineering workload that motivated ODBMSs
//! and the OO7 benchmark the paper cites).
//!
//! The repository holds *projects*; each project is a tree of assemblies
//! whose leaves carry large design documents (64 KB blobs). Engineers
//! revise documents by unlinking the old subtree and attaching a new one —
//! exactly the pointer-overwrite pattern the `UpdatedPointer` policy feeds
//! on. We drive the `Database` + `Collector` API directly (no synthetic
//! workload) and watch the collector keep storage bounded.
//!
//! ```text
//! cargo run --release --example design_repository
//! ```

use pgc::odb::{Collector, Database, PolicyKind};
use pgc::types::{Bytes, DbConfig, Oid, SimRng, SlotId};

const ASSEMBLY_SIZE: Bytes = Bytes(120);
const DOCUMENT_SIZE: Bytes = Bytes(64 * 1024);
const REVISIONS: usize = 400;

/// Builds one project: a root assembly with `fanout` sub-assemblies, each
/// carrying a design document leaf. Returns the project root. The barrier
/// events these mutations log stay queued in the database until the next
/// [`Collector::sync`] pumps them to the policy.
fn build_project(db: &mut Database, fanout: usize) -> Oid {
    let root = db.create_root(ASSEMBLY_SIZE, fanout).expect("create root");
    for slot in 0..fanout {
        attach_assembly(db, root, SlotId(slot as u16));
    }
    root
}

/// Attaches a fresh sub-assembly (with its document) at `parent.slot`.
fn attach_assembly(db: &mut Database, parent: Oid, slot: SlotId) {
    let (assembly, _info) = db
        .create_object(ASSEMBLY_SIZE, 1, parent, slot)
        .expect("create assembly");
    db.create_object(DOCUMENT_SIZE, 0, assembly, SlotId(0))
        .expect("create document");
}

fn main() {
    let cfg = DbConfig::default().with_gc_overwrite_threshold(40);
    let mut db = Database::new(cfg).expect("valid config");
    let mut collector = Collector::with_kind(PolicyKind::UpdatedPointer, 40, 7, 16);
    let mut rng = SimRng::new(7);

    // Three projects, eight assemblies each.
    let projects: Vec<Oid> = (0..3).map(|_| build_project(&mut db, 8)).collect();
    collector.sync(&mut db); // pump the build-phase events
    println!(
        "built {} projects: {} objects, {:.1} MB live",
        projects.len(),
        db.stats().objects_created,
        db.resident_bytes().as_mib_f64()
    );

    // Revision churn: replace a random assembly's subtree with a new one.
    let mut collections = 0;
    for i in 0..REVISIONS {
        let project = *rng.pick(&projects);
        let slot = SlotId(rng.below(8) as u16);

        // Engineers browse before editing.
        db.visit(project).expect("visit project");
        if let Some(assembly) = db.read_slot(project, slot).expect("read slot") {
            db.visit(assembly).expect("visit assembly");
        }

        // The overwrite that orphans the old assembly + document.
        db.write_slot(project, slot, None).expect("unlink");
        let due = collector.sync(&mut db);
        attach_assembly(&mut db, project, slot);

        if due {
            if let Some(outcome) = collector.maybe_collect(&mut db).expect("collect") {
                collections += 1;
                if collections % 10 == 0 || i == REVISIONS - 1 {
                    println!(
                        "after revision {:>3}: collected {} -> reclaimed {:>5.0} KB, copied {:>4.0} KB, footprint {:>6.1} MB",
                        i,
                        outcome.victim,
                        outcome.garbage_bytes.as_kib_f64(),
                        outcome.live_bytes.as_kib_f64(),
                        db.total_footprint().as_mib_f64()
                    );
                }
            }
        }
    }

    let io = db.io_stats();
    let stats = db.stats();
    println!("---");
    println!(
        "revisions: {REVISIONS}, collections: {collections}, reclaimed {:.1} MB",
        stats.reclaimed_bytes.as_mib_f64()
    );
    println!(
        "page I/Os: {} app + {} gc (buffer hit rate {:.1}%)",
        io.app_ios(),
        io.gc_ios(),
        io.hit_rate().unwrap_or(0.0) * 100.0
    );
    println!(
        "storage: {:.1} MB footprint for {:.1} MB of live data",
        db.total_footprint().as_mib_f64(),
        db.resident_bytes().as_mib_f64()
    );
    db.check_invariants();
    println!("database invariants hold ✓");
}
