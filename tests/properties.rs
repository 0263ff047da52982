//! Property-style tests over the core data structures and the collector's
//! safety invariants.
//!
//! The workspace builds offline with no property-testing crate, so each
//! property runs as a seeded loop: `SimRng` generates many random cases per
//! property, and a failure message always names the seed that produced it,
//! which makes any failure replayable with a one-line unit test.

use pgc::buffer::{Access, BufferPool};
use pgc::odb::{
    build_policy, oracle, BarrierEvent, Collector, Database, PolicyKind, SelectionPolicy, Trigger,
};
use pgc::sim::Shard;
use pgc::types::{Bytes, DbConfig, Oid, PageId, SimRng, SlotId};
use pgc::workload::generator::GenStats;
use pgc::workload::{EncodedTrace, Event, EventBlock, NodeId, WorkloadParams};

// ---------------------------------------------------------------------
// LRU buffer pool vs a naive reference model
// ---------------------------------------------------------------------

/// Reference LRU: a Vec ordered MRU-first, linear-time everything.
#[derive(Default)]
struct NaiveLru {
    entries: Vec<(u64, bool)>, // (page, dirty), MRU first
    capacity: usize,
    disk_reads: u64,
    disk_writes: u64,
}

impl NaiveLru {
    fn access(&mut self, page: u64, kind: Access) {
        let dirty = !matches!(kind, Access::Read);
        if let Some(pos) = self.entries.iter().position(|&(p, _)| p == page) {
            let (p, d) = self.entries.remove(pos);
            self.entries.insert(0, (p, d || dirty));
            return;
        }
        if !matches!(kind, Access::WriteNew) {
            self.disk_reads += 1;
        }
        if self.entries.len() == self.capacity {
            let (_, was_dirty) = self.entries.pop().unwrap();
            if was_dirty {
                self.disk_writes += 1;
            }
        }
        self.entries.insert(0, (page, dirty));
    }

    fn invalidate(&mut self, page: u64) {
        self.entries.retain(|&(p, _)| p != page);
    }
}

fn access_kind(rng: &mut SimRng) -> Access {
    match rng.below(3) {
        0 => Access::Read,
        1 => Access::Write,
        _ => Access::WriteNew,
    }
}

#[test]
fn lru_matches_reference_model() {
    for seed in 0..40u64 {
        let mut rng = SimRng::new(seed);
        let capacity = rng.range_inclusive(1, 11) as usize;
        let mut pool = BufferPool::new(capacity);
        let mut model = NaiveLru {
            capacity,
            ..NaiveLru::default()
        };
        // Odd seeds scatter 24 pages over ids up to 2^20 — the page table
        // grows in jumps and most of it stays zero — and drop pages the
        // way a collected partition's are, so entries are cleared by
        // `invalidate` as well as by eviction.
        let sparse = seed % 2 == 1;
        let ids: Vec<u64> = (0..24)
            .map(|i| if sparse { rng.below(1 << 20) } else { i })
            .collect();
        for step in 0..rng.range_inclusive(1, 400) {
            let page = ids[rng.below(24) as usize];
            if sparse && rng.chance(0.2) {
                pool.invalidate([PageId(page)]);
                model.invalidate(page);
            } else {
                let kind = access_kind(&mut rng);
                pool.access(PageId(page), kind);
                model.access(page, kind);
            }
            // The check scans the whole table: every step on the dense
            // runs, every 16th on the 2^20-entry ones.
            if !sparse || step % 16 == 0 {
                pool.check_invariants();
            }
        }
        pool.check_invariants();
        let stats = pool.stats();
        assert_eq!(stats.app_disk_reads, model.disk_reads, "seed {seed}");
        assert_eq!(stats.app_disk_writes, model.disk_writes, "seed {seed}");
        assert_eq!(pool.resident_pages(), model.entries.len(), "seed {seed}");
        for page in &ids {
            let modelled = model.entries.iter().any(|(p, _)| p == page);
            assert_eq!(pool.is_resident(PageId(*page)), modelled, "seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------
// Pointer slots held in the record
// ---------------------------------------------------------------------

#[test]
fn a_record_is_no_larger_than_the_vec_based_one() {
    // 64 bytes with the `Option` niche: the object table's record store
    // holds `Option`s (`None` = a free position), one cache line at most.
    assert!(std::mem::size_of::<Option<pgc::storage::ObjectRecord>>() <= 64);
    assert_eq!(std::mem::size_of::<pgc::storage::Slot>(), 8);
}

#[test]
fn an_object_grown_past_its_inline_slots_survives_collection_and_snapshot() {
    use pgc::durable::{
        capture_generation, read_generation, scan_snapshots, DurableStore, ScratchDir,
    };
    use pgc::prelude::DurabilityConfig;

    let cfg = DbConfig::default()
        .with_page_size(1024)
        .with_partition_pages(16);
    let mut db = Database::new(cfg).expect("db");
    let root = db.create_root(Bytes(100), 2).expect("root");
    let (wide, _) = db
        .create_object(Bytes(100), 2, root, SlotId(0))
        .expect("wide");
    // Two inline slots, then 38 more through `add_slot`: the spill happens
    // at the third, and the buffer regrows several times on the way to 40.
    // Every slot gets a child; every third child is then cut loose again.
    let mut kept = Vec::new();
    for i in 0..40u16 {
        let slot = if i < 2 {
            SlotId(i)
        } else {
            db.add_slot(wide).expect("add_slot")
        };
        assert_eq!(slot, SlotId(i));
        let (child, _) = db.create_object(Bytes(60), 2, wide, slot).expect("child");
        if i % 3 == 0 {
            db.write_slot(wide, slot, None).expect("cut");
            kept.push(None);
        } else {
            kept.push(Some(child));
        }
    }
    let slots_of = |db: &Database| -> Vec<Option<Oid>> {
        let rec = db.objects().get(wide).expect("wide is live");
        rec.slots.iter().map(|s| s.get()).collect()
    };
    assert_eq!(slots_of(&db), kept);
    db.check_invariants();

    let mut collections = 0;
    for victim in db.collectable_partitions() {
        if db.objects().member_count(victim) > 0 {
            db.collect_partition(victim).expect("collect");
            collections += 1;
            db.check_invariants();
        }
    }
    assert_eq!(slots_of(&db), kept, "slots survive the copy");
    assert_eq!(db.stats().reclaimed_objects, 14, "the cut children died");

    // `DurableStore::finish` serialises through `Generation::capture`: the
    // landed file is the capture of exactly this database, and its widest
    // record reads back all 40 slots.
    let dir = ScratchDir::new("wide-object");
    let mut store =
        DurableStore::create(&DurabilityConfig::snapshot_and_log(dir.path())).expect("store");
    store.finish(&db, 0, collections).expect("finish");
    let files = scan_snapshots(dir.path()).expect("scan");
    assert_eq!(files.len(), 1, "one generation, one file");
    let image = read_generation(&files[0].path).expect("read");
    let captured = capture_generation(&db, [1, 0, collections], |_| {}).expect("capture");
    assert!(image.bytes() == captured, "the landed file is the capture");
    assert_eq!(image.partitions(), db.partition_count());
    let widest = image
        .records()
        .map(|r| r.expect("decodes").1.slots.len())
        .max();
    assert_eq!(widest, Some(40));
}

// ---------------------------------------------------------------------
// Trace codec round-trips arbitrary event sequences
// ---------------------------------------------------------------------

fn random_event(rng: &mut SimRng) -> Event {
    match rng.below(6) {
        0 => Event::CreateRoot {
            node: NodeId(rng.next_u64()),
            size: Bytes(rng.range_inclusive(1, 100_000)),
            slots: rng.below(8) as u16,
        },
        1 => Event::CreateChild {
            node: NodeId(rng.next_u64()),
            parent: NodeId(rng.next_u64()),
            parent_slot: rng.below(8) as u16,
            size: Bytes(rng.range_inclusive(1, 100_000)),
            slots: rng.below(8) as u16,
        },
        2 => Event::WritePointer {
            owner: NodeId(rng.next_u64()),
            slot: rng.below(8) as u16,
            new: rng.chance(0.5).then(|| NodeId(rng.next_u64())),
        },
        3 => Event::AddSlot {
            owner: NodeId(rng.next_u64()),
        },
        4 => Event::Visit {
            node: NodeId(rng.next_u64()),
        },
        _ => Event::DataWrite {
            node: NodeId(rng.next_u64()),
        },
    }
}

#[test]
fn trace_codec_round_trips() {
    for seed in 0..50u64 {
        let mut rng = SimRng::new(seed);
        let events: Vec<Event> = (0..rng.below(200))
            .map(|_| random_event(&mut rng))
            .collect();
        let mut buf = Vec::new();
        EncodedTrace::from_events(WorkloadParams::default(), &events)
            .write_to(&mut buf)
            .expect("encode");
        let back = EncodedTrace::read_from(buf.as_slice()).expect("decode");
        assert_eq!(
            back.cursor().decode_all().expect("decode"),
            events,
            "seed {seed}"
        );
    }
}

#[test]
fn truncated_traces_never_panic() {
    for seed in 0..50u64 {
        let mut rng = SimRng::new(seed);
        let events: Vec<Event> = (0..rng.range_inclusive(1, 50))
            .map(|_| random_event(&mut rng))
            .collect();
        let mut buf = Vec::new();
        EncodedTrace::from_events(WorkloadParams::default(), &events)
            .write_to(&mut buf)
            .expect("encode");
        let cut_at = 8 + rng.below(buf.len().saturating_sub(8).max(1) as u64) as usize;
        buf.truncate(cut_at);
        // Must yield Ok (clean prefix) or a TraceFormat error — no panic.
        if let Ok(prefix) = EncodedTrace::read_from(buf.as_slice()) {
            let prefix = prefix.cursor().decode_all().expect("validated when read");
            assert_eq!(prefix[..], events[..prefix.len()], "seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------
// Collector safety under random application programs
// ---------------------------------------------------------------------

/// A random-but-valid application program, interpreted against the
/// database: ops reference existing objects modulo the current object
/// count, so every generated program is applicable.
#[derive(Debug, Clone)]
enum Op {
    NewRoot,
    NewChild {
        parent: usize,
        slot: u8,
    },
    Unlink {
        owner: usize,
        slot: u8,
    },
    Relink {
        owner: usize,
        slot: u8,
        target: usize,
    },
    Collect,
}

fn random_op(rng: &mut SimRng) -> Op {
    // Weights mirror the old generator: 2/8/4/2/1.
    match rng.below(17) {
        0..=1 => Op::NewRoot,
        2..=9 => Op::NewChild {
            parent: rng.next_u64() as usize >> 1,
            slot: rng.below(2) as u8,
        },
        10..=13 => Op::Unlink {
            owner: rng.next_u64() as usize >> 1,
            slot: rng.below(2) as u8,
        },
        14..=15 => Op::Relink {
            owner: rng.next_u64() as usize >> 1,
            slot: rng.below(2) as u8,
            target: rng.next_u64() as usize >> 1,
        },
        _ => Op::Collect,
    }
}

#[test]
fn collector_never_reclaims_reachable_objects() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(seed);
        let policy = PolicyKind::ALL[rng.pick_index(PolicyKind::ALL.len())];
        let ops: Vec<Op> = (0..rng.range_inclusive(1, 120))
            .map(|_| random_op(&mut rng))
            .collect();
        // Two-page partitions, so a program spans several of them and
        // builds cross-partition pointers, cycles and nepotism.
        let cfg = DbConfig::default()
            .with_page_size(512)
            .with_partition_pages(2)
            .with_gc_overwrite_threshold(10);
        let mut db = Database::new(cfg).expect("db");
        let mut collector = Collector::with_kind(policy, 10, 1, 16);
        let mut objects: Vec<Oid> = Vec::new();

        for op in ops {
            match op {
                Op::NewRoot => {
                    objects.push(db.create_root(Bytes(64), 2).expect("root"));
                }
                Op::NewChild { parent, slot } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let p = objects[parent % objects.len()];
                    if !db.objects().contains(p) {
                        continue;
                    }
                    let (c, _info) = db
                        .create_object(Bytes(64), 2, p, SlotId(slot as u16))
                        .expect("child");
                    objects.push(c);
                }
                Op::Unlink { owner, slot } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let o = objects[owner % objects.len()];
                    if !db.objects().contains(o) {
                        continue;
                    }
                    // Only mutate reachable objects, like a real app.
                    if !oracle::reference::reachable_set(&db).contains(&o) {
                        continue;
                    }
                    db.write_slot(o, SlotId(slot as u16), None).expect("write");
                }
                Op::Relink {
                    owner,
                    slot,
                    target,
                } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let o = objects[owner % objects.len()];
                    let t = objects[target % objects.len()];
                    if !db.objects().contains(o) || !db.objects().contains(t) {
                        continue;
                    }
                    let reachable = oracle::reference::reachable_set(&db);
                    if !reachable.contains(&o) || !reachable.contains(&t) {
                        continue;
                    }
                    db.write_slot(o, SlotId(slot as u16), Some(t))
                        .expect("write");
                }
                Op::Collect => {
                    // `force_collect` pumps the accumulated barrier events
                    // through the bus before selecting, so the policy's
                    // scoreboard is current at selection time.
                    let reachable_before = oracle::reference::reachable_set(&db);
                    collector.force_collect(&mut db).expect("collect");
                    for oid in &reachable_before {
                        assert!(
                            db.objects().contains(*oid),
                            "seed {seed}, {policy}: reclaimed reachable object {oid}"
                        );
                    }
                }
            }
            db.check_invariants();
        }

        // Final safety sweep: everything reachable is present with a valid
        // weight, and remsets mirror the heap exactly (check_invariants).
        let reachable = oracle::reference::reachable_set(&db);
        for &oid in &reachable {
            let rec = db.objects().get(oid).expect("reachable object exists");
            assert!(rec.weight >= 1 && rec.weight <= 16, "seed {seed}");
        }

        // A complete collection on top keeps everything reachable and
        // leaves no garbage, distributed cycles included.
        let mut full = db.clone();
        full.collect_full().expect("full collection");
        for oid in &reachable {
            assert!(
                full.objects().contains(*oid),
                "seed {seed}: complete collection reclaimed reachable object {oid}"
            );
        }
        assert_eq!(oracle::analyze(&full).garbage_objects, 0, "seed {seed}");
        full.check_invariants();
    }
}

// ---------------------------------------------------------------------
// Scoreboard policies: select() is the argmax of victim_score()
// ---------------------------------------------------------------------

/// Replays the database's pending barrier events onto the policy,
/// mirroring what `Collector::sync` does on the bus.
fn pump(db: &mut Database, policy: &mut dyn SelectionPolicy) {
    db.drain_events(|event| policy.on_event(event));
}

/// Every scoreboard policy exposes its per-partition `victim_score`, and
/// `select` must return the argmax of that score over the collectable
/// partitions, ties toward the lowest partition id. The only exception is
/// the all-zero fallback (nothing has scored yet), where the fullest
/// partition is collected instead; the ranking check still holds there
/// because no partition scores above zero, and the ties-low check is
/// skipped. Random programs drive the database, the barrier events are
/// pumped by hand, and the ranking is checked at every selection.
#[test]
fn scoreboard_selections_maximize_victim_score() {
    const SCORED: &[PolicyKind] = &[
        PolicyKind::MutatedPartition,
        PolicyKind::UpdatedPointer,
        PolicyKind::WeightedPointer,
        PolicyKind::YnyMutated,
        PolicyKind::UpdatedDecay,
    ];

    for seed in 0..48u64 {
        let mut rng = SimRng::new(seed);
        let kind = SCORED[rng.pick_index(SCORED.len())];
        let mut policy = build_policy(kind, seed, 16);
        let ops: Vec<Op> = (0..rng.range_inclusive(40, 160))
            .map(|_| random_op(&mut rng))
            .collect();
        let cfg = DbConfig::default()
            .with_page_size(512)
            .with_partition_pages(8)
            .with_gc_overwrite_threshold(10);
        let mut db = Database::new(cfg).expect("db");
        let mut objects: Vec<Oid> = Vec::new();
        let mut activation = 0u64;

        for op in ops {
            match op {
                Op::NewRoot => {
                    objects.push(db.create_root(Bytes(64), 2).expect("root"));
                }
                Op::NewChild { parent, slot } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let p = objects[parent % objects.len()];
                    if !db.objects().contains(p) {
                        continue;
                    }
                    let (c, _info) = db
                        .create_object(Bytes(64), 2, p, SlotId(slot as u16))
                        .expect("child");
                    objects.push(c);
                }
                Op::Unlink { owner, slot } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let o = objects[owner % objects.len()];
                    if !db.objects().contains(o)
                        || !oracle::reference::reachable_set(&db).contains(&o)
                    {
                        continue;
                    }
                    db.write_slot(o, SlotId(slot as u16), None).expect("write");
                }
                Op::Relink {
                    owner,
                    slot,
                    target,
                } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let o = objects[owner % objects.len()];
                    let t = objects[target % objects.len()];
                    if !db.objects().contains(o) || !db.objects().contains(t) {
                        continue;
                    }
                    let reachable = oracle::reference::reachable_set(&db);
                    if !reachable.contains(&o) || !reachable.contains(&t) {
                        continue;
                    }
                    db.write_slot(o, SlotId(slot as u16), Some(t))
                        .expect("write");
                }
                Op::Collect => {
                    // Mirror one Collector activation: pump pending events,
                    // tick, select, check the ranking, collect, pump the
                    // collection's own events.
                    pump(&mut db, policy.as_mut());
                    activation += 1;
                    policy.on_event(&BarrierEvent::TriggerTick { activation });
                    let Some(victim) = policy.select(&db) else {
                        continue;
                    };
                    let sv = policy
                        .victim_score(victim)
                        .expect("scoreboard policies always score their pick");
                    for p in db.collectable_partitions() {
                        let sp = policy.victim_score(p).unwrap_or(0.0);
                        assert!(
                            sp <= sv,
                            "seed {seed}, {kind}: selected {victim:?} (score {sv}) \
                             but {p:?} scores higher ({sp})"
                        );
                        if sv > 0.0 && sp == sv {
                            assert!(
                                victim.as_usize() <= p.as_usize(),
                                "seed {seed}, {kind}: tie at score {sv} broken \
                                 toward {victim:?} over lower {p:?}"
                            );
                        }
                    }
                    policy.on_event(&BarrierEvent::VictimSelected {
                        victim,
                        score_bits: Some(sv.to_bits()),
                    });
                    db.collect_partition(victim).expect("collect");
                    pump(&mut db, policy.as_mut());
                }
            }
            db.check_invariants();
        }
    }
}

// ---------------------------------------------------------------------
// Workload generator: every generated trace is applicable
// ---------------------------------------------------------------------

#[test]
fn any_seeded_workload_replays_cleanly() {
    for seed in 0..16u64 {
        let mut params = pgc::workload::WorkloadParams::small().with_seed(seed * 61 + 7);
        params.target_allocated = Bytes::from_kib(64);
        params.tree_nodes_min = 8;
        params.tree_nodes_max = 40;
        let events: Vec<Event> = pgc::workload::SyntheticWorkload::new(params)
            .expect("params")
            .collect();
        let cfg = pgc::sim::RunConfig::small();
        let trace = pgc::workload::EncodedTrace::from_events(cfg.workload.clone(), &events);
        let out = pgc::sim::Simulation::builder(&cfg)
            .trace(&trace)
            .run()
            .expect("replay");
        assert_eq!(out.totals.events, events.len() as u64, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Page-span arithmetic
// ---------------------------------------------------------------------

#[test]
fn page_spans_cover_exactly_the_extent() {
    use pgc::storage::{page_span, ObjAddr};
    const PAGE: u64 = 8192;
    const PARTITION_PAGES: u64 = 48;
    for seed in 0..200u64 {
        let mut rng = SimRng::new(seed);
        let partition = rng.below(32) as u32;
        // Clamp the extent inside the partition, as the allocator does.
        let offset = rng.below(PARTITION_PAGES * PAGE);
        let size = rng
            .range_inclusive(1, 64 * 1024)
            .min(PARTITION_PAGES * PAGE - offset);
        let addr = ObjAddr::new(pgc::types::PartitionId(partition), offset);
        let pages: Vec<u64> = page_span(addr, Bytes(size), PAGE as usize, PARTITION_PAGES)
            .map(|p| p.index())
            .collect();
        // Non-empty, consecutive, within the partition's global page range.
        assert!(!pages.is_empty(), "seed {seed}");
        for w in pages.windows(2) {
            assert_eq!(w[1], w[0] + 1, "seed {seed}");
        }
        let base = partition as u64 * PARTITION_PAGES;
        assert!(pages[0] >= base, "seed {seed}");
        assert!(
            *pages.last().unwrap() < base + PARTITION_PAGES,
            "seed {seed}"
        );
        // First and last pages contain the extent's first and last bytes.
        assert_eq!(pages[0], base + offset / PAGE, "seed {seed}");
        assert_eq!(
            *pages.last().unwrap(),
            base + (offset + size - 1) / PAGE,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Partition allocator vs a byte-accurate reference model
// ---------------------------------------------------------------------

#[test]
fn partition_set_matches_reference_accounting() {
    use pgc::storage::PartitionSet;
    const CAPACITY: u64 = 4096;
    for seed in 0..40u64 {
        let mut rng = SimRng::new(seed);
        let mut set = PartitionSet::new(1024, 4);
        // Reference: per-partition bump cursors.
        let mut cursors: Vec<u64> = vec![0, 0]; // P0 (empty), P1
        for _ in 0..rng.range_inclusive(1, 120) {
            let size = rng.range_inclusive(1, 2999);
            let placement = set.allocate(Bytes(size), None).expect("fits a partition");
            let idx = placement.partition.as_usize();
            if placement.grew {
                assert_eq!(idx, cursors.len(), "seed {seed}: growth appends partitions");
                cursors.push(0);
            }
            // Never the designated empty partition.
            assert_ne!(placement.partition, set.empty_partition(), "seed {seed}");
            // Offsets are exactly the reference bump cursor.
            assert_eq!(placement.offset, cursors[idx], "seed {seed}");
            cursors[idx] += size;
            assert!(
                cursors[idx] <= CAPACITY,
                "seed {seed}: no partition overflows"
            );
        }
        // Footprint matches the number of partitions.
        assert_eq!(
            set.total_footprint().get(),
            CAPACITY * cursors.len() as u64,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Summary statistics vs a naive implementation
// ---------------------------------------------------------------------

#[test]
fn summary_matches_naive_statistics() {
    for seed in 0..40u64 {
        let mut rng = SimRng::new(seed);
        let samples: Vec<f64> = (0..rng.range_inclusive(2, 49))
            .map(|_| (rng.unit() - 0.5) * 2.0e6)
            .collect();
        let s = pgc::sim::Summary::of(&samples);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!(
            (s.mean - mean).abs() <= 1e-6 * (1.0 + mean.abs()),
            "seed {seed}"
        );
        assert!(
            (s.std_dev - var.sqrt()).abs() <= 1e-6 * (1.0 + var.sqrt()),
            "seed {seed}"
        );
        assert_eq!(s.n, samples.len(), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Dense oracle vs the retained hash-set reference (tentpole guarantee)
// ---------------------------------------------------------------------

#[test]
fn dense_oracle_matches_reference_after_real_workloads() {
    use pgc::odb::oracle::OracleScratch;
    // Drive real small workloads (not just synthetic graphs) to states with
    // garbage, nepotism, and relocation history, then require report
    // equality — including `nepotism_bytes` — between implementations.
    let mut scratch = OracleScratch::new();
    for seed in 0..6u64 {
        let cfg = pgc::sim::RunConfig::small()
            .with_seed(seed)
            .with_heap_growth(Bytes::from_kib(128))
            .with_trigger(Trigger::OverwriteCount(25));
        let events: Vec<Event> = pgc::workload::SyntheticWorkload::new(cfg.workload.clone())
            .expect("params")
            .collect();
        let mut shard = Shard::new(&cfg).expect("shard");
        for (i, event) in events.iter().enumerate() {
            // 1-event blocks: a check after every 500th event.
            shard
                .step_block(&[*event].into_iter().collect())
                .expect("apply");
            if i % 500 == 0 {
                let expected = oracle::reference::analyze(shard.db());
                let got = oracle::analyze_with(shard.db(), &mut scratch);
                assert_eq!(got, expected, "seed {seed}, event {i}");
            }
        }
        let expected = oracle::reference::analyze(shard.db());
        assert_eq!(
            oracle::analyze_with(shard.db(), &mut scratch),
            expected,
            "seed {seed}, final state"
        );
    }

    // The same equivalence where it decides something: a whole run whose
    // every victim the dense oracle picks (`MostGarbage`) against one
    // whose every victim the reference picks. One miscounted partition
    // changes a victim, and everything downstream of it.
    for seed in 0..10u64 {
        let cfg = pgc::sim::RunConfig::small()
            .with_policy(PolicyKind::MostGarbage)
            .with_seed(seed);
        let replay = |mut shard: Shard| {
            let mut workload =
                pgc::workload::SyntheticWorkload::new(cfg.workload.clone()).expect("params");
            let mut block = EventBlock::new();
            while workload.next_block(&mut block) > 0 {
                shard.step_block(&block).expect("apply");
            }
            shard
        };
        let dense = replay(Shard::new(&cfg).expect("shard"));
        let reference =
            replay(Shard::with_policy(&cfg, Box::new(ReferenceMostGarbage)).expect("shard"));
        assert_eq!(dense.db().stats(), reference.db().stats(), "seed {seed}");
        assert_eq!(
            dense.db().io_stats(),
            reference.db().io_stats(),
            "seed {seed}"
        );
        assert_eq!(
            oracle::analyze(dense.db()),
            oracle::reference::analyze(reference.db()),
            "seed {seed}, final report"
        );
        let victims = |shard: Shard| -> Vec<_> {
            let out = shard.finish(GenStats::default()).expect("finish");
            out.collections.iter().map(|c| c.victim).collect()
        };
        let (dense, reference) = (victims(dense), victims(reference));
        assert!(!dense.is_empty(), "seed {seed}: nothing selected");
        assert_eq!(dense, reference, "seed {seed}");
    }
}

/// `MostGarbage`'s selection rule over the hash-set reference oracle.
struct ReferenceMostGarbage;

impl pgc::odb::BarrierObserver for ReferenceMostGarbage {
    fn on_event(&mut self, _event: &BarrierEvent) {}
}

impl SelectionPolicy for ReferenceMostGarbage {
    fn kind(&self) -> PolicyKind {
        PolicyKind::MostGarbage
    }

    fn select(&mut self, db: &Database) -> Option<pgc::types::PartitionId> {
        oracle::reference::analyze(db)
            .most_garbage_partition(db.empty_partition())
            .or_else(|| pgc::odb::policy::fallback_victim(db))
    }
}
