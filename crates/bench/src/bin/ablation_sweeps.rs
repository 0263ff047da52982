//! Ablation sweeps over the design axes the paper holds fixed (its
//! Table 1 lists them as open policy decisions):
//!
//! 1. **GC trigger threshold** — overwrites between collections (the paper
//!    uses 150–300; when to collect).
//! 2. **Partition size** — pages per partition at fixed database size
//!    (how database partitions relate to GC partitions).
//! 3. **Buffer : partition ratio** — the paper always uses 1:1 and argues
//!    why; this quantifies it.
//! 4. **Extension policies** — `RoundRobin` and `Occupancy` against the
//!    paper's six.
//! 5. **Complete collection** — the stop-the-world global mark-and-collect
//!    (the paper's future work) versus partitioned collection, including
//!    the distributed garbage left behind.
//! 6. **Trigger kind** — the paper's overwrite trigger vs allocation-paced
//!    and space-pressure triggers (when to perform collection).
//! 7. **Related-work baselines** — the unenhanced Yong/Naughton/Yu policy
//!    (data writes count) and the generational transplant, against the
//!    paper's policies.
//! 8. **Object placement** — the paper's near-parent clustering vs
//!    first-fit and deliberate spreading, testing the premise that
//!    clustering concentrates subtree garbage.
//!
//! ```text
//! cargo run --release -p pgc-bench --bin ablation_sweeps [--seeds N] [--scale PCT]
//! ```

use pgc_bench::{emit, CommonArgs};
use pgc_odb::{PolicyKind, Trigger};
use pgc_sim::{report, Comparison, Experiment, RunConfig, Shard};
use pgc_types::Bytes;
use pgc_workload::{EventBlock, SyntheticWorkload, TraceCache};
use std::fmt::Write as _;

fn base(args: &CommonArgs, policy: PolicyKind, seed: u64) -> RunConfig {
    let cfg = RunConfig::paper(policy, seed);
    let target = args.scale_bytes(cfg.workload.target_allocated);
    cfg.with_heap_growth(target)
}

fn main() {
    let args = CommonArgs::parse();
    // Sweeps multiply runs; 5 seeds by default keeps this quick.
    let seeds = args.seed_list(5);
    let mut out = String::new();
    // Every sweep below varies database-side knobs (trigger, partition
    // size, buffer, placement) over the same workload parameters, so
    // one shared trace cache records each seed's trace once and every sweep
    // point replays it.
    let cache = TraceCache::new();
    let experiment = Experiment::new().with_cache(&cache);
    let run = |policies: &[PolicyKind],
               make: &(dyn Fn(PolicyKind, u64) -> RunConfig + Sync)|
     -> Comparison { experiment.compare(policies, &seeds, make).expect("runs") };

    // --- 1. Trigger threshold sweep (UpdatedPointer). ---
    let _ = writeln!(
        out,
        "== Ablation 1: GC trigger threshold (UpdatedPointer) =="
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>12} {:>10}",
        "threshold", "total I/Os", "collections", "max stor KB", "frac %"
    );
    for threshold in [100u64, 150, 250, 400, 800] {
        let cmp = run(&[PolicyKind::UpdatedPointer], &|p, s| {
            base(&args, p, s).with_gc_overwrite_threshold(threshold)
        });
        let r = &cmp.rows[0];
        let _ = writeln!(
            out,
            "{:>10} {:>12.0} {:>12.1} {:>12.0} {:>10.1}",
            threshold,
            r.total_ios.mean,
            r.collections.mean,
            r.max_storage_kb.mean,
            r.fraction_pct.mean
        );
    }

    // --- 2. Partition size sweep at fixed database size. ---
    let _ = writeln!(out, "\n== Ablation 2: partition size (UpdatedPointer) ==");
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>12} {:>10}",
        "pages", "total I/Os", "gc I/Os", "max stor KB", "frac %"
    );
    for pages in [24u64, 48, 72, 100] {
        let cmp = run(&[PolicyKind::UpdatedPointer], &|p, s| {
            base(&args, p, s).with_partition_pages(pages)
        });
        let r = &cmp.rows[0];
        let _ = writeln!(
            out,
            "{:>10} {:>12.0} {:>12.0} {:>12.0} {:>10.1}",
            pages, r.total_ios.mean, r.gc_ios.mean, r.max_storage_kb.mean, r.fraction_pct.mean
        );
    }

    // --- 3. Buffer : partition ratio. ---
    let _ = writeln!(
        out,
        "\n== Ablation 3: buffer size / partition size (UpdatedPointer) =="
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>12}",
        "ratio", "buffer pgs", "app I/Os", "gc I/Os"
    );
    for (label, buffer_pages) in [("0.5x", 24u64), ("1.0x", 48), ("2.0x", 96), ("4.0x", 192)] {
        let cmp = run(&[PolicyKind::UpdatedPointer], &|p, s| {
            base(&args, p, s).with_buffer_pages(buffer_pages)
        });
        let r = &cmp.rows[0];
        let _ = writeln!(
            out,
            "{:>10} {:>12} {:>12.0} {:>12.0}",
            label, buffer_pages, r.app_ios.mean, r.gc_ios.mean
        );
    }

    // --- 4. Extension policies vs paper policies. ---
    let _ = writeln!(out, "\n== Ablation 4: extension policies ==");
    let all = [
        PolicyKind::Random,
        PolicyKind::RoundRobin,
        PolicyKind::Occupancy,
        PolicyKind::UpdatedPointer,
        PolicyKind::MostGarbage,
    ];
    let cmp = run(&all, &|p, s| base(&args, p, s));
    out.push_str(&report::format_table2(&cmp));

    // --- 5. Partitioned vs complete collection: distributed garbage. ---
    let _ = writeln!(
        out,
        "\n== Ablation 5: distributed garbage after partitioned collection, and the cost of a complete collection =="
    );
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>16} {:>14} {:>14}",
        "seed", "nepotism KB", "leftover garb KB", "full-GC I/Os", "full-GC KB"
    );
    for &seed in seeds.iter().take(3) {
        let cfg = base(&args, PolicyKind::UpdatedPointer, seed);
        // Keep the final state and apply a complete collection on top.
        let mut generator = SyntheticWorkload::new(cfg.workload.clone()).expect("params");
        let mut shard = Shard::new(&cfg).expect("shard");
        let mut block = EventBlock::new();
        while generator.next_block(&mut block) > 0 {
            shard.step_block(&block).expect("replay");
        }
        let mut db = shard.db().clone();
        let outcome = shard.finish(generator.stats()).expect("run");
        let full = db.collect_full().expect("full collection");
        let _ = writeln!(
            out,
            "{:>6} {:>14.0} {:>16.0} {:>14} {:>14.0}",
            seed,
            outcome.totals.final_nepotism_bytes.as_kib_f64(),
            outcome.totals.final_garbage_bytes.as_kib_f64(),
            full.gc_reads + full.gc_writes,
            full.garbage_bytes.as_kib_f64(),
        );
    }
    let _ = writeln!(
        out,
        "(complete collection reclaims ALL leftover garbage, distributed cycles included,\n at the cost of reading every live object — the trade the paper's future work targets)"
    );

    // --- 6. Trigger kind (when to collect, Table 1's fourth axis). ---
    let _ = writeln!(out, "\n== Ablation 6: trigger kind (UpdatedPointer) ==");
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>12} {:>10}",
        "trigger", "total I/Os", "collections", "max stor KB", "frac %"
    );
    let triggers: [(&str, Trigger); 3] = [
        ("overwrites(250)", Trigger::OverwriteCount(250)),
        (
            "alloc(384 KB)",
            Trigger::AllocationBytes(Bytes::from_kib(384)),
        ),
        ("partition-growth", Trigger::PartitionGrowth),
    ];
    for (label, trigger) in triggers {
        let cmp = run(&[PolicyKind::UpdatedPointer], &|p, s| {
            base(&args, p, s).with_trigger(trigger)
        });
        let r = &cmp.rows[0];
        let _ = writeln!(
            out,
            "{:<24} {:>12.0} {:>12.1} {:>12.0} {:>10.1}",
            label, r.total_ios.mean, r.collections.mean, r.max_storage_kb.mean, r.fraction_pct.mean
        );
    }

    // --- 7. The paper's enhancement: MutatedPartition vs original YNY,
    //        plus the generational transplant. ---
    let _ = writeln!(out, "\n== Ablation 7: related-work baselines ==");
    let cmp = run(
        &[
            PolicyKind::YnyMutated,
            PolicyKind::MutatedPartition,
            PolicyKind::Generational,
            PolicyKind::UpdatedPointer,
            PolicyKind::UpdatedDecay,
            PolicyKind::MostGarbage,
        ],
        &|p, s| base(&args, p, s),
    );
    out.push_str(&report::format_table4(&cmp));

    // --- 8. Placement policy (clustering premise). ---
    let _ = writeln!(out, "\n== Ablation 8: object placement (UpdatedPointer) ==");
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>10} {:>12}",
        "placement", "total I/Os", "max stor KB", "frac %", "eff KB/IO"
    );
    for (label, placement) in [
        ("near-parent", pgc_types::PlacementPolicy::NearParent),
        ("first-fit", pgc_types::PlacementPolicy::FirstFit),
        ("spread", pgc_types::PlacementPolicy::Spread),
    ] {
        let cmp = run(&[PolicyKind::UpdatedPointer], &|p, s| {
            base(&args, p, s).with_placement(placement)
        });
        let r = &cmp.rows[0];
        let _ = writeln!(
            out,
            "{:<12} {:>12.0} {:>12.0} {:>10.1} {:>12.2}",
            label,
            r.total_ios.mean,
            r.max_storage_kb.mean,
            r.fraction_pct.mean,
            r.efficiency_kb_per_io.mean
        );
    }

    emit(
        &args,
        "Ablation sweeps (design axes the paper holds fixed)",
        &out,
    );
}
