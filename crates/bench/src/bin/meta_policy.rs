//! The **AdaptiveMeta** extension experiment (not in the paper): the
//! adaptive meta-policy raced against every *fixed* implementable policy
//! on the paper's headline configuration.
//!
//! For each seed, every fixed policy and the meta-policy replay the same
//! workload; the per-seed table compares the meta-policy's space (maximum
//! storage footprint, Table 3's metric) and efficiency (fraction of
//! generated garbage reclaimed, Table 4's metric) against the best fixed
//! policy for that seed on each metric. A summary line counts the seeds
//! where the meta-policy landed at-or-better than the best fixed policy.
//!
//! The meta-policy's runs are tapped at full telemetry, so every driving
//! policy switch is printed (activation, from → to) and — with
//! `--telemetry-out PATH` — the per-activation JSONL trace carries the
//! switch records (`policy_switches` key, schema `pgc-telemetry/v1`).
//! A shadow-scoreboard regret table over the candidate slate (seed 1)
//! closes the report.
//!
//! ```text
//! cargo run --release -p pgc-bench --bin meta_policy [--seeds N] [--scale PCT] \
//!     [--policies SPEC] [--out PATH] [--telemetry-out PATH]
//! ```

use pgc_bench::{emit, CommonArgs};
use pgc_odb::policies::{AdaptiveMeta, DEFAULT_CANDIDATES};
use pgc_odb::PolicyKind;
use pgc_sim::telemetry::{write_snapshot, TelemetrySnapshot};
use pgc_sim::{
    paper, report, run_race_with_telemetry, Experiment, Shard, Simulation, TelemetryLevel,
};
use pgc_workload::{EventBlock, SyntheticWorkload, TraceCache};
use std::fmt::Write as _;

fn main() {
    let args = CommonArgs::parse();
    // The fixed slate: every implementable policy except the meta-policy
    // itself (`--policies` can narrow it; the oracle is excluded because
    // the meta-policy only claims to track the best *implementable* one).
    let default_fixed: Vec<PolicyKind> = PolicyKind::ALL
        .into_iter()
        .filter(|k| k.is_implementable() && *k != PolicyKind::AdaptiveMeta)
        .collect();
    let fixed: Vec<PolicyKind> = args
        .policy_list(&default_fixed)
        .into_iter()
        .filter(|k| *k != PolicyKind::AdaptiveMeta)
        .collect();
    let seeds = args.seed_list(10);

    let scaled = |policy: PolicyKind, seed: u64| {
        let cfg = paper::headline(policy, seed);
        let target = args.scale_bytes(cfg.workload.target_allocated);
        cfg.with_heap_growth(target)
    };

    // Fixed policies ride the shared-trace engine (one recording per
    // seed); the meta-policy runs with a full telemetry tap to capture its
    // switch trace.
    let cache = TraceCache::new();
    let jobs: Vec<((PolicyKind, u64), _)> = seeds
        .iter()
        .flat_map(|&seed| fixed.iter().map(move |&p| ((p, seed), scaled(p, seed))))
        .collect();
    let fixed_runs = Experiment::new()
        .with_cache(&cache)
        .run_jobs(jobs)
        .expect("fixed-policy runs");
    let meta_runs: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let cfg = scaled(PolicyKind::AdaptiveMeta, seed);
            let out = Simulation::builder(&cfg)
                .telemetry(TelemetryLevel::Full)
                .run()
                .expect("meta-policy run");
            (seed, out)
        })
        .collect();

    let mut body = String::new();
    let _ = writeln!(
        body,
        "Fixed slate: {} (candidates raced inside the meta-policy: {})",
        fixed
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", "),
        DEFAULT_CANDIDATES
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", "),
    );
    let _ = writeln!(body);
    let _ = writeln!(
        body,
        "{:<6} {:>12} {:>12} {:<18} {:>8} {:>8} {:<18} {:>9}",
        "seed",
        "meta KB",
        "best KB",
        "(best-space by)",
        "meta %",
        "best %",
        "(best-frac by)",
        "switches"
    );
    let mut space_wins = 0usize;
    let mut frac_wins = 0usize;
    for (seed, meta) in &meta_runs {
        let row_of = |p: PolicyKind| {
            fixed_runs
                .iter()
                .find(|((fp, fs), _)| *fp == p && fs == seed)
                .map(|(_, o)| o)
                .expect("every fixed job ran")
        };
        let best_space = fixed
            .iter()
            .map(|&p| (p, row_of(p).totals.max_footprint))
            .min_by_key(|&(_, kb)| kb)
            .expect("non-empty slate");
        let best_frac = fixed
            .iter()
            .map(|&p| (p, row_of(p).totals.fraction_reclaimed_pct()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty slate");
        let meta_kb = meta.totals.max_footprint.as_kib_f64();
        let meta_frac = meta.totals.fraction_reclaimed_pct();
        let space_win = meta.totals.max_footprint <= best_space.1;
        let frac_win = meta_frac >= best_frac.1 - 1e-9;
        space_wins += space_win as usize;
        frac_wins += frac_win as usize;
        let switches = meta
            .telemetry
            .as_ref()
            .map(|t| t.switches.len())
            .unwrap_or(0);
        let _ = writeln!(
            body,
            "{:<6} {:>12.0} {:>12.0} {:<18} {:>8.1} {:>8.1} {:<18} {:>9}",
            seed,
            meta_kb,
            best_space.1.as_kib_f64(),
            format!("({})", best_space.0),
            meta_frac,
            best_frac.1,
            format!("({})", best_frac.0),
            switches
        );
    }
    let _ = writeln!(body);
    let _ = writeln!(
        body,
        "At-or-better than the best fixed policy: space {space_wins}/{} seeds, \
         efficiency {frac_wins}/{} seeds.",
        seeds.len(),
        seeds.len()
    );

    // The switch traces: which policy drove when.
    let _ = writeln!(body);
    let _ = writeln!(body, "Policy-switch traces (activation: from -> to):");
    for (seed, meta) in &meta_runs {
        let Some(snap) = &meta.telemetry else {
            continue;
        };
        if snap.switches.is_empty() {
            let _ = writeln!(body, "  seed {seed}: no switches (incumbent held)");
            continue;
        }
        let trace = snap
            .switches
            .iter()
            .map(|s| format!("{}: {} -> {}", s.activation, s.from, s.to))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(body, "  seed {seed}: {trace}");
    }

    // Weak-incumbent recovery (seed 1): on the headline workload the
    // default slate starts — and the runs above show it staying — on
    // UpdatedPointer, the paper's winner, so the switch rule never fires.
    // Restarting the same slate with `Occupancy` as the incumbent forces
    // the credit rule to *discover* a better driver mid-run. The demo runs
    // with an aggressive window (4 activations) and no hysteresis margin
    // (100%: switch as soon as a challenger strictly out-earns the
    // incumbent); under the conservative defaults (window 8, margin 150%)
    // the on-policy feedback bias — only the incumbent's picks are ever
    // realized — keeps even a weak incumbent in place for this run length.
    let weak_slate = [
        PolicyKind::Occupancy,
        PolicyKind::MutatedPartition,
        PolicyKind::WeightedPointer,
        PolicyKind::UpdatedDecay,
        PolicyKind::UpdatedPointer,
    ];
    let weak_cfg = scaled(PolicyKind::AdaptiveMeta, 1);
    let weak_snap = weak_incumbent_run(&weak_cfg, &weak_slate, 4, 100);
    let _ = writeln!(body);
    let _ = writeln!(
        body,
        "Weak-incumbent recovery (seed 1, incumbent starts as Occupancy, window 4, margin 100%):"
    );
    if weak_snap.switches.is_empty() {
        let _ = writeln!(body, "  no switches (incumbent held)");
    } else {
        for s in &weak_snap.switches {
            let _ = writeln!(
                body,
                "  activation {}: {} -> {}",
                s.activation, s.from, s.to
            );
        }
    }

    // Shadow regret over the candidate slate (seed 1): how much realized
    // garbage the driver out-earned each candidate's would-be picks by.
    let race_cfg = scaled(PolicyKind::AdaptiveMeta, 1);
    let race = run_race_with_telemetry(&race_cfg, &DEFAULT_CANDIDATES, TelemetryLevel::Off)
        .expect("candidate race");
    let _ = writeln!(body);
    let _ = writeln!(body, "Candidate-slate shadow regret (seed 1):");
    body.push_str(&report::format_regret(std::slice::from_ref(&race)));

    emit(
        &args,
        "AdaptiveMeta vs fixed implementable policies (paper headline config)",
        &body,
    );

    // JSONL export of the meta-policy's tapped runs (switch records ride
    // each activation line under the `policy_switches` key).
    if let Some(path) = &args.telemetry_out {
        let write = || -> std::io::Result<u64> {
            let mut lines = 0;
            let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
            for (seed, meta) in &meta_runs {
                if let Some(snap) = &meta.telemetry {
                    write_snapshot(&mut w, PolicyKind::AdaptiveMeta.name(), *seed, snap)?;
                    lines += snap.records.len() as u64;
                }
            }
            write_snapshot(&mut w, "AdaptiveMeta(weak-start)", 1, &weak_snap)?;
            lines += weak_snap.records.len() as u64;
            std::io::Write::flush(&mut w)?;
            Ok(lines)
        };
        match write() {
            Ok(lines) => eprintln!(
                "(telemetry: {lines} activation records to {})",
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Runs the headline workload with an explicitly ordered candidate slate
/// (the first entry starts as incumbent) and a full telemetry tap; the
/// snapshot's `switches` are the recovery trace.
fn weak_incumbent_run(
    cfg: &pgc_sim::RunConfig,
    slate: &[PolicyKind],
    window: u64,
    margin_pct: u64,
) -> TelemetrySnapshot {
    let policy = AdaptiveMeta::with_config(slate, window, margin_pct, cfg.db.max_weight);
    let mut shard = Shard::with_policy(cfg, Box::new(policy)).expect("shard");
    shard.enable_telemetry(TelemetryLevel::Full);
    let mut generator = SyntheticWorkload::new(cfg.workload.clone()).expect("workload");
    let mut block = EventBlock::new();
    while generator.next_block(&mut block) > 0 {
        shard.step_block(&block).expect("replay");
    }
    let outcome = shard.finish(generator.stats()).expect("finish");
    outcome.telemetry.expect("telemetry is on")
}
