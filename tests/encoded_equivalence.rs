//! The shared-trace engine's core guarantee, pinned end to end: replaying
//! a recorded [`EncodedTrace`] through the builder's `.trace(..)` source is
//! bit-identical to a live-generator run — same `RunTotals`, same victim
//! sequence (every [`CollectionOutcome`], in order), same statistics — for
//! every policy, across seeds, on both the small and the (scaled-down)
//! paper configuration. This is what makes it sound for [`Experiment`] to
//! record once per seed and fan the trace out to all policy workers.

use pgc_odb::PolicyKind;
use pgc_sim::{Experiment, RunConfig, Simulation};
use pgc_workload::{EncodedTrace, TraceCache};

/// Asserts live and encoded replays agree on everything observable.
fn assert_equivalent(cfg: &RunConfig, label: &str) {
    let live = Simulation::builder(cfg).run().expect("live run");
    let trace = EncodedTrace::record(cfg.workload.clone()).expect("record");
    let encoded = Simulation::builder(cfg)
        .trace(&trace)
        .run()
        .expect("encoded run");

    assert_eq!(live.totals, encoded.totals, "totals diverged: {label}");
    assert_eq!(
        live.collections, encoded.collections,
        "victim sequence diverged: {label}"
    );
    assert_eq!(
        live.db_stats, encoded.db_stats,
        "db stats diverged: {label}"
    );
    assert_eq!(
        live.gen_stats, encoded.gen_stats,
        "generator stats diverged: {label}"
    );
    assert_eq!(live.policy, encoded.policy);
    assert_eq!(live.seed, encoded.seed);
}

#[test]
fn all_policies_small_config_seeds_0_to_9() {
    for seed in 0..10u64 {
        for &policy in PolicyKind::ALL.iter() {
            let cfg = RunConfig::small().with_policy(policy).with_seed(seed);
            assert_equivalent(&cfg, &format!("{policy:?} small seed {seed}"));
        }
    }
}

#[test]
fn all_policies_scaled_paper_config() {
    // The paper configuration at a tenth of the allocation target: the
    // same event vocabulary and object-size mix as the full runs, small
    // enough for every (policy, seed) pair to replay both ways in a test.
    for seed in 0..3u64 {
        for &policy in PolicyKind::ALL.iter() {
            let mut cfg = RunConfig::paper(policy, seed);
            cfg.workload.target_allocated =
                pgc_types::Bytes(cfg.workload.target_allocated.get() / 10);
            assert_equivalent(&cfg, &format!("{policy:?} paper/10 seed {seed}"));
        }
    }
}

#[test]
fn sampling_series_is_also_identical() {
    // Time-series sampling interleaves oracle passes with the replay; the
    // sampled curves must not depend on which side generated the events.
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::MostGarbage)
        .with_seed(4)
        .with_sampling(2000);
    let live = Simulation::builder(&cfg).run().expect("live run");
    let trace = EncodedTrace::record(cfg.workload.clone()).expect("record");
    let encoded = Simulation::builder(&cfg)
        .trace(&trace)
        .run()
        .expect("encoded run");
    assert_eq!(live.series.points(), encoded.series.points());
}

#[test]
fn scheduler_is_thread_count_and_cache_invariant() {
    // The same job grid through the shared-trace scheduler on 1, 2, and 8
    // worker threads, with fresh and shared caches, must produce identical
    // outcomes in identical label order.
    let jobs = || -> Vec<(u64, RunConfig)> {
        let mut v = Vec::new();
        for seed in [3u64, 4] {
            for &policy in &[PolicyKind::UpdatedPointer, PolicyKind::Random] {
                v.push((
                    seed * 100,
                    RunConfig::small().with_policy(policy).with_seed(seed),
                ));
            }
        }
        v
    };
    let base = Experiment::new()
        .with_threads(1)
        .run_jobs(jobs())
        .expect("sequential");
    let shared = TraceCache::new();
    for threads in [2usize, 8] {
        let got = Experiment::new()
            .with_threads(threads)
            .with_cache(&shared)
            .run_jobs(jobs())
            .expect("parallel");
        assert_eq!(got.len(), base.len());
        for ((la, a), (lb, b)) in base.iter().zip(&got) {
            assert_eq!(la, lb, "label order must be preserved");
            assert_eq!(a.totals, b.totals, "threads={threads}");
            assert_eq!(a.collections, b.collections, "threads={threads}");
        }
    }
    // The shared cache holds exactly one trace per distinct seed.
    assert_eq!(shared.len(), 2);
}
