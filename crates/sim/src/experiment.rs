//! Multi-run experiments: policy comparisons over seed sets, on the
//! shared-trace engine.
//!
//! The paper's tables aggregate ten same-configuration runs per policy,
//! differing only in random seed. [`Experiment`] runs the full
//! (policy × seed) grid — in parallel across OS threads, since runs are
//! independent — and reduces each policy's runs to [`Summary`] statistics
//! per metric:
//!
//! ```no_run
//! use pgc_sim::{Experiment, RunConfig};
//! use pgc_core::PolicyKind;
//!
//! let cmp = Experiment::new()
//!     .with_threads(4)
//!     .compare(&PolicyKind::PAPER, &[1, 2, 3], RunConfig::paper)
//!     .unwrap();
//! ```
//!
//! The grid is trace-driven the way the paper's evaluation is: the
//! scheduler groups jobs by workload parameters ([`WorkloadParams::digest`]),
//! records each distinct trace exactly once — in parallel across seeds —
//! into a [`TraceCache`], then fans the shared [`pgc_workload::EncodedTrace`]
//! out to every policy worker, which replays it through
//! [`Simulation::builder`]. An 11-policy sweep therefore pays the
//! synthetic generator once per seed instead of once per job, and every
//! policy consumes byte-identical input. Results are collected into
//! pre-sized per-job slots (no shared lock on the completion path, no
//! post-sort), and remain independent of the worker-thread count — each
//! run is a pure function of its configuration, which the determinism
//! tests below pin down.
//!
//! [`Experiment::with_telemetry`] taps every run: each job carries its
//! [`TelemetrySnapshot`] back on the [`Comparison`] (per-run in
//! [`Comparison::telemetry`], merged per policy on
//! [`PolicyRow::telemetry`]) without perturbing any simulation result.

use crate::run::{RunConfig, RunOutcome, Simulation};
use crate::summary::Summary;
use pgc_core::PolicyKind;
use pgc_telemetry::{TelemetryLevel, TelemetrySnapshot};
use pgc_types::Result;
use pgc_workload::{TraceCache, WorkloadParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Aggregated metrics for one policy across seeds — one table row.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// The policy.
    pub policy: PolicyKind,
    /// Application page I/Os.
    pub app_ios: Summary,
    /// Collector page I/Os.
    pub gc_ios: Summary,
    /// Total page I/Os.
    pub total_ios: Summary,
    /// Maximum storage footprint in KB.
    pub max_storage_kb: Summary,
    /// Partition count.
    pub partitions: Summary,
    /// Garbage reclaimed in KB.
    pub reclaimed_kb: Summary,
    /// Total garbage generated in KB (reclaimed + unreclaimed at end).
    pub actual_garbage_kb: Summary,
    /// Percent of generated garbage reclaimed.
    pub fraction_pct: Summary,
    /// Collector efficiency in KB reclaimed per collector I/O.
    pub efficiency_kb_per_io: Summary,
    /// Final distributed (nepotism-retained) garbage in KB.
    pub nepotism_kb: Summary,
    /// Collections performed.
    pub collections: Summary,
    /// This policy's telemetry merged across its seeds (`None` unless the
    /// experiment ran with [`Experiment::with_telemetry`] above `Off`;
    /// per-activation records live on [`Comparison::telemetry`] — merging
    /// drops them).
    pub telemetry: Option<TelemetrySnapshot>,
}

impl PolicyRow {
    fn from_runs(policy: PolicyKind, runs: &[RunOutcome]) -> Self {
        let pick =
            |f: &dyn Fn(&RunOutcome) -> f64| Summary::of(&runs.iter().map(f).collect::<Vec<f64>>());
        let mut telemetry: Option<TelemetrySnapshot> = None;
        for r in runs {
            if let Some(snap) = &r.telemetry {
                match telemetry.as_mut() {
                    Some(acc) => acc.merge(snap),
                    None => telemetry = Some(snap.clone()),
                }
            }
        }
        Self {
            policy,
            app_ios: pick(&|r| r.totals.app_ios as f64),
            gc_ios: pick(&|r| r.totals.gc_ios as f64),
            total_ios: pick(&|r| r.totals.total_ios() as f64),
            max_storage_kb: pick(&|r| r.totals.max_footprint.as_kib_f64()),
            partitions: pick(&|r| r.totals.partitions as f64),
            reclaimed_kb: pick(&|r| r.totals.reclaimed_bytes.as_kib_f64()),
            actual_garbage_kb: pick(&|r| r.totals.actual_garbage_bytes().as_kib_f64()),
            fraction_pct: pick(&|r| r.totals.fraction_reclaimed_pct()),
            efficiency_kb_per_io: pick(&|r| r.totals.efficiency_kb_per_io()),
            nepotism_kb: pick(&|r| r.totals.final_nepotism_bytes.as_kib_f64()),
            collections: pick(&|r| r.totals.collections as f64),
            telemetry,
        }
    }
}

/// One run's telemetry snapshot, labelled with the grid cell it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTelemetry {
    /// The policy that ran.
    pub policy: PolicyKind,
    /// The workload seed.
    pub seed: u64,
    /// What the run's telemetry tap captured.
    pub snapshot: TelemetrySnapshot,
}

/// A full policy comparison: one row per policy, paper row order preserved.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Rows, in the order the policies were given.
    pub rows: Vec<PolicyRow>,
    /// Per-run telemetry snapshots in job (seed-major) order — empty
    /// unless the experiment ran with [`Experiment::with_telemetry`] above
    /// `Off`. This is the source for JSONL export; the per-policy rows
    /// carry the merged aggregates.
    pub telemetry: Vec<RunTelemetry>,
}

impl Comparison {
    /// The row for one policy, if present.
    pub fn row(&self, policy: PolicyKind) -> Option<&PolicyRow> {
        self.rows.iter().find(|r| r.policy == policy)
    }

    /// The `MostGarbage` row (the paper's "Relative = 1" baseline).
    pub fn baseline(&self) -> Option<&PolicyRow> {
        self.row(PolicyKind::MostGarbage)
    }
}

/// A configurable multi-run experiment over the shared-trace engine.
///
/// The one multi-run entry point: set [`Experiment::with_threads`],
/// [`Experiment::with_cache`], and [`Experiment::with_telemetry`] as
/// needed, then call [`Experiment::compare`] for a policy grid or
/// [`Experiment::run_jobs`] for arbitrary labelled configurations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Experiment<'c> {
    threads: Option<usize>,
    cache: Option<&'c TraceCache>,
    telemetry: TelemetryLevel,
}

impl<'c> Experiment<'c> {
    /// An experiment with default settings: one worker thread per core, a
    /// private trace cache, telemetry off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count (1 = sequential). Results are
    /// independent of this — each run is a pure function of its
    /// configuration — which the determinism test below pins down.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Replays from (and records into) an explicit [`TraceCache`], so
    /// several experiments over overlapping parameter sets — e.g. the
    /// tables and figures of one full evaluation — share recorded traces
    /// across calls.
    #[must_use]
    pub fn with_cache(mut self, cache: &'c TraceCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Taps every run at the given telemetry level. Snapshots come back on
    /// [`Comparison::telemetry`] / [`PolicyRow::telemetry`] (for
    /// [`Experiment::compare`]) or on each [`RunOutcome::telemetry`] (for
    /// [`Experiment::run_jobs`]).
    #[must_use]
    pub fn with_telemetry(mut self, level: TelemetryLevel) -> Self {
        self.telemetry = level;
        self
    }

    /// Runs every `(policy, seed)` combination and aggregates per policy.
    ///
    /// `make_config` builds the run configuration for each combination —
    /// usually [`RunConfig::paper`] or one of the [`crate::paper`]
    /// factories.
    pub fn compare(
        &self,
        policies: &[PolicyKind],
        seeds: &[u64],
        make_config: impl Fn(PolicyKind, u64) -> RunConfig + Sync,
    ) -> Result<Comparison> {
        // Seed-major job order: all policies replaying one seed's trace are
        // adjacent in the schedule, so the shared buffer stays hot.
        // Aggregation below is policy-major regardless of job order, and
        // within one policy outcomes land in seed order either way, so the
        // reduced rows are bit-identical to any other job ordering.
        let mut jobs: Vec<(usize, RunConfig)> = Vec::new();
        for &seed in seeds {
            for (pi, &policy) in policies.iter().enumerate() {
                jobs.push((pi, make_config(policy, seed)));
            }
        }
        let results = self.run_jobs(jobs)?;

        let telemetry = results
            .iter()
            .filter_map(|(_, out)| {
                out.telemetry.as_ref().map(|snap| RunTelemetry {
                    policy: out.policy,
                    seed: out.seed,
                    snapshot: snap.clone(),
                })
            })
            .collect();
        let mut per_policy: Vec<Vec<RunOutcome>> =
            (0..policies.len()).map(|_| Vec::new()).collect();
        for (pi, outcome) in results {
            per_policy[pi].push(outcome);
        }
        let rows = policies
            .iter()
            .zip(&per_policy)
            .map(|(&p, runs)| PolicyRow::from_runs(p, runs))
            .collect();
        Ok(Comparison { rows, telemetry })
    }

    /// Runs a set of independent labelled configurations, preserving label
    /// order, on the shared-trace scheduler: it deduplicates the jobs'
    /// workload parameters, records each distinct trace once (in
    /// parallel), then replays every job from the shared encoded buffers.
    ///
    /// Results land in pre-sized per-job [`OnceLock`] slots — label order
    /// is preserved by construction, with no completion-path lock and no
    /// post-sort.
    pub fn run_jobs<L: Send + Sync>(
        &self,
        jobs: Vec<(L, RunConfig)>,
    ) -> Result<Vec<(L, RunOutcome)>> {
        let level = self.telemetry;
        let owned_cache;
        let cache = match self.cache {
            Some(c) => c,
            None => {
                owned_cache = TraceCache::new();
                &owned_cache
            }
        };
        let threads = self
            .threads
            .unwrap_or_else(default_threads)
            .min(jobs.len().max(1));
        let run_one = |cfg: &RunConfig| -> Result<RunOutcome> {
            let trace = cache.get_or_record(&cfg.workload)?;
            Simulation::builder(cfg)
                .trace(&trace)
                .telemetry(level)
                .run()
        };
        if threads <= 1 {
            return jobs
                .into_iter()
                .map(|(label, cfg)| run_one(&cfg).map(|o| (label, o)))
                .collect();
        }

        // Phase 1 — group by workload parameters and record each distinct
        // trace exactly once, in parallel across the groups (the per-seed
        // generator runs dominate this phase; policies share everything).
        let mut unique: Vec<&WorkloadParams> = Vec::new();
        for (_, cfg) in &jobs {
            if !unique.contains(&&cfg.workload) {
                unique.push(&cfg.workload);
            }
        }
        let next_unique = AtomicUsize::new(0);
        let recorded: Vec<OnceLock<Result<()>>> =
            (0..unique.len()).map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads.min(unique.len()) {
                scope.spawn(|| loop {
                    let i = next_unique.fetch_add(1, Ordering::Relaxed);
                    let Some(params) = unique.get(i) else { break };
                    let outcome = cache.get_or_record(params).map(drop);
                    assert!(recorded[i].set(outcome).is_ok(), "slot claimed once");
                });
            }
        });
        for slot in recorded {
            slot.into_inner().expect("every slot recorded")?;
        }

        // Phase 2 — fan the shared traces out to the policy workers. Each
        // worker claims job indices from an atomic counter and writes its
        // outcome into that job's own slot.
        let next_job = AtomicUsize::new(0);
        let job_slots: Vec<Mutex<Option<(L, RunConfig)>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<OnceLock<Result<(L, RunOutcome)>>> =
            (0..job_slots.len()).map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next_job.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = job_slots.get(i) else { break };
                    let (label, cfg) = slot
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("each job index is claimed exactly once");
                    let outcome = run_one(&cfg).map(|o| (label, o));
                    assert!(results[i].set(outcome).is_ok(), "slot claimed once");
                });
            }
        });
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every job slot filled"))
            .collect()
    }
}

/// The default worker-thread count: one per available core.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(policy: PolicyKind, seed: u64) -> RunConfig {
        RunConfig::small().with_policy(policy).with_seed(seed)
    }

    #[test]
    fn comparison_has_one_row_per_policy_in_order() {
        let policies = [
            PolicyKind::NoCollection,
            PolicyKind::UpdatedPointer,
            PolicyKind::MostGarbage,
        ];
        let cmp = Experiment::new()
            .compare(&policies, &[1, 2], small_cfg)
            .unwrap();
        assert_eq!(cmp.rows.len(), 3);
        assert_eq!(cmp.rows[0].policy, PolicyKind::NoCollection);
        assert_eq!(cmp.rows[2].policy, PolicyKind::MostGarbage);
        assert_eq!(cmp.rows[1].app_ios.n, 2);
        assert!(cmp.baseline().is_some());
        assert!(cmp.row(PolicyKind::Random).is_none());
        assert!(cmp.telemetry.is_empty(), "telemetry defaults to off");
        assert!(cmp.rows[0].telemetry.is_none());
    }

    #[test]
    fn no_collection_row_has_zero_gc_cost() {
        let cmp = Experiment::new()
            .compare(&[PolicyKind::NoCollection], &[1], small_cfg)
            .unwrap();
        let row = &cmp.rows[0];
        assert_eq!(row.gc_ios.mean, 0.0);
        assert_eq!(row.reclaimed_kb.mean, 0.0);
        assert_eq!(row.fraction_pct.mean, 0.0);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        // run_jobs with one job falls back to sequential; many jobs use
        // threads. Both must produce the same totals for the same configs.
        let cfg = small_cfg(PolicyKind::Random, 9);
        let exp = Experiment::new();
        let seq = exp.run_jobs(vec![("only", cfg.clone())]).unwrap();
        let par = exp
            .run_jobs(vec![
                ("a", cfg.clone()),
                ("b", cfg.clone()),
                ("c", cfg.clone()),
                ("d", cfg.clone()),
            ])
            .unwrap();
        for (_, out) in &par {
            assert_eq!(out.totals, seq[0].1.totals);
        }
        // Labels preserved in order.
        let labels: Vec<&str> = par.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn compare_is_thread_count_invariant() {
        // The full grid on 1 worker thread and on several must aggregate to
        // bit-identical rows: scheduling order cannot leak into results.
        let policies = [
            PolicyKind::UpdatedPointer,
            PolicyKind::Random,
            PolicyKind::MostGarbage,
        ];
        let seeds = [11, 12, 13];
        let sequential = Experiment::new()
            .with_threads(1)
            .compare(&policies, &seeds, small_cfg)
            .unwrap();
        let parallel = Experiment::new()
            .with_threads(4)
            .compare(&policies, &seeds, small_cfg)
            .unwrap();
        assert_eq!(sequential.rows, parallel.rows);
    }

    #[test]
    fn shared_trace_grid_matches_independent_generation() {
        // The trace-driven scheduler must be observationally identical to
        // running each (policy, seed) job with its own live generator.
        let policies = [PolicyKind::UpdatedPointer, PolicyKind::MostGarbage];
        let seeds = [5, 6];
        let cmp = Experiment::new()
            .compare(&policies, &seeds, small_cfg)
            .unwrap();
        for &policy in &policies {
            let solo: Vec<RunOutcome> = seeds
                .iter()
                .map(|&seed| Simulation::builder(&small_cfg(policy, seed)).run().unwrap())
                .collect();
            let expected = PolicyRow::from_runs(policy, &solo);
            assert_eq!(cmp.row(policy), Some(&expected), "policy {policy:?}");
        }
    }

    #[test]
    fn trace_cache_is_shared_across_calls_and_records_once_per_seed() {
        let cache = pgc_workload::TraceCache::new();
        let policies = [PolicyKind::UpdatedPointer, PolicyKind::Random];
        let seeds = [21, 22, 23];
        let exp = Experiment::new().with_cache(&cache);
        let first = exp
            .with_threads(4)
            .compare(&policies, &seeds, small_cfg)
            .unwrap();
        assert_eq!(cache.len(), seeds.len(), "one trace per seed, not per job");
        // A second comparison over the same seeds replays from the cache
        // (no new entries) and reduces to bit-identical rows.
        let second = exp
            .with_threads(2)
            .compare(&policies, &seeds, small_cfg)
            .unwrap();
        assert_eq!(cache.len(), seeds.len());
        assert_eq!(first.rows, second.rows);
    }

    #[test]
    fn run_jobs_propagates_recording_errors() {
        let mut bad = small_cfg(PolicyKind::Random, 1);
        bad.workload.tree_nodes_min = 0; // fails validation at record time
        let jobs = vec![("ok", small_cfg(PolicyKind::Random, 1)), ("bad", bad)];
        assert!(Experiment::new().with_threads(2).run_jobs(jobs).is_err());
    }

    #[test]
    fn telemetry_rides_the_comparison_without_perturbing_rows() {
        let policies = [PolicyKind::UpdatedPointer, PolicyKind::Random];
        let seeds = [31, 32];
        let plain = Experiment::new()
            .compare(&policies, &seeds, small_cfg)
            .unwrap();
        let tapped = Experiment::new()
            .with_telemetry(TelemetryLevel::Full)
            .compare(&policies, &seeds, small_cfg)
            .unwrap();
        // Same table numbers with and without the tap.
        for (p, t) in plain.rows.iter().zip(&tapped.rows) {
            assert_eq!(p.app_ios, t.app_ios);
            assert_eq!(p.gc_ios, t.gc_ios);
            assert_eq!(p.collections, t.collections);
        }
        // One labelled snapshot per job, seed-major.
        assert_eq!(tapped.telemetry.len(), policies.len() * seeds.len());
        assert_eq!(tapped.telemetry[0].seed, 31);
        assert_eq!(tapped.telemetry[0].policy, PolicyKind::UpdatedPointer);
        // Per-policy merged aggregates match the run count and activations.
        let row = cmp_row(&tapped, PolicyKind::UpdatedPointer);
        let merged = row.telemetry.as_ref().expect("tapped row has telemetry");
        assert_eq!(merged.runs, seeds.len() as u32);
        let expected_collections = row.collections.mean * row.collections.n as f64;
        assert!((merged.counters.collections as f64 - expected_collections).abs() < 1e-6);
        assert!(
            merged.records.is_empty(),
            "merge drops per-activation records"
        );
    }

    fn cmp_row(cmp: &Comparison, policy: PolicyKind) -> &PolicyRow {
        cmp.row(policy).expect("row present")
    }
}
