//! # pgc-sim
//!
//! The trace-driven simulator (Sec. 4.2) and the experiment harness that
//! regenerates every table and figure of the paper's evaluation (Sec. 6).
//!
//! * [`metrics`] — [`metrics::RunTotals`] (the aggregate numbers behind
//!   Tables 2–5) and [`metrics::TimeSeries`] (the sampled curves behind
//!   Figures 4–5).
//! * [`run`] — [`run::RunConfig`] + [`run::Simulation::builder`]: one
//!   complete simulation from a parameter set or a shared encoded trace,
//!   with optional bus observers and telemetry.
//! * [`shard`] — [`shard::Shard`]: the self-contained unit a run drives
//!   and the one thing that applies workload events — one
//!   [`pgc_odb::Database`] under a [`pgc_odb::Collector`] (policy +
//!   scheduler + barrier bus) plus a telemetry handle, node id `n` as
//!   `Oid(n)`, collecting when the trigger fires, stepped by event blocks.
//!   `Simulation` is its 1-shard special case; the multi-tenant
//!   `pgc-server` runtime hosts one per client stream.
//! * [`durable`] — persistence and recovery: a durable run's data
//!   directory (the checksummed manifest, the write-ahead change log of
//!   input events, snapshot generations at safepoints) written
//!   through [`durable::DurableStore`]; [`durable::recover`] loads the
//!   newest usable generation and replays only the log after it,
//!   bit-identical to an uninterrupted run over the surviving event
//!   prefix; [`durable::verify`] replays from event 0, holds every usable
//!   generation's file to the replay's capture byte for byte, and returns
//!   the recovery from the newest, held to the replay's digest.
//! * [`shadow`] — shadow-scoreboard policy races: one driver policy makes
//!   the collection decisions while every other honest policy's scoreboard
//!   rides the same barrier event bus and records the victim it *would*
//!   have picked, yielding a per-collection agreement matrix and a
//!   cumulative-regret accounting (would-be picks scored against realized
//!   garbage) from a single replay.
//! * [`telemetry`] — sampling-gated observability riding the barrier
//!   event bus: counters and histograms, one record per collector
//!   activation, the fleet-wide merge of per-shard snapshots, and the
//!   schema-versioned JSONL writer — a bystander that cannot perturb the
//!   run it records.
//! * [`summary`] — mean / standard deviation over the ten-seed repetitions
//!   the paper reports.
//! * [`experiment`] — multi-policy, multi-seed comparisons
//!   ([`experiment::Comparison`]) and parameter sweeps, scheduled on the
//!   shared-trace engine: each seed's workload is recorded once into a
//!   [`pgc_workload::TraceCache`] and the encoded buffer is fanned out to
//!   every policy worker, which replays it through
//!   [`run::Simulation::builder`].
//! * [`paper`] — the exact configurations of the paper's experiments
//!   (Tables 2–4 headline setup, Figure 6 size scaling, Table 5
//!   connectivity sweep).
//! * [`report`] — plain-text rendering of each table/figure in the paper's
//!   row order, plus CSV output for the time-series figures.
//! * [`chart`] — ASCII line charts of the Figure 4/5 curves for terminal
//!   inspection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod durable;
pub mod experiment;
pub mod metrics;
pub mod paper;
pub mod report;
pub mod run;
pub mod shadow;
pub mod shard;
pub mod summary;
pub mod telemetry;

pub use chart::{render_chart, ChartMetric};
pub use durable::{outcome_digest, recover, verify, RecoveredRun};
pub use experiment::{Comparison, Experiment, PolicyRow, RunTelemetry};
pub use metrics::{RunTotals, SamplePoint, TimeSeries};
pub use run::{RunConfig, RunOutcome, Simulation, SimulationBuilder};
pub use shadow::{
    agreement_table, regret_table, run_race, run_race_with_telemetry, RaceOutcome, RaceRecord,
    ShadowPick,
};
pub use shard::Shard;
pub use summary::Summary;
pub use telemetry::{TelemetryLevel, TelemetrySnapshot};
