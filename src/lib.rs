//! # pgc — Partitioned Garbage Collection for Object Databases
//!
//! A from-scratch Rust reproduction of **Cook, Wolf & Zorn, "Partition
//! Selection Policies in Object Database Garbage Collection"** (SIGMOD 1994;
//! University of Colorado TR CU-CS-653-93).
//!
//! The crate is a facade over the workspace: it re-exports the public API of
//! every subsystem so downstream users can depend on `pgc` alone.
//!
//! ## What's inside
//!
//! * [`types`] — identifiers, units, configuration, seeded RNG.
//! * [`odb`] — the simulated object database and its collector: object
//!   graph, root set, write barrier, remembered sets and out-of-partition
//!   sets, object weights, a full-reachability oracle, the breadth-first
//!   copying partition collector, the overwrite-count GC scheduler, and the
//!   paper's contribution — the [`odb::SelectionPolicy`] trait with the six
//!   policies of the paper (plus extensions). Two of its modules keep their
//!   own paths here: [`storage`], the physical model (8 KB pages grouped
//!   into contiguous partitions, bump allocation with near-parent
//!   placement, the object table mapping stable [`types::Oid`]s to physical
//!   locations), and [`buffer`], the LRU write-back page buffer that
//!   accounts page I/O split between application and collector (the
//!   paper's cost model).
//! * [`workload`] — the synthetic augmented-binary-tree application model
//!   and a versioned binary trace codec for record/replay.
//! * [`sim`] — the trace-driven simulator, metrics, multi-seed experiment
//!   runner, and the experiment definitions that regenerate every table and
//!   figure in the paper.
//! * [`telemetry`] — the simulator's observability module, kept at its own
//!   path here: sampling-gated counters and histograms riding the barrier
//!   event bus, per-activation records, and a JSONL export — provably
//!   non-perturbing.
//! * [`durable`] — the simulator's persistence module, kept at its own
//!   path here: snapshot generations (every partition's objects plus the
//!   run's state) at safepoints, an append-only change log of
//!   input events, and the checksummed run manifest, all behind
//!   [`durable::DurabilityConfig`]; [`durable::recover`] loads the newest
//!   generation of a data directory and replays the log after it back
//!   into a bit-identical run.
//! * [`server`] — the sharded multi-tenant runtime: a deterministic router
//!   hashing client streams onto shard worker threads, one self-contained
//!   [`sim::Shard`] per session, cross-shard references as weak remset
//!   traffic over the barrier event bus, and per-stream durable data
//!   directories via [`server::ServerConfig::with_data_dir`].
//!
//! ## Quickstart
//!
//! ```
//! use pgc::prelude::*;
//!
//! // A small run: ~1 MB of allocated objects, UpdatedPointer selection.
//! let cfg = RunConfig::small().with_policy(PolicyKind::UpdatedPointer);
//! let outcome = Simulation::builder(&cfg).run().expect("simulation runs");
//! println!(
//!     "total page I/Os: {}, reclaimed: {} KB",
//!     outcome.totals.total_ios(),
//!     outcome.totals.reclaimed_bytes.as_kib_f64(),
//! );
//! ```
//!
//! Multi-seed policy comparisons and telemetry taps go through the same
//! prelude:
//!
//! ```no_run
//! use pgc::prelude::*;
//!
//! let cmp = Experiment::new()
//!     .with_telemetry(TelemetryLevel::Metrics)
//!     .compare(&PolicyKind::PAPER, &[1, 2, 3], RunConfig::paper)
//!     .unwrap();
//! println!("{}", report::format_table2(&cmp));
//! println!("{}", report::format_telemetry(&cmp));
//! ```

#![forbid(unsafe_code)]

pub use pgc_odb as odb;
pub use pgc_odb::{buffer, storage};
pub use pgc_server as server;
pub use pgc_sim as sim;
pub use pgc_sim::{durable, telemetry};
pub use pgc_types as types;
pub use pgc_workload as workload;

/// The common vocabulary, importable in one line: configuration and units,
/// the policy enum, the simulation and experiment builders, their outcome
/// types, telemetry, durability and recovery, the shared-trace cache, and
/// the table renderers.
///
/// ```
/// use pgc::prelude::*;
///
/// let out = Simulation::builder(&RunConfig::small()).run().unwrap();
/// assert!(out.totals.collections > 0);
/// ```
pub mod prelude {
    pub use pgc_odb::{PolicyKind, Trigger};
    pub use pgc_server::{FleetOutcome, Server, ServerConfig, StreamHandle, StreamId};
    pub use pgc_sim::durable::{DurabilityConfig, DurabilityMode};
    pub use pgc_sim::report;
    pub use pgc_sim::{
        outcome_digest, recover, Comparison, Experiment, PolicyRow, RecoveredRun, RunConfig,
        RunOutcome, RunTelemetry, RunTotals, Shard, Simulation, SimulationBuilder, Summary,
        TelemetryLevel, TelemetrySnapshot,
    };
    pub use pgc_types::{Bytes, DbConfig, PlacementPolicy};
    pub use pgc_workload::{EncodedTrace, TraceCache, TraceSegment, WorkloadParams};
}
