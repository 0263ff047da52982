//! The repository's benchmark. It measures the system only through its
//! public API (`pgc::prelude` and the crates' `pub` items); see
//! `benchmark/README.md` for the workloads, the metrics and how they
//! interact.

pub mod json;
pub mod report;
pub mod run;
pub mod stats;
pub mod traced;
pub mod workloads;
