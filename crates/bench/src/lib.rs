//! # pgc-bench
//!
//! Experiment binaries (one per table/figure of the paper) and
//! dependency-free micro-benchmarks built on [`microbench`]. The library
//! part holds small shared helpers for the binaries: CLI parsing for the
//! common flags, output-file plumbing, and the timing harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod microbench;

use pgc_core::PolicyKind;
use pgc_sim::Comparison;
use pgc_telemetry::{write_snapshot, TelemetryLevel};
use std::path::PathBuf;

/// Parses a policy-list spec shared by every experiment binary.
///
/// Accepted specs: `paper` ([`PolicyKind::PAPER`]), `all`
/// ([`PolicyKind::ALL`]), `implementable` (every policy that observes only
/// the barrier bus — [`PolicyKind::ALL`] minus the oracle), or a
/// comma-separated list of policy names/aliases accepted by
/// `PolicyKind::from_str` (e.g. `UpdatedPointer,mutated,composite`).
/// Duplicates are dropped, first occurrence wins, order is preserved.
pub fn parse_policies(spec: &str) -> Result<Vec<PolicyKind>, String> {
    let mut list: Vec<PolicyKind> = match spec.trim().to_ascii_lowercase().as_str() {
        "paper" => PolicyKind::PAPER.to_vec(),
        "all" => PolicyKind::ALL.to_vec(),
        "implementable" => PolicyKind::ALL
            .into_iter()
            .filter(|k| k.is_implementable())
            .collect(),
        _ => spec
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(str::parse)
            .collect::<Result<_, _>>()?,
    };
    if list.is_empty() {
        return Err(format!("policy spec {spec:?} names no policies"));
    }
    let mut seen = Vec::new();
    list.retain(|k| {
        let fresh = !seen.contains(k);
        seen.push(*k);
        fresh
    });
    Ok(list)
}

/// Labels each run of a time-series job list with its policy's stable
/// display name, in the shape [`pgc_sim::render_chart`] expects.
pub fn labelled_series(
    results: &[(PolicyKind, pgc_sim::RunOutcome)],
) -> Vec<(&'static str, &pgc_sim::TimeSeries)> {
    results.iter().map(|(p, o)| (p.name(), &o.series)).collect()
}

/// Common command-line options shared by the experiment binaries.
///
/// Supported flags (all optional):
/// `--seeds N` (number of seeds, default 10), `--scale PCT` (shrink the
/// allocation target to PCT% of the paper's, for quick runs), `--out PATH`
/// (also write the report/CSV to a file), `--telemetry-out PATH` (tap every
/// run at full telemetry and write one JSONL line per collector activation).
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Number of seeds to aggregate over (paper: 10).
    pub seeds: u64,
    /// Percentage of the paper's allocation target to simulate (100 =
    /// full-size run).
    pub scale_pct: u64,
    /// Optional output file for the rendered report.
    pub out: Option<PathBuf>,
    /// Optional JSONL file for per-activation telemetry records.
    pub telemetry_out: Option<PathBuf>,
    /// Optional policy-list override (`--policies SPEC`); `None` keeps the
    /// binary's default slate.
    pub policies: Option<Vec<PolicyKind>>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            seeds: 10,
            scale_pct: 100,
            out: None,
            telemetry_out: None,
            policies: None,
        }
    }
}

impl CommonArgs {
    /// Parses `std::env::args`, panicking with a usage message on malformed
    /// input (these are experiment drivers, not user-facing tools).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--seeds" => {
                    out.seeds = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seeds needs a positive integer");
                }
                "--scale" => {
                    out.scale_pct = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a percentage");
                }
                "--out" => {
                    out.out = Some(PathBuf::from(it.next().expect("--out needs a path")));
                }
                "--telemetry-out" => {
                    out.telemetry_out = Some(PathBuf::from(
                        it.next().expect("--telemetry-out needs a path"),
                    ));
                }
                "--policies" => {
                    let spec = it.next().expect("--policies needs a spec");
                    out.policies =
                        Some(parse_policies(&spec).unwrap_or_else(|e| panic!("--policies: {e}")));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --seeds N (default 10) --scale PCT (default 100) --out PATH \
                         --telemetry-out PATH --policies SPEC (paper|all|implementable|comma \
                         list of names)"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        assert!(out.seeds >= 1, "--seeds must be at least 1");
        assert!(out.scale_pct >= 1, "--scale must be at least 1");
        out
    }

    /// Applies the scale factor to an allocation target.
    pub fn scale_bytes(&self, bytes: pgc_types::Bytes) -> pgc_types::Bytes {
        pgc_types::Bytes(bytes.get() * self.scale_pct / 100)
    }

    /// The seed list.
    pub fn seed_list(&self) -> Vec<u64> {
        (1..=self.seeds).collect()
    }

    /// The policy slate: the `--policies` override when given, otherwise
    /// the binary's default (usually [`PolicyKind::PAPER`]).
    pub fn policy_list(&self, default: &[PolicyKind]) -> Vec<PolicyKind> {
        self.policies.clone().unwrap_or_else(|| default.to_vec())
    }

    /// The telemetry level implied by the flags: [`TelemetryLevel::Full`]
    /// when `--telemetry-out` was given (the JSONL export needs the
    /// per-activation records), `Off` otherwise.
    pub fn telemetry_level(&self) -> TelemetryLevel {
        if self.telemetry_out.is_some() {
            TelemetryLevel::Full
        } else {
            TelemetryLevel::Off
        }
    }
}

/// Writes every tapped run of a [`Comparison`] to `--telemetry-out` as
/// JSONL (one line per collector activation, schema
/// [`pgc_telemetry::SCHEMA`]), appending a human summary of the per-policy
/// aggregates to stdout. No-op when the flag (or the tap) is absent.
pub fn emit_telemetry(args: &CommonArgs, cmp: &Comparison) {
    let Some(path) = &args.telemetry_out else {
        return;
    };
    let write = || -> std::io::Result<u64> {
        let mut lines = 0;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for run in &cmp.telemetry {
            write_snapshot(&mut w, run.policy.name(), run.seed, &run.snapshot)?;
            lines += run.snapshot.records.len() as u64;
        }
        std::io::Write::flush(&mut w)?;
        Ok(lines)
    };
    match write() {
        Ok(lines) => {
            eprintln!(
                "(telemetry: {lines} activation records to {})",
                path.display()
            );
            let summary = pgc_sim::report::format_telemetry(cmp);
            if !summary.is_empty() {
                println!("-- telemetry --\n{summary}");
            }
        }
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Prints a report to stdout and, if requested, to `--out`.
pub fn emit(args: &CommonArgs, title: &str, body: &str) {
    println!("== {title} ==");
    println!("{body}");
    if let Some(path) = &args.out {
        let content = format!("== {title} ==\n{body}");
        if let Err(e) = std::fs::write(path, content) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("(written to {})", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CommonArgs {
        CommonArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.seeds, 10);
        assert_eq!(a.scale_pct, 100);
        assert!(a.out.is_none());
        assert_eq!(a.seed_list().len(), 10);
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--seeds", "3", "--scale", "25", "--out", "/tmp/x.txt"]);
        assert_eq!(a.seeds, 3);
        assert_eq!(a.scale_pct, 25);
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("/tmp/x.txt")));
        assert_eq!(
            a.scale_bytes(pgc_types::Bytes::from_mib(8)),
            pgc_types::Bytes::from_mib(2)
        );
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        parse(&["--bogus"]);
    }

    #[test]
    fn policy_specs_parse() {
        assert_eq!(parse_policies("paper").unwrap(), PolicyKind::PAPER.to_vec());
        assert_eq!(parse_policies("all").unwrap(), PolicyKind::ALL.to_vec());
        let impl_list = parse_policies("implementable").unwrap();
        assert!(impl_list.iter().all(|k| k.is_implementable()));
        assert_eq!(
            impl_list.len(),
            PolicyKind::ALL
                .iter()
                .filter(|k| k.is_implementable())
                .count()
        );
        assert_eq!(
            parse_policies("UpdatedPointer, composite,adaptive-meta").unwrap(),
            vec![
                PolicyKind::UpdatedPointer,
                PolicyKind::Composite,
                PolicyKind::AdaptiveMeta
            ]
        );
        // Duplicates collapse, first occurrence wins.
        assert_eq!(
            parse_policies("random,random,mutated").unwrap(),
            vec![PolicyKind::Random, PolicyKind::MutatedPartition]
        );
        assert!(parse_policies("bogus").is_err());
        assert!(parse_policies("").is_err());
    }

    #[test]
    fn policies_flag_overrides_the_default_slate() {
        let a = parse(&[]);
        assert_eq!(
            a.policy_list(&PolicyKind::PAPER),
            PolicyKind::PAPER.to_vec()
        );
        let a = parse(&["--policies", "implementable"]);
        assert!(a
            .policy_list(&PolicyKind::PAPER)
            .iter()
            .all(|k| k.is_implementable()));
    }

    #[test]
    fn telemetry_flag_sets_level() {
        let a = parse(&[]);
        assert_eq!(a.telemetry_level(), TelemetryLevel::Off);
        let a = parse(&["--telemetry-out", "/tmp/t.jsonl"]);
        assert_eq!(a.telemetry_level(), TelemetryLevel::Full);
        assert_eq!(
            a.telemetry_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
    }
}
