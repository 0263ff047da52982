//! # pgc-bench
//!
//! The experiment driver (`all_experiments`, one section per table/figure
//! of the paper), the ablation and meta-policy studies, and the trace,
//! recovery and server tools. The library part holds the small helpers the
//! binaries share: CLI parsing for the common flags and the section list,
//! and output-file plumbing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pgc_odb::PolicyKind;
use pgc_sim::telemetry::{write_snapshot, TelemetryLevel};
use pgc_sim::Comparison;
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

/// One artefact of the paper's evaluation, named positionally on the
/// `all_experiments` command line (`all_experiments table2 fig6`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Table 2: throughput as page I/Os.
    Table2,
    /// Table 3: maximum storage.
    Table3,
    /// Table 4: effectiveness and efficiency.
    Table4,
    /// Table 5: connectivity sweep.
    Table5,
    /// Figure 4: uncollected garbage over time (chart + CSV).
    Fig4,
    /// Figure 5: database size over time (chart + CSV).
    Fig5,
    /// The final samples of Figures 4 and 5 as one short table.
    Fig45,
    /// Figure 6: storage against maximum allocated size.
    Fig6,
}

impl Section {
    /// Every section, in the paper's order.
    pub const ALL: [Section; 8] = [
        Section::Table2,
        Section::Table3,
        Section::Table4,
        Section::Table5,
        Section::Fig4,
        Section::Fig5,
        Section::Fig45,
        Section::Fig6,
    ];

    /// What runs when no section is named: the whole evaluation, with the
    /// two time-series figures as their final samples instead of full CSV.
    pub const FULL: [Section; 6] = [
        Section::Table2,
        Section::Table3,
        Section::Table4,
        Section::Table5,
        Section::Fig45,
        Section::Fig6,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Section::Table2 => "table2",
            Section::Table3 => "table3",
            Section::Table4 => "table4",
            Section::Table5 => "table5",
            Section::Fig4 => "fig4",
            Section::Fig5 => "fig5",
            Section::Fig45 => "fig45",
            Section::Fig6 => "fig6",
        }
    }

    /// Seeds aggregated over when `--seeds` is absent: the paper's ten,
    /// except Figure 6, whose 20/40 MB points were single runs in the
    /// paper and whose sweep multiplies the work by five.
    pub fn default_seeds(self) -> u64 {
        match self {
            Section::Fig6 => 3,
            _ => 10,
        }
    }
}

impl std::str::FromStr for Section {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|section| section.name() == s)
            .ok_or_else(|| format!("unknown section {s}"))
    }
}

/// The usage text printed by `--help` and after a malformed command line.
pub const USAGE: &str = "\
flags: --seeds N (default 10; 3 for fig6, 5 for ablation_sweeps) --scale PCT (default 100) \
--out PATH --telemetry-out PATH --policies SPEC (paper|all|implementable|comma list of names)\n\
sections (all_experiments only; default table2 table3 table4 table5 fig45 fig6): \
table2 table3 table4 table5 fig4 fig5 fig45 fig6";

/// Common command-line options shared by the experiment binaries.
///
/// Supported flags (all optional):
/// `--seeds N` (number of seeds; each binary or section has its own
/// default), `--scale PCT` (shrink the allocation target to PCT% of the
/// paper's, for quick runs), `--out PATH` (also write the report/CSV to a
/// file), `--telemetry-out PATH` (tap every run at full telemetry and
/// write one JSONL line per collector activation), `--policies SPEC`.
/// Positional arguments name [`Section`]s.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Number of seeds to aggregate over; `None` leaves it to the caller's
    /// default (see [`CommonArgs::seed_list`]).
    pub seeds: Option<u64>,
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
    /// The positional section list, in command-line order; only
    /// `all_experiments` accepts any ([`CommonArgs::flags_only`]).
    pub sections: Vec<Section>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            seeds: None,
            scale_pct: 100,
            out: None,
            telemetry_out: None,
            policies: None,
            sections: Vec::new(),
        }
    }
}

/// A flag value that must be an integer of at least 1.
pub fn positive(flag: &str, value: &str) -> Result<u64, String> {
    let n = value.parse().ok().filter(|&n| n >= 1);
    n.ok_or_else(|| format!("{flag} needs a positive integer, not {value}"))
}

/// Prints `err` and the usage text, then exits with status 2.
pub fn usage_exit(err: &str) -> ! {
    eprintln!("error: {err}\n{USAGE}");
    std::process::exit(2)
}

impl CommonArgs {
    /// Parses `std::env::args` for a binary that takes flags only.
    pub fn parse() -> Self {
        Self::flags_only(std::env::args().skip(1))
    }

    /// Parses `args` for a binary that takes flags only: a malformed
    /// command line, or any section name, prints the usage text and exits
    /// with status 2.
    pub fn flags_only(args: impl IntoIterator<Item = String>) -> Self {
        let parsed = Self::parse_from(args).unwrap_or_else(|e| usage_exit(&e));
        if let Some(section) = parsed.sections.first() {
            usage_exit(&format!("unexpected argument {}", section.name()));
        }
        parsed
    }

    /// Parses an explicit argument list: flags, and positional arguments
    /// as the section list.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
            match arg.as_str() {
                "--seeds" => out.seeds = Some(positive(&arg, &value("a positive integer")?)?),
                "--scale" => out.scale_pct = positive(&arg, &value("a positive percentage")?)?,
                "--out" => out.out = Some(PathBuf::from(value("a path")?)),
                "--telemetry-out" => out.telemetry_out = Some(PathBuf::from(value("a path")?)),
                "--policies" => {
                    let spec = value("a spec")?;
                    out.policies =
                        Some(parse_policies(&spec).map_err(|e| format!("--policies: {e}"))?);
                }
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                name => out.sections.push(name.parse()?),
            }
        }
        Ok(out)
    }

    /// Applies the scale factor to an allocation target.
    pub fn scale_bytes(&self, bytes: pgc_types::Bytes) -> pgc_types::Bytes {
        pgc_types::Bytes(bytes.get() * self.scale_pct / 100)
    }

    /// The seed list: `--seeds N` when given, otherwise `default` seeds.
    pub fn seed_list(&self, default: u64) -> Vec<u64> {
        (1..=self.seeds.unwrap_or(default)).collect()
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
/// [`pgc_sim::telemetry::SCHEMA`]), appending a human summary of the per-policy
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

    fn try_parse(args: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> CommonArgs {
        try_parse(args).expect("well-formed command line")
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.seeds, None);
        assert_eq!(a.scale_pct, 100);
        assert!(a.out.is_none());
        assert!(a.sections.is_empty());
        assert_eq!(a.seed_list(10).len(), 10);
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--seeds", "3", "--scale", "25", "--out", "/tmp/x.txt"]);
        assert_eq!(a.seeds, Some(3));
        assert_eq!(a.seed_list(10), vec![1, 2, 3]);
        assert_eq!(a.scale_pct, 25);
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("/tmp/x.txt")));
        assert_eq!(
            a.scale_bytes(pgc_types::Bytes::from_mib(8)),
            pgc_types::Bytes::from_mib(2)
        );
    }

    #[test]
    fn malformed_command_lines_are_errors_not_panics() {
        let err = |args: &[&str]| try_parse(args).expect_err("malformed");
        assert_eq!(err(&["--bogus"]), "unknown flag --bogus");
        assert_eq!(err(&["--seeds"]), "--seeds needs a positive integer");
        assert_eq!(
            err(&["--seeds", "0"]),
            "--seeds needs a positive integer, not 0"
        );
        assert_eq!(
            err(&["--scale", "x"]),
            "--scale needs a positive integer, not x"
        );
        assert_eq!(err(&["table2", "--out"]), "--out needs a path");
        assert_eq!(err(&["table7"]), "unknown section table7");
        assert!(err(&["--policies", "bogus"]).starts_with("--policies: "));
    }

    #[test]
    fn sections_parse_in_order_between_flags() {
        let a = parse(&["fig4", "--scale", "25", "fig5", "table2"]);
        assert_eq!(a.sections, [Section::Fig4, Section::Fig5, Section::Table2]);
        assert_eq!(a.scale_pct, 25);
        for section in Section::ALL {
            assert_eq!(section.name().parse(), Ok(section));
        }
    }

    #[test]
    fn fig6_defaults_to_three_seeds_unless_asked() {
        let a = parse(&["fig6"]);
        let seeds = |a: &CommonArgs, s: Section| a.seed_list(s.default_seeds()).len();
        assert_eq!(seeds(&a, Section::Fig6), 3);
        assert_eq!(seeds(&a, Section::Table2), 10);
        // An explicit --seeds 10 is a request, not the default in disguise.
        let a = parse(&["fig6", "--seeds", "10"]);
        assert_eq!(seeds(&a, Section::Fig6), 10);
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
