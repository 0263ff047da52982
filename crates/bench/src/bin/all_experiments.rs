//! Regenerates the paper's evaluation: Tables 2–5 and Figures 4–6.
//!
//! ```text
//! cargo run --release -p pgc-bench --bin all_experiments [SECTION...] [--seeds N] [--scale PCT] [--out report.txt]
//! ```
//!
//! Sections: `table2 table3 table4 table5 fig4 fig5 fig45 fig6`, printed in
//! the order named. `fig4`/`fig5` print a terminal chart and the full CSV
//! series; `fig45` is their final samples as one short table. With no
//! section this is the paper's full experimental grid (≈ 310 simulation
//! runs: `table2 table3 table4 table5 fig45 fig6`), about half a minute on
//! two cores. Use `--scale 25 --seeds 3` for a quick shape check.
//!
//! `--telemetry-out` taps the first comparison the section list produces:
//! the headline grid for Tables 2–4, the densest connectivity for Table 5,
//! the largest database for Figure 6.

use pgc_bench::{emit, emit_telemetry, usage_exit, CommonArgs, Section};
use pgc_core::PolicyKind;
use pgc_sim::{
    paper, render_chart, report, ChartMetric, Comparison, Experiment, RunConfig, RunOutcome,
    TelemetryLevel,
};
use pgc_workload::TraceCache;
use std::fmt::Write as _;

/// One pass over a section list. Sections whose inputs coincide share
/// them: Tables 2–4 read one headline comparison, Figures 4/5 one set of
/// sampled runs, and every section replays from one trace cache (the
/// tables share the headline workload; the figures reuse it at other
/// scales).
struct Evaluation<'a> {
    args: &'a CommonArgs,
    experiment: Experiment<'a>,
    policies: Vec<PolicyKind>,
    headline: Option<Comparison>,
    series: Option<Vec<(PolicyKind, RunOutcome)>>,
    /// The comparison `--telemetry-out` exports.
    tapped: Option<Comparison>,
}

impl Evaluation<'_> {
    /// `base` scaled by `--scale` and compared across the policy slate
    /// and `section`'s seeds. Until one comparison has been tapped, runs
    /// carry the telemetry level the flags imply.
    fn compare(
        &self,
        section: Section,
        base: impl Fn(PolicyKind, u64) -> RunConfig + Sync,
    ) -> Comparison {
        let level = match self.tapped {
            None => self.args.telemetry_level(),
            Some(_) => TelemetryLevel::Off,
        };
        self.experiment
            .with_telemetry(level)
            .compare(
                &self.policies,
                &self.args.seed_list(section.default_seeds()),
                |policy, seed| {
                    let cfg = base(policy, seed);
                    let target = self.args.scale_bytes(cfg.workload.target_allocated);
                    cfg.with_heap_growth(target)
                },
            )
            .expect("experiment runs")
    }

    fn headline(&mut self, section: Section) -> &Comparison {
        if self.headline.is_none() {
            let cmp = self.compare(section, paper::headline);
            self.tapped.get_or_insert_with(|| cmp.clone());
            self.headline = Some(cmp);
        }
        self.headline.as_ref().expect("just filled")
    }

    /// Figures 4 and 5 are single-run curves in the paper, drawn from one
    /// simulation per policy (seed 1).
    fn series(&mut self) -> &[(PolicyKind, RunOutcome)] {
        if self.series.is_none() {
            let jobs = self
                .policies
                .iter()
                .map(|&policy| {
                    let mut cfg = paper::time_series(policy, 1);
                    cfg.workload.target_allocated =
                        self.args.scale_bytes(cfg.workload.target_allocated);
                    (policy, cfg)
                })
                .collect();
            self.series = Some(self.experiment.run_jobs(jobs).expect("time series runs"));
        }
        self.series.as_deref().expect("just filled")
    }

    /// Terminal rendering of a time-series figure, then the precise CSV.
    fn figure(&mut self, metric: ChartMetric) -> String {
        let results = self.series();
        let labelled: Vec<_> = results.iter().map(|(p, o)| (p.name(), &o.series)).collect();
        let mut body = render_chart(&labelled, metric, 96, 24);
        body.push('\n');
        for (policy, outcome) in results {
            let _ = writeln!(body, "# policy = {policy}");
            body.push_str(&outcome.series.to_csv());
        }
        body
    }

    /// One section's title and body.
    fn render(&mut self, section: Section) -> (&'static str, String) {
        match section {
            Section::Table2 => (
                "Table 2: Throughput (page I/Os)",
                report::format_table2(self.headline(section)),
            ),
            Section::Table3 => (
                "Table 3: Maximum Storage",
                report::format_table3(self.headline(section)),
            ),
            Section::Table4 => (
                "Table 4: Effectiveness and Efficiency",
                report::format_table4(self.headline(section)),
            ),
            Section::Table5 => {
                let mut results: Vec<(f64, Comparison)> = paper::TABLE5_CONNECTIVITY
                    .into_iter()
                    .map(|(connectivity, dense)| {
                        let cmp = self.compare(section, |p, s| paper::connectivity(p, s, dense));
                        (connectivity, cmp)
                    })
                    .collect();
                let body = report::format_table5(&results);
                self.tapped.get_or_insert(results.swap_remove(0).1);
                ("Table 5: Connectivity Effects (% reclaimed)", body)
            }
            Section::Fig4 => (
                "Figure 4: Uncollected Garbage Over Time (CSV; plot garbage_kb vs events)",
                self.figure(ChartMetric::GarbageKb),
            ),
            Section::Fig5 => (
                "Figure 5: Database Size Over Time (CSV; plot resident_kb vs events)",
                self.figure(ChartMetric::ResidentKb),
            ),
            Section::Fig45 => {
                let mut body = format!(
                    "{:<18} {:>14} {:>14} {:>14}\n",
                    "Policy", "final garb KB", "final size KB", "collections"
                );
                for (policy, outcome) in self.series() {
                    if let Some(last) = outcome.series.points().last() {
                        let _ = writeln!(
                            body,
                            "{:<18} {:>14.0} {:>14.0} {:>14}",
                            policy.name(),
                            last.garbage_bytes.as_kib_f64(),
                            last.resident_bytes.as_kib_f64(),
                            last.collections
                        );
                    }
                }
                (
                    "Figures 4 & 5: time series (final samples; full CSV via the fig4/fig5 sections)",
                    body,
                )
            }
            Section::Fig6 => {
                let mut results: Vec<(u64, Comparison)> = paper::FIG6_SIZES_MIB
                    .into_iter()
                    .map(|mib| (mib, self.compare(section, |p, s| paper::scaled(p, s, mib))))
                    .collect();
                let body = report::format_figure6(&results);
                self.tapped
                    .get_or_insert(results.pop().expect("sweep is non-empty").1);
                ("Figure 6: Storage vs Maximum Allocated", body)
            }
        }
    }
}

/// Runs `args.sections` (the full evaluation when empty): the report's
/// title, its body — one `== title ==` block per section, blank-line
/// separated — and the comparison to export as telemetry.
fn evaluate(args: &CommonArgs) -> (String, String, Option<Comparison>) {
    let (title, sections) = if args.sections.is_empty() {
        (
            "Full evaluation (Tables 2-5, Figures 4-6)".to_string(),
            Section::FULL.to_vec(),
        )
    } else {
        let names: Vec<_> = args.sections.iter().map(|s| s.name()).collect();
        (
            format!("Evaluation sections: {}", names.join(" ")),
            args.sections.clone(),
        )
    };
    let cache = TraceCache::new();
    let mut evaluation = Evaluation {
        args,
        experiment: Experiment::new().with_cache(&cache),
        policies: args.policy_list(&PolicyKind::PAPER),
        headline: None,
        series: None,
        tapped: None,
    };
    let mut body = String::new();
    for (i, &section) in sections.iter().enumerate() {
        let (heading, block) = evaluation.render(section);
        let gap = if i > 0 { "\n" } else { "" };
        let _ = write!(body, "{gap}== {heading} ==\n{block}");
    }
    (title, body, evaluation.tapped)
}

fn main() {
    let args = CommonArgs::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e));
    let (title, body, tapped) = evaluate(&args);
    emit(&args, &title, &body);
    if let Some(cmp) = &tapped {
        emit_telemetry(&args, cmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(args: &[&str]) -> String {
        let flags = ["--seeds", "1", "--scale", "5"];
        let args = CommonArgs::parse_from(args.iter().chain(&flags).map(|s| s.to_string()));
        evaluate(&args.expect("well-formed")).1
    }

    /// What let seven binaries become one: a section printed alone is the
    /// block the full report prints for it.
    #[test]
    fn a_section_alone_is_its_block_of_the_full_report() {
        let full = body(&[]);
        let table2 = body(&["table2"]);
        assert!(table2.starts_with("== Table 2: Throughput (page I/Os) ==\nSelection Policy"));
        let (block, rest) = full
            .split_once("\n== Table 3:")
            .expect("Table 3 follows Table 2");
        assert_eq!(block, table2);
        assert!(rest.contains("\n== Figure 6: Storage vs Maximum Allocated ==\n"));
    }
}
