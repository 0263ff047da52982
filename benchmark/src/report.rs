//! What a run prints, the `run-all` result file and ledger line with their
//! provenance, and `compare`, which holds two result files against the
//! bounds `BENCHMARK.json` fixes.

use crate::json::{quote, Json};
use crate::run::{Args, Output};
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::process::Command;

/// Prints every metric as `name value unit`, the digests and the check
/// counts, then the one-line JSON result the driver reads.
pub fn print_run(args: &Args, traced: bool, out: &Output) -> Result<(), String> {
    println!(
        "workload {} seed {} trace {} smoke {}",
        args.workload.name(),
        args.seed,
        traced as u8,
        args.scale.smoke
    );
    for digest in &out.digests {
        println!("digest {digest:016x}");
    }
    let mut json = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        match m.reps {
            Some(r) => println!(
                "{} {} {} median {} min {} max {} reps {}",
                m.name, m.value, m.unit, r.median, r.min, r.max, r.n
            ),
            None => println!("{} {} {}", m.name, m.value, m.unit),
        }
        let _ = write!(
            json,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            quote(m.name),
            m.value,
            quote(m.unit)
        );
    }
    println!(
        "ops attempted {} failed {}",
        out.checks.attempted, out.checks.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed
    );
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what a result was taken.
fn provenance(seed: u64, seconds: f64, smoke: bool) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"commit\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"seed\": {seed}, \
         \"seconds\": {seconds}, \"smoke\": {smoke}, \"unix_time\": {unix_time}}}",
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        quote(&cpu),
        quote(&command_line("rustc", &["--version"])),
    )
}

/// One child run's printed metrics, as JSON members, plus its check counts.
struct Parsed {
    /// `"name": {"value": v, "unit": u[, "min", "max", "reps"]}` members.
    full: String,
    /// `"name": v` members.
    brief: String,
    attempted: u64,
    failed: u64,
}

fn parse_run(stdout: &str) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        full: String::new(),
        brief: String::new(),
        attempted: 0,
        failed: 0,
    };
    for line in stdout.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["ops", "attempted", a, "failed", f] => {
                parsed.attempted = a.parse().map_err(|_| format!("bad line `{line}`"))?;
                parsed.failed = f.parse().map_err(|_| format!("bad line `{line}`"))?;
            }
            ["workload", ..] | ["digest", _] => {}
            [name, value, unit, rest @ ..] if !line.starts_with('{') => {
                let sep = if parsed.full.is_empty() { "" } else { ", " };
                let _ = write!(
                    parsed.full,
                    "{sep}{}: {{\"value\": {value}, \"unit\": {}",
                    quote(name),
                    quote(unit)
                );
                if let ["median", median, "min", min, "max", max, "reps", reps] = rest {
                    let _ = write!(
                        parsed.full,
                        ", \"median\": {median}, \"min\": {min}, \"max\": {max}, \"reps\": {reps}"
                    );
                }
                parsed.full.push('}');
                let _ = write!(parsed.brief, "{sep}{}: {value}", quote(name));
            }
            _ => {}
        }
    }
    if parsed.attempted == 0 {
        return Err("child run printed no check counts".into());
    }
    Ok(parsed)
}

/// Runs every workload, untraced then traced, each in a process of its
/// own so peak memory is per workload; writes the result file and appends
/// one line to the ledger `benchmark/HISTORY.jsonl`.
pub fn run_all(
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_path: Option<String>,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let provenance = provenance(seed, seconds, smoke);
    let mut full = String::new();
    let mut brief = String::new();
    let mut failed = 0;
    for workload in Workload::ALL {
        let mut sections = Vec::new();
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name(), "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ]);
            if smoke {
                cmd.arg("--smoke");
            }
            let child = cmd.output().map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            print!("{stdout}");
            if !child.status.success() {
                return Err(format!(
                    "{} --trace {trace} failed: {}",
                    workload.name(),
                    String::from_utf8_lossy(&child.stderr)
                ));
            }
            sections.push(parse_run(&stdout)?);
        }
        let (e2e, layers) = (&sections[0], &sections[1]);
        failed += e2e.failed + layers.failed;
        let sep = if full.is_empty() { "" } else { ",\n" };
        let _ = write!(
            full,
            "{sep}{}: {{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            quote(workload.name()),
            e2e.attempted,
            e2e.failed,
            e2e.full,
            layers.full
        );
        let _ = write!(
            brief,
            "{}{}: {{\"attempted\": {}, \"failed\": {}, {}}}",
            if brief.is_empty() { "" } else { ", " },
            quote(workload.name()),
            e2e.attempted,
            e2e.failed,
            e2e.brief
        );
    }
    std::fs::create_dir_all("benchmark/out").map_err(|e| e.to_string())?;
    let out_path = out_path.unwrap_or_else(|| "benchmark/out/results.json".into());
    let result = format!("{{\"provenance\": {provenance},\n\"workloads\": {{\n{full}\n}}}}\n");
    std::fs::write(&out_path, result).map_err(|e| format!("{out_path}: {e}"))?;
    let line = format!("{{\"provenance\": {provenance}, \"end_to_end\": {{{brief}}}}}\n");
    let mut ledger = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("benchmark/HISTORY.jsonl")
        .map_err(|e| e.to_string())?;
    std::io::Write::write_all(&mut ledger, line.as_bytes()).map_err(|e| e.to_string())?;
    println!("wrote {out_path} and one line of benchmark/HISTORY.jsonl");
    if failed > 0 {
        return Err(format!("{failed} correctness checks failed"));
    }
    Ok(())
}

/// Prints, per workload and end-to-end metric, both medians, how much
/// worse `b` is than `a` and the bound; an error when any bound is passed.
pub fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b, spec) = (load(a_path)?, load(b_path)?, load("BENCHMARK.json")?);
    let metrics = spec
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    let mut over = 0;
    for (workload, a_run) in a.get("workloads").map_or(&[][..], Json::members) {
        let value = |run: Option<&Json>, metric: &str| {
            run?.get("end_to_end")?.get(metric)?.get("value")?.as_f64()
        };
        let b_run = b.get("workloads").and_then(|w| w.get(workload));
        for metric in metrics.as_array() {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = metric.get("better").and_then(Json::as_str) == Some("higher");
            let (Some(va), Some(vb)) = (value(Some(a_run), name), value(b_run, name)) else {
                return Err(format!("{workload}/{name} is missing from a result file"));
            };
            let worse = if higher {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let verdict = if worse > bound {
                over += 1;
                "  OVER"
            } else {
                ""
            };
            println!(
                "{workload:<16} {name:<22} {va:>14.4} {vb:>14.4} {:>7.2}% {:>5.0}%{verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if over > 0 {
        return Err(format!(
            "{over} metrics are worse in {b_path} by more than their bound"
        ));
    }
    Ok(())
}
