use pgc_benchmark::run::{end_to_end, Args, DEFAULT_SEED};
use pgc_benchmark::workloads::{Scale, Workload};
use pgc_benchmark::{report, traced};
use std::process::ExitCode;

const USAGE: &str = "usage:
  pgc-benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--smoke]
  pgc-benchmark run-all [--seed N] [--seconds N] [--smoke] [--out FILE]
  pgc-benchmark compare <a.json> <b.json>
workloads: churn_durable fleet_roundtrip";

/// `--flag value` pairs and bare `--smoke`, after any subcommand word.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 55.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            flags.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => flags.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => flags.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => flags.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => report::compare(a, b),
            _ => Err("compare takes two result files".into()),
        },
        Some("run-all") => {
            let flags = parse_flags(&args[1..])?;
            report::run_all(flags.seed, flags.seconds, flags.smoke, flags.out)
        }
        _ => {
            let flags = parse_flags(args)?;
            let name = flags.workload.ok_or("--workload is required")?;
            let workload =
                Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
            let args = Args {
                workload,
                seed: flags.seed,
                seconds: flags.seconds,
                scale: Scale { smoke: flags.smoke },
            };
            let out = if flags.trace {
                traced::per_layer(&args)?
            } else {
                end_to_end(&args)?
            };
            report::print_run(&args, flags.trace, &out)
        }
    }
}

fn main() -> ExitCode {
    // Data directories go through `ScratchDir`, which roots itself at the
    // temp dir: keep that inside the checkout. No thread exists yet.
    match std::env::current_dir() {
        Ok(cwd) => std::env::set_var("TMPDIR", cwd.join("benchmark/out/tmp")),
        Err(e) => {
            eprintln!("cannot resolve the working directory: {e}");
            return ExitCode::FAILURE;
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
