//! One benchmark run of one workload in this process: set-up, the timed
//! repetitions with nothing attached, the correctness checks, and the
//! end-to-end metrics.

use crate::stats::{peak_rss_mib, Reps};
use crate::workloads::{
    check_paper_orderings, one_call_digests, run_rep, Checks, Inputs, Rep, Scale, Workload,
};
use std::time::Instant;

/// The seed the committed golden digests were taken on.
pub const DEFAULT_SEED: u64 = 1;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long the run measures for.
    pub seconds: f64,
    pub scale: Scale,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// The repetitions the value was picked from, where there were any.
    pub reps: Option<Reps>,
}

impl Metric {
    pub fn exact(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            reps: None,
        }
    }

    /// `value`, with the spread of the repetitions it was picked from.
    fn picked(name: &'static str, value: f64, unit: &'static str, reps: &[f64]) -> Self {
        Self {
            name,
            value,
            unit,
            reps: Some(Reps::of(reps)),
        }
    }
}

/// The undisturbed time of a region the repetitions timed in parts: each
/// part's fastest time over the repetitions, summed. The host is a shared
/// virtual machine whose neighbours slow it by up to 1.8x in phases of
/// seconds to minutes; interference only ever adds time, so the fastest
/// time of each part estimates the program's own cost, and the finer the
/// parts and the longer the run, the likelier each part is to have met a
/// quiet moment.
pub fn floor_s<T>(reps: &[T], parts: impl Fn(&T) -> &[f64]) -> f64 {
    (0..parts(&reps[0]).len())
        .map(|i| {
            reps.iter()
                .map(|r| parts(r)[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

pub struct Output {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// One digest per run or stream, as `golden/<workload>.txt` lists them.
    pub digests: Vec<u64>,
}

/// Runs `rep` over and over until the next repetition would end after
/// `seconds` on `clock`, but at least once.
pub fn repeat<T>(
    clock: Instant,
    seconds: f64,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    loop {
        let before = clock.elapsed().as_secs_f64();
        out.push(rep()?);
        let after = clock.elapsed().as_secs_f64();
        if after + (after - before) > seconds {
            return Ok(out);
        }
    }
}

/// Checks every repetition's digests against `reference` (the one-call
/// entry point's), the fleet's paper orderings and, on the default seed,
/// the committed golden digests (both at full size only).
pub fn check_reps(args: &Args, reps: &[Rep], reference: &[u64], checks: &mut Checks) {
    for (r, rep) in reps.iter().enumerate() {
        checks.check(rep.digests == reference, || {
            format!(
                "repetition {r} digests {:x?} != {reference:x?}",
                rep.digests
            )
        });
        checks.check(rep.disk_bytes == reps[0].disk_bytes, || {
            format!(
                "repetition {r} wrote {} bytes, not {}",
                rep.disk_bytes, reps[0].disk_bytes
            )
        });
    }
    if let (Some(fleet), false) = (&reps[0].fleet, args.scale.smoke) {
        check_paper_orderings(fleet, checks);
    }
    if args.seed == DEFAULT_SEED && !args.scale.smoke {
        let path = format!("benchmark/golden/{}.txt", args.workload.name());
        let golden = std::fs::read_to_string(&path).unwrap_or_default();
        let golden: Vec<&str> = golden.split_whitespace().collect();
        let got: Vec<String> = reference.iter().map(|d| format!("{d:016x}")).collect();
        checks.check(golden == got, || {
            format!("{path} lists {golden:?}, run gave {got:?}")
        });
    }
}

pub fn end_to_end(args: &Args) -> Result<Output, String> {
    let mut checks = Checks::default();
    let clock = Instant::now();
    // The one-call runs also warm the process up; every repetition makes
    // its inputs afresh, so these are dropped.
    let reference = one_call_digests(&Inputs::make(args.workload, args.seed, args.scale)?.0)?;
    // Peak memory is read after the first repetition: the allocator keeps
    // what later repetitions' fresh threads free, so the peak at exit
    // would grow with the repetition count, which the host's speed sets.
    let mut peak_rss = None;
    let reps = repeat(clock, args.seconds, || {
        let rep = run_rep(args.workload, args.seed, args.scale, &mut checks);
        peak_rss.get_or_insert_with(peak_rss_mib);
        rep
    })?;
    check_reps(args, &reps, &reference, &mut checks);
    let last = &reps[reps.len() - 1];
    let rate = |name, events: u64, parts: fn(&Rep) -> &[f64]| {
        let whole: Vec<f64> = reps
            .iter()
            .map(|r| events as f64 / parts(r).iter().sum::<f64>())
            .collect();
        Metric::picked(name, events as f64 / floor_s(&reps, parts), "1/s", &whole)
    };
    let whole_setups: Vec<f64> = reps.iter().map(|r| r.setup_parts.iter().sum()).collect();
    let metrics = vec![
        rate("events_per_s", last.events, |r| &r.run_parts),
        rate("recover_events_per_s", last.recovered_events, |r| {
            &r.recover_parts
        }),
        rate("replay_events_per_s", last.replay_events, |r| {
            &r.replay_parts
        }),
        Metric::exact(
            "disk_bytes_per_event",
            last.disk_bytes as f64 / last.events as f64,
            "B",
        ),
        Metric::exact(
            "peak_rss_mib",
            peak_rss.expect("at least one repetition"),
            "MiB",
        ),
        Metric::picked(
            "setup_s",
            floor_s(&reps, |r| &r.setup_parts),
            "s",
            &whole_setups,
        ),
    ];
    Ok(Output {
        metrics,
        checks,
        digests: reference,
    })
}
