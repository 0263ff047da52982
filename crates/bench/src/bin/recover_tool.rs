//! Crash-recovery smoke tooling for the durable storage backend.
//!
//! ```text
//! recover_tool run <dir> [policy] [seed]            # full durable run, prints digest
//! recover_tool crash <dir> <events> [policy] [seed] # persist, abandon mid-run
//! recover_tool recover <dir> [--verify] [--expect DIGEST]
//! ```
//!
//! `run` persists a small workload (snapshots + change log, a generation at
//! every safepoint) into `dir` and prints the [`outcome_digest`] of the
//! finished run. `crash` does the same for a workload four times as long,
//! fed as blocks cut at `<events>`, then *abandons* the shard — no final
//! snapshot, no clean log close, buffered frames dropped on the floor, and
//! the store's snapshot writer thread cut off wherever it was (the newest
//! generation not landed, a stray `.tmp`) — simulating a process
//! kill. `recover` rebuilds the run from the
//! directory alone and prints what recovery did: the generation it restored
//! (and that generation's event), the tail it replayed, and where the wall
//! time went (reading the log, loading the generation, replaying the tail,
//! finishing); then, read back from the restored file, how many object
//! records it holds and the bytes they take. `--verify` also replays the
//! whole log from event 0, holding
//! every usable generation to the replay's capture byte for byte (and each
//! to its predecessor restored and replayed), recovers again from the newest,
//! and fails unless that recovery reaches the replay's digest; `--expect` exits nonzero unless the
//! recovered digest matches,
//! which is how CI pins that a recovered run is bit-identical to the
//! uninterrupted one.
//!
//! `crash` is the one real process exit among the crash tests. The
//! crash-point matrix in `pgc-sim`'s unit tests (`durable/store.rs`)
//! rebuilds every directory state a kill can leave from a record of the
//! store's writes and recovers each; CI's kills at 13,000 and 21,000
//! events are the reference that model is held to.

use pgc_odb::PolicyKind;
use pgc_sim::durable::{read_generation, restore, scan_snapshots, DurabilityConfig};
use pgc_sim::{outcome_digest, verify, RunConfig, RunOutcome, Shard, Simulation, TelemetryLevel};
use pgc_types::Bytes;
use pgc_workload::{EncodedTrace, EventBlock, BLOCK_EVENTS};
use std::process::exit;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage:\n  recover_tool run <dir> [policy] [seed]\n  recover_tool crash <dir> <events> [policy] [seed]\n  recover_tool recover <dir> [--verify] [--expect DIGEST]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("crash") => crash(&args[1..]),
        Some("recover") => do_recover(&args[1..]),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn parse_policy_seed(args: &[String]) -> Result<(PolicyKind, u64), String> {
    let policy = match args.first() {
        Some(p) => p.parse()?,
        None => PolicyKind::UpdatedPointer,
    };
    let seed = match args.get(1) {
        Some(s) => s.parse().map_err(|_| "seed must be an integer")?,
        None => 1,
    };
    Ok((policy, seed))
}

/// A generation at every safepoint, so one lands at each `BLOCK_EVENTS`
/// boundary that completed a collection.
fn config(policy: PolicyKind, seed: u64, dir: &str) -> RunConfig {
    RunConfig::small()
        .with_policy(policy)
        .with_seed(seed)
        .with_durability(DurabilityConfig::snapshot_and_log(dir).with_snapshot_every(1))
}

/// What `crash` allocates: four times `run`'s workload (about 40,000
/// events against 10,000), so a kill can come after generations have been
/// pruned.
const CRASH_ALLOCATES: Bytes = Bytes::from_kib(2048);

fn print_digest(label: &str, out: &RunOutcome) {
    println!(
        "{label}: policy {} seed {} events {} collections {} digest {:016x}",
        out.policy.name(),
        out.seed,
        out.totals.events,
        out.totals.collections,
        outcome_digest(out)
    );
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(dir) = args.first() else { usage() };
    let (policy, seed) = parse_policy_seed(&args[1..])?;
    let cfg = config(policy, seed, dir);
    let out = Simulation::builder(&cfg)
        .telemetry(TelemetryLevel::Metrics)
        .run()
        .map_err(|e| e.to_string())?;
    print_digest("run", &out);
    Ok(())
}

fn crash(args: &[String]) -> Result<(), String> {
    let [dir, events, rest @ ..] = args else {
        usage()
    };
    let budget: u64 = events.parse().map_err(|_| "events must be an integer")?;
    let (policy, seed) = parse_policy_seed(rest)?;
    let cfg = config(policy, seed, dir).with_heap_growth(CRASH_ALLOCATES);
    let err = |e: pgc_types::PgcError| e.to_string();
    let trace = EncodedTrace::record(cfg.workload.clone()).map_err(err)?;
    let mut shard = Shard::new(&cfg).map_err(err)?;
    shard.enable_telemetry(TelemetryLevel::Metrics);
    let (mut cursor, mut block) = (trace.cursor(), EventBlock::new());
    let room = |applied: u64| (budget - applied).min(BLOCK_EVENTS as u64) as usize;
    while cursor
        .next_block_of(&mut block, room(shard.events_applied()))
        .map_err(err)?
        > 0
    {
        shard.step_block(&block).map_err(err)?;
    }
    println!(
        "crash: policy {} seed {} abandoned after {} of {} events",
        policy.name(),
        seed,
        shard.events_applied(),
        trace.events()
    );
    // Simulate the kill: leak the shard so neither the final snapshot nor
    // the buffered log tail is written — process exit drops the file
    // descriptors with whatever the OS already has.
    std::mem::forget(shard);
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn do_recover(args: &[String]) -> Result<(), String> {
    let Some(dir) = args.first() else { usage() };
    let (mut also_verify, mut expect) = (false, None);
    let mut flags = args[1..].iter();
    while let Some(flag) = flags.next() {
        match (flag.as_str(), flags.as_slice().first()) {
            ("--verify", _) => also_verify = true,
            ("--expect", Some(digest)) => {
                expect = Some(
                    u64::from_str_radix(digest.trim_start_matches("0x"), 16)
                        .map_err(|_| "DIGEST must be hex")?,
                );
                flags.next();
            }
            _ => usage(),
        }
    }
    let err = |e: pgc_types::PgcError| e.to_string();
    // `recover`, one step at a time so each can be timed.
    let restoring = Instant::now();
    let (mut shard, tail) = restore(dir.as_ref()).map_err(err)?;
    let restored = restoring.elapsed();
    let (at, log_wall) = (shard.events_applied(), tail.log_wall);
    let replaying = Instant::now();
    tail.replay(&mut shard).map_err(err)?;
    let replayed = replaying.elapsed();
    for (generation, why) in &tail.passed_over {
        println!("passed over: generation {generation}: {why}");
    }
    let finishing = Instant::now();
    let rec = tail.finish(shard).map_err(err)?;
    let finished = finishing.elapsed();
    println!(
        "restored: {} at event {at}, {} tail events replayed; wall ms: log {:.1}, image {:.1}, tail {:.1}, finish {:.1}",
        match rec.restored_from {
            Some(generation) => format!("generation {generation}"),
            None => "fresh start".to_string(),
        },
        rec.tail_events,
        ms(log_wall),
        ms(restored.saturating_sub(log_wall)),
        ms(replayed),
        ms(finished),
    );
    if let Some(generation) = rec.restored_from {
        let files = scan_snapshots(dir.as_ref()).map_err(err)?;
        let file = files.iter().find(|f| f.generation == generation);
        let image = read_generation(&file.ok_or("the restored generation is gone")?.path);
        let image = image.map_err(err)?;
        let (records, bytes) = (image.record_counts().sum::<usize>(), image.record_bytes());
        println!(
            "image: generation {generation}, {records} records in {bytes} bytes ({:.1} B per record)",
            bytes as f64 / records.max(1) as f64
        );
    }
    println!(
        "recovered: {} events, {} safepoints read, {} images restored ({} generations skipped), torn tail: {}",
        rec.events_replayed,
        rec.safepoints,
        rec.snapshots_verified,
        rec.snapshot_files_skipped,
        match &rec.torn_tail {
            Some(t) => format!("yes (segment {} @{}: {})", t.segment, t.offset, t.reason),
            None => "no".to_string(),
        }
    );
    print_digest("recover", &rec.outcome);
    if also_verify {
        let checked = verify(dir.as_ref()).map_err(err)?;
        println!(
            "verified: {} events replayed from 0, {} generations round-tripped ({} passed over)",
            checked.events_replayed, checked.snapshots_verified, checked.snapshot_files_skipped
        );
        print_digest("verify", &checked.outcome);
    }
    if let Some(want) = expect {
        let got = outcome_digest(&rec.outcome);
        if got != want {
            return Err(format!(
                "digest mismatch: expected {want:016x}, got {got:016x}"
            ));
        }
        println!("digest matches");
    }
    Ok(())
}
