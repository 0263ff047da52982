//! Trace-driven evaluation end to end: record a synthetic workload to a
//! trace file, replay the file against two different policies, and show
//! that the *same* input stream drives both — the methodological core of
//! the paper's "trace-driven simulation".
//!
//! ```text
//! cargo run --release --example trace_record_replay
//! ```

use pgc::core::PolicyKind;
use pgc::sim::{RunConfig, Simulation};
use pgc::workload::{EncodedTrace, Event, SyntheticWorkload, WorkloadParams};
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn main() {
    let path = std::env::temp_dir().join("pgc_example.trace");

    // 1. Record: generate a workload once and persist it.
    let params = WorkloadParams::small().with_seed(2024);
    let events: Vec<Event> = SyntheticWorkload::new(params.clone())
        .expect("valid params")
        .collect();
    let file = BufWriter::new(File::create(&path).expect("create trace file"));
    let written = EncodedTrace::from_events(params, &events)
        .write_to(file)
        .expect("encode trace");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!(
        "recorded {written} events to {} ({:.1} KB, {:.1} bytes/event)",
        path.display(),
        bytes as f64 / 1024.0,
        bytes as f64 / written as f64
    );

    // 2. Replay the identical stream under two policies.
    let trace = EncodedTrace::read_from(BufReader::new(File::open(&path).expect("open")))
        .expect("read trace");
    let replayed = trace.cursor().decode_all().expect("decode trace");
    assert_eq!(replayed, events, "codec round-trip must be lossless");

    for policy in [PolicyKind::UpdatedPointer, PolicyKind::MutatedPartition] {
        let cfg = RunConfig::small().with_policy(policy);
        let out = Simulation::builder(&cfg)
            .trace(&trace)
            .run()
            .expect("replay runs");
        println!(
            "{:<18} total I/Os {:>6}  reclaimed {:>5.0} KB  footprint {:>6.0} KB",
            policy.name(),
            out.totals.total_ios(),
            out.totals.reclaimed_bytes.as_kib_f64(),
            out.totals.max_footprint.as_kib_f64()
        );
    }

    // 3. Replaying is bit-for-bit equivalent to generating live.
    let cfg = RunConfig::small().with_seed(2024);
    let live = Simulation::builder(&cfg).run().expect("live run");
    let from_trace = Simulation::builder(&cfg)
        .trace(&trace)
        .run()
        .expect("trace run");
    assert_eq!(live.totals, from_trace.totals);
    println!("live generation and trace replay agree exactly ✓");

    let _ = std::fs::remove_file(&path);
}
