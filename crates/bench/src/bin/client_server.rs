//! Multi-tenant client/server run on the sharded runtime.
//!
//! The paper evaluates one client against a local disk. This binary runs
//! the *server*: many client streams, each a tenant with its own
//! partitioned database and selection policy, multiplexed onto a fixed
//! fleet of shard worker threads behind the deterministic router, with a
//! few cross-tenant references flowing through the inter-shard remset.
//!
//! The question it answers: **does multi-tenancy cost anything in
//! fidelity?** It does not — the binary spot-checks that a stream's
//! totals and victim sequence on the fleet are bit-identical to a
//! dedicated single-`Simulation` run of the same events, and reports
//! aggregate throughput per shard alongside the fleet-wide telemetry
//! merge.
//!
//! ```text
//! cargo run --release -p pgc-bench --bin client_server \
//!     [--shards N] [--streams M] [--scale PCT]
//! ```

use pgc_bench::{emit, positive, usage_exit, CommonArgs};
use pgc_core::PolicyKind;
use pgc_server::{Server, ServerConfig, StreamHandle, StreamId, TelemetryLevel};
use pgc_sim::{paper, RunConfig, Simulation};
use pgc_workload::{EncodedTrace, NodeId, TraceSegment};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Events per submitted segment: small enough that thousands of streams
/// interleave on the inboxes, large enough to amortize the ring hop.
const BATCH: u64 = 2048;

/// Peels the server flags off the command line before the common ones
/// parse: `(shards, streams, the rest)`.
fn server_flags(
    args: impl IntoIterator<Item = String>,
) -> Result<(usize, usize, Vec<String>), String> {
    let (mut shards, mut streams) = (4, 8);
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--shards" => &mut shards,
            "--streams" => &mut streams,
            _ => {
                rest.push(arg);
                continue;
            }
        };
        let value = it
            .next()
            .ok_or_else(|| format!("{arg} needs a positive integer"))?;
        *slot = positive(&arg, &value)? as usize;
    }
    Ok((shards, streams, rest))
}

fn main() {
    let (shards, streams, rest) =
        server_flags(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e));
    let args = CommonArgs::flags_only(rest);

    // One tenant per stream: the paper's policy slate round-robined over
    // the streams, each on its own seed.
    println!("generating {streams} tenant workloads...");
    let configs: Vec<(StreamId, RunConfig)> = (0..streams as u64)
        .map(|i| {
            let policy = PolicyKind::PAPER[i as usize % PolicyKind::PAPER.len()];
            let mut cfg = paper::headline(policy, i + 1);
            cfg.workload.target_allocated = args.scale_bytes(cfg.workload.target_allocated);
            (StreamId(i), cfg)
        })
        .collect();
    // Record each tenant's trace once and carve it into segments: the
    // submit loop then ships byte ranges of the shared buffer — no
    // per-event work on the timed path.
    let traces: Vec<Arc<EncodedTrace>> = configs
        .iter()
        .map(|(_, cfg)| Arc::new(EncodedTrace::record(cfg.workload.clone()).expect("record")))
        .collect();
    let mut segments: Vec<VecDeque<TraceSegment>> = traces
        .iter()
        .map(|trace| EncodedTrace::segments(trace, BATCH).expect("carve").into())
        .collect();

    // Open every stream, then feed the fleet round-robin — the
    // interleaving a real server would see.
    println!("running {streams} streams on {shards} shards...");
    let t0 = Instant::now();
    let mut server =
        Server::start(ServerConfig::new(shards).with_telemetry(TelemetryLevel::Metrics));
    let handles: Vec<StreamHandle> = configs
        .iter()
        .map(|(stream, cfg)| server.open_stream(*stream, cfg.clone()).expect("open"))
        .collect();
    loop {
        let mut any = false;
        for (i, &stream) in handles.iter().enumerate() {
            if let Some(segment) = segments[i].pop_front() {
                server.submit_segment(stream, segment).expect("submit");
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    // Cross-tenant references: each tenant points at its neighbor's first
    // few objects — inter-shard remset traffic over the barrier bus.
    for (i, &source) in handles.iter().enumerate() {
        let target = handles[(i + 1) % streams];
        for node in 0..4 {
            server.link(source, target, NodeId(node)).expect("link");
        }
    }
    let fleet = server.shutdown().expect("fleet shutdown");
    let secs = t0.elapsed().as_secs_f64();

    // Fidelity spot-check: stream 0 on the fleet vs a dedicated run.
    let (stream0, cfg0) = &configs[0];
    let dedicated = Simulation::builder(cfg0)
        .trace(&traces[0])
        .run()
        .expect("dedicated run");
    let fleet0 = fleet.outcome(*stream0).expect("stream 0 outcome");
    let identical =
        fleet0.totals == dedicated.totals && fleet0.collections == dedicated.collections;

    let mut out = String::new();
    let _ = writeln!(out, "{streams} streams on {shards} shards");
    let _ = writeln!(
        out,
        "\n{:<7} {:>8} {:>14} {:>13} {:>14} {:>9}",
        "Shard", "streams", "bus events", "activations", "reclaimed KB", "ring hwm"
    );
    for shard in fleet.fleet.shards() {
        let _ = writeln!(
            out,
            "{:<7} {:>8} {:>14} {:>13} {:>14.0} {:>9}",
            shard.shard,
            shard.streams,
            shard.snapshot.counters.events,
            shard.snapshot.counters.activations,
            shard.snapshot.counters.reclaimed_bytes as f64 / 1024.0,
            shard.ring_high_water,
        );
    }
    let merged = fleet.fleet.merged();
    let _ = writeln!(
        out,
        "\nfleet: {} events in {secs:.2}s ({:.0} events/sec aggregate), {} collections",
        fleet.total_events(),
        fleet.total_events() as f64 / secs.max(1e-9),
        fleet.total_collections(),
    );
    if let Some(snap) = &merged {
        let _ = writeln!(
            out,
            "telemetry merge: {} sessions, {} activations recorded",
            snap.runs, snap.counters.activations
        );
    }
    let r = fleet.remset;
    let _ = writeln!(
        out,
        "inter-shard remset: {} registered, {} cleaned, {} relocated, {} dangling",
        r.registered, r.cleaned, r.relocated, r.dangling
    );
    let _ = writeln!(
        out,
        "stream 0 vs dedicated run: {}",
        if identical {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );

    emit(
        &args,
        "Client/Server runtime: multi-tenant streams on the sharded fleet",
        &out,
    );
    assert!(identical, "fleet run diverged from the dedicated run");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(usize, usize, Vec<String>), String> {
        server_flags(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn malformed_server_flags_are_errors_not_panics() {
        let err = |args: &[&str]| parse(args).expect_err("malformed");
        assert_eq!(
            err(&["--shards", "x"]),
            "--shards needs a positive integer, not x"
        );
        assert_eq!(
            err(&["--streams", "x"]),
            "--streams needs a positive integer, not x"
        );
        assert_eq!(
            err(&["--shards", "0"]),
            "--shards needs a positive integer, not 0"
        );
        assert_eq!(
            err(&["--streams", "0"]),
            "--streams needs a positive integer, not 0"
        );
        assert_eq!(err(&["--streams"]), "--streams needs a positive integer");
        let rest = vec!["--scale".to_string(), "25".to_string()];
        assert_eq!(parse(&[]), Ok((4, 8, Vec::new())));
        assert_eq!(
            parse(&["--scale", "25", "--shards", "2", "--streams", "3"]),
            Ok((2, 3, rest))
        );
    }
}
