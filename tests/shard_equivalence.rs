//! Shard-count invariance for the multi-tenant server runtime.
//!
//! The whole point of `pgc-server`'s design — sessions as self-contained
//! `Shard`s, a pure-hash router, weak cross-shard links — is that shard
//! placement decides only *where* a session executes, never *what* it
//! computes. These tests pin that: the same client streams run on 1, 2,
//! and 4 shards must produce bit-identical per-stream totals, victim
//! sequences, and telemetry score bits, all equal to dedicated
//! single-`Simulation` runs; and the inter-shard remset must register
//! each cross-stream pointer exactly once, clean it when the target is
//! reclaimed, and report identical counters at every shard count.

use pgc::core::PolicyKind;
use pgc::prelude::{
    outcome_digest, RunConfig, RunOutcome, Server, ServerConfig, Simulation, StreamHandle, StreamId,
};
use pgc::telemetry::TelemetryLevel;
use pgc::types::SimRng;
use pgc::workload::{EncodedTrace, Event, NodeId, SyntheticWorkload, TraceSegment};
use std::sync::Arc;

const STREAMS: usize = 5;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const BATCH: usize = 512;

fn stream_configs() -> Vec<(StreamId, RunConfig)> {
    (0..STREAMS as u64)
        .map(|i| {
            let policy = PolicyKind::PAPER[i as usize % PolicyKind::PAPER.len()];
            let cfg = RunConfig::small().with_policy(policy).with_seed(i + 1);
            (StreamId(i), cfg)
        })
        .collect()
}

fn stream_events(configs: &[(StreamId, RunConfig)]) -> Vec<Vec<Event>> {
    configs
        .iter()
        .map(|(_, cfg)| {
            SyntheticWorkload::new(cfg.workload.clone())
                .expect("workload params")
                .collect()
        })
        .collect()
}

/// Nodes to cross-link per link-ring edge.
const LINKS_PER_EDGE: usize = 16;

/// A deterministic sample of nodes the target stream allocated in its
/// first half — spread across the allocation order so the sample mixes
/// long-lived tree spine with doomed subtree nodes (some targets must be
/// reclaimed later for the clean path to be exercised).
fn link_nodes(events: &[Event]) -> Vec<NodeId> {
    let allocated: Vec<NodeId> = events[..events.len() / 2]
        .iter()
        .filter_map(|e| match *e {
            Event::CreateRoot { node, .. } | Event::CreateChild { node, .. } => Some(node),
            _ => None,
        })
        .collect();
    let step = (allocated.len() / LINKS_PER_EDGE).max(1);
    allocated
        .iter()
        .step_by(step)
        .take(LINKS_PER_EDGE)
        .copied()
        .collect()
}

/// One shared encoded trace per stream, tiled into `BATCH`-event segments:
/// every batch submitted is a refcounted byte range of it.
fn stream_segments(
    configs: &[(StreamId, RunConfig)],
    events: &[Vec<Event>],
) -> Vec<Vec<TraceSegment>> {
    configs
        .iter()
        .zip(events)
        .map(|((_, cfg), events)| {
            let trace = Arc::new(EncodedTrace::from_events(cfg.workload.clone(), events));
            EncodedTrace::segments(&trace, BATCH as u64).expect("segments")
        })
        .collect()
}

/// Runs every stream on a fleet of `shards` shards, interleaving segments
/// round-robin and registering a ring of cross-stream links midway.
fn run_fleet(
    shards: usize,
    configs: &[(StreamId, RunConfig)],
    events: &[Vec<Event>],
) -> pgc::server::FleetOutcome {
    let mut server = Server::start(ServerConfig::new(shards).with_telemetry(TelemetryLevel::Full));
    let handles: Vec<StreamHandle> = configs
        .iter()
        .map(|(stream, cfg)| server.open_stream(*stream, cfg.clone()).expect("open"))
        .collect();
    let mut segments = stream_segments(configs, events);
    // pop() from the back yields submission order
    segments.iter_mut().for_each(|segs| segs.reverse());
    let mut cursors = vec![0usize; configs.len()];
    let mut linked = false;
    loop {
        let mut any = false;
        for (i, &stream) in handles.iter().enumerate() {
            let at = cursors[i];
            if at >= events[i].len() {
                continue;
            }
            let end = (at + BATCH).min(events[i].len());
            let seg = segments[i].pop().expect("segment per batch");
            assert_eq!(seg.events(), (end - at) as u64, "segment tiling");
            server.submit_segment(stream, seg).expect("submit_segment");
            cursors[i] = end;
            any = true;
        }
        // Halfway through the first stream, wire the link ring — early
        // enough that later collections reclaim or relocate some targets.
        if !linked && cursors[0] >= events[0].len() / 2 {
            linked = true;
            for (i, &source) in handles.iter().enumerate() {
                let target = (i + 1) % handles.len();
                for node in link_nodes(&events[target]) {
                    // Twice on purpose: registration must be idempotent.
                    server.link(source, handles[target], node).expect("link");
                    server.link(source, handles[target], node).expect("link");
                }
            }
        }
        if !any {
            break;
        }
    }
    server.shutdown().expect("shutdown")
}

fn dedicated_runs(configs: &[(StreamId, RunConfig)], events: &[Vec<Event>]) -> Vec<RunOutcome> {
    configs
        .iter()
        .zip(events)
        .map(|((_, cfg), events)| {
            let trace = EncodedTrace::from_events(cfg.workload.clone(), events);
            Simulation::builder(cfg)
                .trace(&trace)
                .telemetry(TelemetryLevel::Full)
                .run()
                .expect("dedicated run")
        })
        .collect()
}

#[test]
fn per_stream_results_are_shard_count_invariant() {
    let configs = stream_configs();
    let events = stream_events(&configs);
    let baseline = dedicated_runs(&configs, &events);

    for shards in SHARD_COUNTS {
        let fleet = run_fleet(shards, &configs, &events);
        assert_eq!(fleet.shards, shards);
        assert_eq!(fleet.outcomes.len(), STREAMS);
        for ((stream, cfg), dedicated) in configs.iter().zip(&baseline) {
            let outcome = fleet.outcome(*stream).expect("stream outcome");
            assert_eq!(
                outcome.totals, dedicated.totals,
                "{} totals diverged on {shards} shard(s) ({:?})",
                stream, cfg.policy
            );
            let fleet_victims: Vec<_> = outcome.collections.iter().map(|c| c.victim).collect();
            let solo_victims: Vec<_> = dedicated.collections.iter().map(|c| c.victim).collect();
            assert_eq!(
                fleet_victims, solo_victims,
                "{stream} victim sequence diverged on {shards} shard(s)"
            );
            assert_eq!(
                outcome.collections, dedicated.collections,
                "{stream} collection outcomes diverged on {shards} shard(s)"
            );
            // Full-level telemetry includes the score histograms and
            // per-activation records — every bit must survive hosting.
            assert_eq!(
                outcome.telemetry, dedicated.telemetry,
                "{stream} telemetry diverged on {shards} shard(s)"
            );
        }
    }
}

#[test]
fn fleet_aggregates_are_shard_count_invariant() {
    let configs = stream_configs();
    let events = stream_events(&configs);

    let fleets: Vec<_> = SHARD_COUNTS
        .iter()
        .map(|&shards| run_fleet(shards, &configs, &events))
        .collect();
    let first = &fleets[0];
    for fleet in &fleets[1..] {
        assert_eq!(
            fleet.total_events(),
            first.total_events(),
            "aggregate event count depends on shard count"
        );
        assert_eq!(fleet.total_collections(), first.total_collections());
        assert_eq!(
            fleet.remset, first.remset,
            "inter-shard remset counters depend on shard count"
        );
        // The fleet-wide telemetry merge folds counters and histograms,
        // which are order-independent — the aggregate must not notice how
        // sessions were grouped into shards.
        let a = fleet.fleet.merged().expect("telemetry enabled");
        let b = first.fleet.merged().expect("telemetry enabled");
        assert_eq!(a.runs, b.runs, "merged session count");
        assert_eq!(a.counters, b.counters, "merged counters");
        assert_eq!(fleet.fleet.streams(), first.fleet.streams());
    }
}

#[test]
fn cross_shard_links_register_once_and_clean_on_reclaim() {
    let configs = stream_configs();
    let events = stream_events(&configs);
    let fleet = run_fleet(2, &configs, &events);

    let stats = fleet.remset;
    // Each ring edge links LINKS_PER_EDGE nodes, each twice: idempotency
    // caps distinct registrations at streams × links-per-edge; duplicate
    // attempts must not double-count (resolved duplicates are absorbed,
    // unresolved ones count dangling).
    let attempted = (STREAMS * LINKS_PER_EDGE) as u64;
    assert!(
        stats.registered <= attempted,
        "duplicate link registrations were counted: {stats:?}"
    );
    assert!(
        stats.registered > 0,
        "no cross-stream link resolved — the ring never registered: {stats:?}"
    );
    // Every registration is eventually either live or cleaned; cleaning
    // only happens for registered links.
    assert!(
        stats.cleaned <= stats.registered,
        "cleaned more links than were registered: {stats:?}"
    );
    assert!(
        stats.cleaned > 0,
        "no linked target was reclaimed — the workload never exercised \
         the clean path: {stats:?}"
    );
}

/// How a worker batches its ring must be invisible too. A one-slot ring
/// hands the worker one message at a time, so nothing can be regrouped and
/// the fleet is served in exactly submission order; a 256-slot ring lets
/// it pull a stream's segments — and the links that resolve against that
/// stream — out from between every other stream's. With links seeded all
/// through the run (some resolve, some dangle, some are cleaned or
/// relocated later), every stream's digest, the remset counters, and the
/// links left into every stream must be the same in both, at every shard
/// count.
#[test]
fn drain_batching_is_invisible_in_results_and_links() {
    let configs = stream_configs();
    let events = stream_events(&configs);
    let segments = stream_segments(&configs, &events);

    let run = |shards: usize, inbox_capacity: usize| {
        let mut server =
            Server::start(ServerConfig::new(shards).with_inbox_capacity(inbox_capacity));
        let handles: Vec<StreamHandle> = configs
            .iter()
            .map(|(stream, cfg)| server.open_stream(*stream, cfg.clone()).expect("open"))
            .collect();
        // Round-robin over the streams, a seeded link before every third
        // submit, naming a node its target may or may not have been sent
        // yet.
        let mut rng = SimRng::new(0xD2A1);
        let mut sent = [0u64; STREAMS];
        let mut submits = 0;
        for round in 0.. {
            let mut any = false;
            for (i, &stream) in handles.iter().enumerate() {
                let Some(segment) = segments[i].get(round) else {
                    continue;
                };
                any = true;
                if submits % 3 == 0 {
                    let target = rng.pick_index(STREAMS);
                    let source = (target + 1 + rng.pick_index(STREAMS - 1)) % STREAMS;
                    let node = NodeId(rng.below((sent[target] / 4).max(1)));
                    server
                        .link(handles[source], handles[target], node)
                        .expect("link");
                }
                server
                    .submit_segment(stream, segment.clone())
                    .expect("submit_segment");
                sent[i] += segment.events();
                submits += 1;
            }
            if !any {
                break;
            }
        }
        let fleet = server.shutdown().expect("shutdown");
        assert!(fleet
            .ring_high_water
            .iter()
            .all(|&h| h <= inbox_capacity as u64));
        let digests: Vec<u64> = fleet
            .outcomes
            .iter()
            .map(|(_, o)| outcome_digest(o))
            .collect();
        let links: Vec<_> = configs.iter().map(|(s, _)| fleet.links_into(*s)).collect();
        (digests, fleet.remset, links)
    };

    let reference = run(1, 1);
    let (_, stats, links) = &reference;
    assert!(stats.registered > 0 && stats.dangling > 0, "{stats:?}");
    assert!(stats.cleaned > 0 && stats.relocated > 0, "{stats:?}");
    assert!(
        links.iter().any(|l| !l.is_empty()),
        "some link must survive"
    );
    for shards in SHARD_COUNTS {
        for inbox_capacity in [1, 256] {
            assert!(
                run(shards, inbox_capacity) == reference,
                "{shards} shard(s), {inbox_capacity}-slot rings"
            );
        }
    }
}

/// How a client cuts its stream must be semantically invisible: a stream
/// fed as many tiny segments — alternating freshly encoded slices and
/// unaligned ranges of one shared trace, over a two-slot ring — must be
/// bit-identical to one whole-trace segment and to a dedicated run.
#[test]
fn ragged_tiny_segments_match_one_whole_segment() {
    let configs = stream_configs();
    let events = stream_events(&configs);
    let (stream, cfg) = configs[0].clone();
    let dedicated = &dedicated_runs(&configs[..1], &events[..1])[0];
    let trace = Arc::new(EncodedTrace::from_events(cfg.workload.clone(), &events[0]));

    // 97 events per chunk: never block-aligned, so segment carving takes
    // the mark-then-scan path and the worker's scratch block refills at
    // awkward offsets.
    const CHUNK: usize = 97;
    let segments = EncodedTrace::segments(&trace, CHUNK as u64).expect("segments");
    let tiny = ServerConfig::new(1)
        .with_telemetry(TelemetryLevel::Full)
        .with_inbox_capacity(2);

    let mut interleaved = Server::start(tiny.clone());
    let handle = interleaved.open_stream(stream, cfg.clone()).expect("open");
    for (j, segment) in segments.into_iter().enumerate() {
        let at = j * CHUNK;
        let end = (at + CHUNK).min(events[0].len());
        let segment = if j % 2 == 0 {
            TraceSegment::encode(&events[0][at..end])
        } else {
            segment
        };
        interleaved
            .submit_segment(handle, segment)
            .expect("submit_segment");
    }
    let interleaved = interleaved.shutdown().expect("shutdown");

    let mut whole = Server::start(tiny);
    let handle = whole.open_stream(stream, cfg).expect("open");
    whole
        .submit_segment(handle, TraceSegment::whole(trace))
        .expect("submit_segment");
    let whole = whole.shutdown().expect("shutdown");

    let a = interleaved.outcome(stream).expect("outcome");
    let b = whole.outcome(stream).expect("outcome");
    assert_eq!(a.totals, b.totals, "segment cuts changed the totals");
    assert_eq!(a.collections, b.collections);
    assert_eq!(
        a.telemetry, b.telemetry,
        "segment cuts changed telemetry bits"
    );
    assert_eq!(a.totals, dedicated.totals);
    assert_eq!(a.collections, dedicated.collections);
    assert_eq!(a.telemetry, dedicated.telemetry);
}

/// A one-slot ring must throttle the producer, not drop or reorder: the
/// full workload still lands, and the high-water mark never exceeds the
/// configured capacity.
#[test]
fn one_slot_inbox_backpressures_without_losing_events() {
    let configs = stream_configs();
    let events = stream_events(&configs);
    let (stream, cfg) = configs[0].clone();

    let mut server = Server::start(ServerConfig::new(1).with_inbox_capacity(1));
    let handle = server.open_stream(stream, cfg).expect("open");
    for chunk in events[0].chunks(64) {
        server
            .submit_segment(handle, TraceSegment::encode(chunk))
            .expect("submit");
    }
    let fleet = server.shutdown().expect("shutdown");
    assert_eq!(fleet.total_events(), events[0].len() as u64);
    assert_eq!(fleet.ring_high_water, vec![1], "one slot bounds occupancy");
}

/// A create event that does not name the next dense id — a spliced or
/// forged segment — is refused by the replayer, in every build. The
/// worker hands the error back and it surfaces at shutdown; nothing
/// panics and no later id is bound to the wrong object.
#[test]
fn a_non_dense_create_id_surfaces_as_an_error_at_shutdown() {
    use pgc::types::{Bytes, PgcError};

    let (stream, cfg) = stream_configs()[0].clone();
    let mut server = Server::start(ServerConfig::new(1));
    let handle = server.open_stream(stream, cfg).expect("open");
    let poison = Event::CreateRoot {
        node: NodeId(1_000_000),
        size: Bytes(64),
        slots: 2,
    };
    server
        .submit_segment(handle, TraceSegment::encode(&[poison]))
        .expect("enqueue");
    let err = server.shutdown().expect_err("the poisoned stream");
    assert!(
        matches!(&err, PgcError::TraceFormat(msg) if msg.contains("1000000")),
        "got {err}"
    );
}
