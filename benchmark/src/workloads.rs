//! The two workloads: how their inputs are made from the seed (set-up),
//! one repetition of each — its persisted leg, the recovery of what that
//! leg wrote, and the bare replay of the same traces — and the correctness
//! checks on what comes back.

use pgc::durable::ScratchDir;
use pgc::prelude::*;
use pgc::types::{fast_hash_u64, SimRng};
use pgc::workload::{EventBlock, NodeId, BLOCK_EVENTS};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Events per submitted segment: one decode block.
pub const SEGMENT_EVENTS: u64 = 4096;
/// `fleet_roundtrip` registers one cross-stream link per this many submits.
const SUBMITS_PER_LINK: usize = 64;
/// A stepped run is timed every this many blocks (3 to 20 ms), so that the
/// fastest time of each part can be picked over the repetitions.
const PART_BLOCKS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChurnDurable,
    FleetRoundtrip,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ChurnDurable, Workload::FleetRoundtrip];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnDurable => "churn_durable",
            Workload::FleetRoundtrip => "fleet_roundtrip",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size, or the seconds-long `--smoke` scale-down (heaps ÷ 8, one
/// seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn heap(self, mib: u64) -> Bytes {
        Bytes::from_kib(mib * 1024 / if self.smoke { 8 } else { 1 })
    }

    /// Both workloads run the seeds from `--seed` up: averaging three
    /// takes the seed out of the rates (one churn trace's snapshot bytes
    /// per event alone spread 8% over seeds, three traces' mean 3%).
    fn seeds(self, seed: u64) -> std::ops::Range<u64> {
        seed..seed + if self.smoke { 1 } else { 3 }
    }
}

/// The heap each of `churn_durable`'s runs and each of `fleet_roundtrip`'s
/// tenants grows to.
const CHURN_HEAP_MIB: u64 = 32;
const FLEET_HEAP_MIB: u64 = 4;

/// One run's configuration and recorded trace: one of `churn_durable`'s
/// runs, or one tenant of `fleet_roundtrip` with its trace tiled into
/// segments.
pub struct Stream {
    pub cfg: RunConfig,
    pub trace: Arc<EncodedTrace>,
    pub segments: Vec<TraceSegment>,
}

/// One client action of `fleet_roundtrip`, in submission order.
pub enum Action {
    Submit {
        stream: usize,
        segment: usize,
    },
    Link {
        source: usize,
        target: usize,
        node: NodeId,
    },
}

/// What set-up produces: everything the timed region consumes.
pub struct Inputs {
    pub streams: Vec<Stream>,
    /// The fleet client's actions; empty for `churn_durable`.
    pub schedule: Vec<Action>,
}

/// `churn_durable`'s runs: one delete-heavy trace per seed.
fn churn_cfgs(seed: u64, scale: Scale) -> Vec<RunConfig> {
    scale
        .seeds(seed)
        .map(|seed| {
            RunConfig::paper(PolicyKind::UpdatedPointer, seed)
                .with_heap_growth(scale.heap(CHURN_HEAP_MIB))
                .with_deletions_per_round(90)
                .with_traversals_per_round(11)
        })
        .collect()
}

/// `fleet_roundtrip`'s tenants: the paper's six policies on each of the
/// seeds from `seed` up, seed-major, so the fleet is a small paper sweep.
fn fleet_cfgs(seed: u64, scale: Scale) -> Vec<RunConfig> {
    let mut cfgs = Vec::new();
    for seed in scale.seeds(seed) {
        for policy in PolicyKind::PAPER {
            cfgs.push(RunConfig::paper(policy, seed).with_heap_growth(scale.heap(FLEET_HEAP_MIB)));
        }
    }
    cfgs
}

impl Inputs {
    /// Generates and encodes the workload's traces (the policies of one
    /// fleet seed share theirs) and, for the fleet, tiles them into
    /// segments and lays out the client's schedule. This whole function is
    /// what `setup_s` times, in one part per stream.
    pub fn make(workload: Workload, seed: u64, scale: Scale) -> Result<(Self, Vec<f64>), String> {
        let err = |e: pgc::types::PgcError| e.to_string();
        let cfgs = match workload {
            Workload::ChurnDurable => churn_cfgs(seed, scale),
            Workload::FleetRoundtrip => fleet_cfgs(seed, scale),
        };
        let mut streams: Vec<Stream> = Vec::with_capacity(cfgs.len());
        let mut parts = Vec::with_capacity(cfgs.len());
        for cfg in cfgs {
            let start = Instant::now();
            let shared = streams.iter().find(|s| s.cfg.workload == cfg.workload);
            let trace = match shared {
                Some(s) => Arc::clone(&s.trace),
                None => Arc::new(EncodedTrace::record(cfg.workload.clone()).map_err(err)?),
            };
            let segments = match workload {
                Workload::ChurnDurable => Vec::new(),
                Workload::FleetRoundtrip => {
                    EncodedTrace::segments(&trace, SEGMENT_EVENTS).map_err(err)?
                }
            };
            parts.push(start.elapsed().as_secs_f64());
            streams.push(Stream {
                cfg,
                trace,
                segments,
            });
        }
        let start = Instant::now();
        let schedule = fleet_schedule(&streams, seed);
        *parts.last_mut().expect("at least one stream") += start.elapsed().as_secs_f64();
        Ok((Self { streams, schedule }, parts))
    }

    /// The distinct traces set-up recorded.
    pub fn traces(&self) -> Vec<&Arc<EncodedTrace>> {
        let mut distinct: Vec<&Arc<EncodedTrace>> = Vec::new();
        for s in &self.streams {
            if !distinct.iter().any(|t| Arc::ptr_eq(t, &s.trace)) {
                distinct.push(&s.trace);
            }
        }
        distinct
    }

    /// Encoded bytes and events of those traces.
    pub fn trace_size(&self) -> (u64, u64) {
        self.traces().iter().fold((0, 0), |(bytes, events), t| {
            (bytes + t.byte_len() as u64, events + t.events())
        })
    }
}

/// Round-robin over the streams' segments, with one seeded cross-stream
/// link before every `SUBMITS_PER_LINK`th submit. A link names a node id
/// below a sixteenth of the events its target has been sent, so some
/// resolve, some are reclaimed later, and some dangle.
fn fleet_schedule(streams: &[Stream], seed: u64) -> Vec<Action> {
    let mut rng = SimRng::new(fast_hash_u64(seed ^ 0xF1EE7));
    let mut next = vec![0usize; streams.len()];
    let mut sent = vec![0u64; streams.len()];
    let mut schedule = Vec::new();
    let mut submits = 0usize;
    loop {
        let mut any = false;
        for (stream, s) in streams.iter().enumerate() {
            let Some(segment) = s.segments.get(next[stream]) else {
                continue;
            };
            any = true;
            if submits > 0 && submits.is_multiple_of(SUBMITS_PER_LINK) {
                let target = rng.pick_index(streams.len());
                let source = (target + 1 + rng.pick_index(streams.len() - 1)) % streams.len();
                let node = NodeId(rng.below((sent[target] / 16).max(1)));
                schedule.push(Action::Link {
                    source,
                    target,
                    node,
                });
            }
            schedule.push(Action::Submit {
                stream,
                segment: next[stream],
            });
            next[stream] += 1;
            sent[stream] += segment.events();
            submits += 1;
        }
        if !any {
            return schedule;
        }
    }
}

/// Correctness checks attempted and failed; these are the benchmark's
/// `attempted` and `failed` operations.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// Host time the client spent inside each `Server` call (traced runs only).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerTimes {
    pub open_s: f64,
    pub submit_wait_s: f64,
    pub submit_calls: u64,
    pub shutdown_s: f64,
}

/// What one repetition of a workload produced. Each leg's wall time is
/// kept in the parts the public API lets it be timed in.
#[derive(Default)]
pub struct Rep {
    /// `Inputs::make`, one part per stream.
    pub setup_parts: Vec<f64>,
    /// The persisted leg: `churn_durable`'s run with snapshots and the
    /// change log on, stepped and timed every `PART_BLOCKS` blocks, or
    /// `fleet_roundtrip`'s `Server::start` → `shutdown()` returned (one
    /// part: nothing inside it can be timed from the client).
    pub run_parts: Vec<f64>,
    pub events: u64,
    /// One `recover(dir)` per directory the persisted leg wrote.
    pub recover_parts: Vec<f64>,
    pub recovered_events: u64,
    /// The same traces through a bare single-shard run with durability
    /// off, stepped and timed like `churn_durable`'s persisted leg.
    pub replay_parts: Vec<f64>,
    pub replay_events: u64,
    /// Bytes the persisted leg wrote to its data directories (log +
    /// snapshots).
    pub disk_bytes: u64,
    /// One digest per run or stream, from the persisted leg.
    pub digests: Vec<u64>,
    pub fleet: Option<FleetOutcome>,
    /// Wall time of `read_log` alone over the data directories, and the
    /// bytes left in them (traced runs only).
    pub read_log_s: f64,
    pub dir_bytes: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One single-shard run, stepped through `Shard` the way
/// `Simulation::builder(cfg).trace(t).run()` steps it under
/// `Parallelism::Serial`, with the clock read every `PART_BLOCKS` blocks.
/// `Shard::new` falls into the first part and `finish` is the last.
pub fn run_stepped(
    cfg: &RunConfig,
    trace: &EncodedTrace,
    parts: &mut Vec<f64>,
) -> Result<RunOutcome, String> {
    let err = |e: pgc::types::PgcError| e.to_string();
    let mut mark = Instant::now();
    let mut lap = |parts: &mut Vec<f64>| {
        let now = Instant::now();
        parts.push(now.duration_since(mark).as_secs_f64());
        mark = now;
    };
    let mut shard = Shard::new(cfg).map_err(err)?;
    let mut cursor = trace.cursor();
    let mut block = EventBlock::with_capacity(BLOCK_EVENTS);
    let mut blocks = 0;
    while cursor.next_block(&mut block).map_err(err)? > 0 {
        shard.step_block(&block).map_err(err)?;
        blocks += 1;
        if blocks % PART_BLOCKS == 0 {
            lap(parts);
        }
    }
    let out = shard.finish(trace.stats()).map_err(err)?;
    lap(parts);
    Ok(out)
}

/// The persisted leg of one repetition, into fresh directories under
/// `dir`; returns the directories it wrote. `server_times` (traced runs)
/// times the client's calls into `Server`.
pub fn persisted_leg(
    workload: Workload,
    inputs: &Inputs,
    dir: &ScratchDir,
    mut server_times: Option<&mut ServerTimes>,
) -> Result<(Rep, Vec<PathBuf>), String> {
    let err = |e: pgc::types::PgcError| e.to_string();
    let streams = &inputs.streams;
    let mut rep = Rep::default();
    match workload {
        Workload::ChurnDurable => {
            let mut dirs = Vec::with_capacity(streams.len());
            for (i, s) in streams.iter().enumerate() {
                let dir = dir.join(format!("run-{i}"));
                let cfg = s
                    .cfg
                    .clone()
                    .with_durability(DurabilityConfig::snapshot_and_log(&dir));
                let out = run_stepped(&cfg, &s.trace, &mut rep.run_parts)?;
                let storage = out.storage.ok_or("durable run reported no storage stats")?;
                rep.events += out.totals.events;
                rep.disk_bytes += storage.log_bytes + storage.snapshot_bytes;
                rep.digests.push(outcome_digest(&out));
                dirs.push(dir);
            }
            Ok((rep, dirs))
        }
        Workload::FleetRoundtrip => {
            let start = Instant::now();
            let mut server = Server::start(
                ServerConfig::new(1)
                    .with_data_dir(dir.path())
                    .with_durability_mode(DurabilityMode::LogOnly),
            );
            let mut handles = Vec::with_capacity(streams.len());
            for (i, s) in streams.iter().enumerate() {
                handles.push(
                    server
                        .open_stream(StreamId(i as u64), s.cfg.clone())
                        .map_err(err)?,
                );
            }
            if let Some(t) = server_times.as_deref_mut() {
                t.open_s = start.elapsed().as_secs_f64();
            }
            for action in &inputs.schedule {
                match *action {
                    Action::Submit { stream, segment } => {
                        let segment = streams[stream].segments[segment].clone();
                        let call = server_times.is_some().then(Instant::now);
                        server
                            .submit_segment(handles[stream], segment)
                            .map_err(err)?;
                        if let (Some(t), Some(call)) = (server_times.as_deref_mut(), call) {
                            t.submit_wait_s += call.elapsed().as_secs_f64();
                            t.submit_calls += 1;
                        }
                    }
                    Action::Link {
                        source,
                        target,
                        node,
                    } => server
                        .link(handles[source], handles[target], node)
                        .map_err(err)?,
                }
            }
            let closing = Instant::now();
            let fleet = server.shutdown().map_err(err)?;
            rep.run_parts.push(start.elapsed().as_secs_f64());
            if let Some(t) = server_times {
                t.shutdown_s = closing.elapsed().as_secs_f64();
            }
            rep.events = fleet.total_events();
            rep.digests = fleet
                .outcomes
                .iter()
                .map(|(_, o)| outcome_digest(o))
                .collect();
            rep.disk_bytes = fleet
                .outcomes
                .iter()
                .filter_map(|(_, o)| o.storage)
                .map(|s| s.log_bytes + s.snapshot_bytes)
                .sum();
            rep.fleet = Some(fleet);
            let dirs = (0..streams.len())
                .map(|i| dir.join(format!("stream-{i:06}")))
                .collect();
            Ok((rep, dirs))
        }
    }
}

/// Recovers `dirs` one after another and checks each recovered digest
/// against the live one. With `probe` (traced runs), first times
/// `read_log` alone over the same directories and sizes them.
pub fn recover_leg(
    rep: &mut Rep,
    dirs: &[PathBuf],
    probe: bool,
    checks: &mut Checks,
) -> Result<(), String> {
    if probe {
        let start = Instant::now();
        for dir in dirs {
            pgc::durable::read_log(dir).map_err(|e| e.to_string())?;
        }
        rep.read_log_s = start.elapsed().as_secs_f64();
        rep.dir_bytes = dirs.iter().map(|d| dir_bytes(d)).sum();
    }
    for (i, (dir, live)) in dirs.iter().zip(&rep.digests).enumerate() {
        let start = Instant::now();
        let recovered = recover(dir).map_err(|e| e.to_string())?;
        rep.recover_parts.push(start.elapsed().as_secs_f64());
        rep.recovered_events += recovered.events_replayed;
        let got = outcome_digest(&recovered.outcome);
        checks.check(got == *live && recovered.torn_tail.is_none(), || {
            format!("recovered run {i} digest {got:016x} != live {live:016x}")
        });
    }
    Ok(())
}

/// Every stream's trace through a bare stepped run, durability off; checks
/// each digest against the persisted leg's.
pub fn replay_leg(rep: &mut Rep, inputs: &Inputs, checks: &mut Checks) -> Result<(), String> {
    for (i, (s, live)) in inputs.streams.iter().zip(&rep.digests).enumerate() {
        let out = run_stepped(&s.cfg, &s.trace, &mut rep.replay_parts)?;
        rep.replay_events += out.totals.events;
        let got = outcome_digest(&out);
        checks.check(got == *live, || {
            format!("bare run {i} digest {got:016x} != persisted {live:016x}")
        });
    }
    Ok(())
}

/// One repetition from nothing: set-up, then over fresh state the persisted
/// leg, the recovery of what it wrote, and the bare replay, with nothing
/// attached to any of them.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    scale: Scale,
    checks: &mut Checks,
) -> Result<Rep, String> {
    let (inputs, setup_parts) = Inputs::make(workload, seed, scale)?;
    let dir = ScratchDir::new(workload.name());
    let (mut rep, dirs) = persisted_leg(workload, &inputs, &dir, None)?;
    rep.setup_parts = setup_parts;
    recover_leg(&mut rep, &dirs, false, checks)?;
    replay_leg(&mut rep, &inputs, checks)?;
    Ok(rep)
}

/// The digest of every stream's run through the one-call entry point,
/// `Simulation::builder(cfg).trace(t).run()`: what the stepped and the
/// served runs must reproduce.
pub fn one_call_digests(inputs: &Inputs) -> Result<Vec<u64>, String> {
    inputs
        .streams
        .iter()
        .map(|s| {
            Simulation::builder(&s.cfg)
                .trace(&s.trace)
                .run()
                .map(|out| outcome_digest(&out))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The orderings `tests/paper_claims.rs::paper_orderings_hold_at_small_scale`
/// asserts, over each policy's mean across the fleet's seeds, taken from
/// the outcomes the server returned.
pub fn check_paper_orderings(fleet: &FleetOutcome, checks: &mut Checks) {
    use PolicyKind::*;
    let mean = |k: PolicyKind, pick: fn(&RunTotals) -> f64| {
        let of_policy: Vec<f64> = fleet
            .outcomes
            .iter()
            .filter(|(_, o)| o.policy == k)
            .map(|(_, o)| pick(&o.totals))
            .collect();
        of_policy.iter().sum::<f64>() / of_policy.len() as f64
    };
    let frac = |k| mean(k, |t| t.fraction_reclaimed_pct());
    let storage = |k| mean(k, |t| t.max_footprint.as_kib_f64());
    let eff = |k| mean(k, |t| t.efficiency_kb_per_io());
    checks.check(frac(UpdatedPointer) > frac(MutatedPartition), || {
        "UpdatedPointer must reclaim a larger fraction than MutatedPartition".into()
    });
    checks.check(eff(UpdatedPointer) > 1.15 * eff(MutatedPartition), || {
        "UpdatedPointer must be more efficient per GC I/O than MutatedPartition".into()
    });
    for k in [
        MutatedPartition,
        Random,
        WeightedPointer,
        UpdatedPointer,
        MostGarbage,
    ] {
        checks.check(storage(NoCollection) >= storage(k), || {
            format!("NoCollection must bound storage from above ({k})")
        });
    }
    checks.check(
        storage(UpdatedPointer) <= 1.25 * storage(MostGarbage),
        || "UpdatedPointer storage must stay within 1.25x MostGarbage".into(),
    );
}
