//! The traced run: the same inputs driven by hand through the public
//! stepping API (`TraceCursor::next_block` → `Shard::step_block` →
//! `Shard::finish`), every call timed from here and one bus observer
//! stamping the collector's activations. Spans stay in memory and are
//! written to `benchmark/out/trace-<workload>.json` when the run ends.
//!
//! `buffer`, `storage` and `types` have no boundary that can be timed from
//! outside on the run path; their host time stays inside `sim.mutator_s`
//! and only their counts are reported.

use crate::json::quote;
use crate::run::{check_reps, floor_s, repeat, Args, Metric, Output};
use crate::stats::{median, quantile, tail_fraction};
use crate::workloads::{
    one_call_digests, persisted_leg, recover_leg, run_rep, Checks, Inputs, Rep, ServerTimes,
    Workload, SEGMENT_EVENTS,
};
use pgc::buffer::IoStats;
use pgc::durable::{DurableStore, ScratchDir, StorageStats};
use pgc::odb::oracle::{self, OracleScratch};
use pgc::odb::{BarrierEvent, BarrierObserver, Database};
use pgc::prelude::*;
use pgc::server::RingInbox;
use pgc::workload::{Event, EventBlock, SyntheticWorkload, BLOCK_EVENTS};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;
/// Oracle passes timed on the last run's final database.
const ORACLE_PASSES: usize = 5;

struct Span {
    name: &'static str,
    request: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The span log plus the bus observer's stamps for the repetition in
/// progress.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Label of each request id: `rep/run-or-stream`.
    requests: Vec<String>,
    request: u32,
    /// The `sim.step` span activations hang under.
    step: u32,
    tick: Instant,
    trigger: Instant,
    selected: Instant,
    pause: u32,
    collected: bool,
    pauses_ns: Vec<u64>,
    select_ns: u64,
    collect_ns: u64,
    activations: u64,
    copied: u64,
    reclaimed: u64,
    barrier_events: u64,
}

impl Tracer {
    fn new() -> Self {
        let now = Instant::now();
        Self {
            epoch: now,
            spans: Vec::new(),
            requests: Vec::new(),
            request: 0,
            step: NO_PARENT,
            tick: now,
            trigger: now,
            selected: now,
            pause: NO_PARENT,
            collected: false,
            pauses_ns: Vec::new(),
            select_ns: 0,
            collect_ns: 0,
            activations: 0,
            copied: 0,
            reclaimed: 0,
            barrier_events: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn span(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        self.spans.push(Span {
            name,
            request: self.request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        (self.spans.len() - 1) as u32
    }

    fn begin_request(&mut self, label: String) {
        self.requests.push(label);
        self.request = (self.requests.len() - 1) as u32;
    }
}

/// The benchmark's one bus observer.
struct Tap(Rc<RefCell<Tracer>>);

impl BarrierObserver for Tap {
    fn on_event(&mut self, event: &BarrierEvent) {
        let mut t = self.0.borrow_mut();
        t.barrier_events += 1;
        match event {
            BarrierEvent::TriggerTick { .. } => {
                let now = Instant::now();
                t.activations += 1;
                t.tick = now;
                t.collected = false;
                let step = t.step;
                let pause = t.span("core.pause", step, now, now);
                t.pause = pause;
            }
            BarrierEvent::VictimSelected { .. } => {
                let now = Instant::now();
                t.select_ns += now.duration_since(t.trigger).as_nanos() as u64;
                let (pause, trigger) = (t.pause, t.trigger);
                t.span("core.select", pause, trigger, now);
                t.selected = now;
            }
            BarrierEvent::CollectionCompleted(_) => {
                let now = Instant::now();
                t.collect_ns += now.duration_since(t.selected).as_nanos() as u64;
                let (pause, selected) = (t.pause, t.selected);
                t.span("odb.collect", pause, selected, now);
                let pause_ns = now.duration_since(t.tick).as_nanos() as u64;
                if t.collected {
                    *t.pauses_ns.last_mut().expect("a pause is open") = pause_ns;
                } else {
                    t.pauses_ns.push(pause_ns);
                    t.collected = true;
                }
                let end = t.ns(now);
                t.spans[pause as usize].end_ns = end;
            }
            BarrierEvent::ObjectCopied { .. } => t.copied += 1,
            BarrierEvent::ObjectReclaimed { .. } => t.reclaimed += 1,
            _ => {}
        }
    }

    fn on_trigger(&mut self, _db: &Database) {
        self.0.borrow_mut().trigger = Instant::now();
    }
}

/// Per-layer sums over the hand-driven runs of one repetition.
#[derive(Default, Clone, Copy)]
struct Pipeline {
    runs: u64,
    wall_s: f64,
    new_s: f64,
    decode_s: f64,
    step_s: f64,
    finish_s: f64,
    oracle_pass_s: f64,
    events: u64,
    io: IoStats,
    partitions: u64,
    max_footprint: u64,
    reclaimed_bytes: u64,
    final_garbage_bytes: u64,
    derive_hits: u64,
    derive_selections: u64,
    storage: StorageStats,
}

impl Pipeline {
    fn absorb(&mut self, out: &RunOutcome, io: IoStats) {
        self.runs += 1;
        self.events += out.totals.events;
        self.io.app_disk_reads += io.app_disk_reads;
        self.io.app_disk_writes += io.app_disk_writes;
        self.io.gc_disk_reads += io.gc_disk_reads;
        self.io.gc_disk_writes += io.gc_disk_writes;
        self.io.hits += io.hits;
        self.io.misses += io.misses;
        self.partitions += out.totals.partitions as u64;
        self.max_footprint += out.totals.max_footprint.get();
        self.reclaimed_bytes += out.totals.reclaimed_bytes.get();
        self.final_garbage_bytes += out.totals.final_garbage_bytes.get();
        if let Some(d) = out.derive {
            self.derive_hits += d.hits;
            self.derive_selections += d.selections();
        }
        if let Some(s) = out.storage {
            add_storage(&mut self.storage, &s);
        }
    }
}

fn add_storage(acc: &mut StorageStats, s: &StorageStats) {
    acc.log_bytes += s.log_bytes;
    acc.log_frames += s.log_frames;
    acc.log_segments += s.log_segments;
    acc.fsyncs += s.fsyncs;
    acc.snapshots += s.snapshots;
    acc.snapshot_bytes += s.snapshot_bytes;
    acc.safepoints += s.safepoints;
}

/// One run, driven by hand: what `Simulation::builder(cfg).trace(t).run()`
/// does in one call, with every call into `workload` and `sim` timed.
fn drive(
    cfg: &RunConfig,
    trace: &EncodedTrace,
    tracer: &Rc<RefCell<Tracer>>,
    acc: &mut Pipeline,
    time_oracle: bool,
) -> Result<RunOutcome, String> {
    let err = |e: pgc::types::PgcError| e.to_string();
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let begin = Instant::now();
    let mut shard = Shard::new(cfg).map_err(err)?;
    shard.add_observer(Box::new(Tap(Rc::clone(tracer))));
    let built = Instant::now();
    let root = {
        let mut t = tracer.borrow_mut();
        let root = t.span("run", NO_PARENT, begin, begin);
        t.span("sim.new", root, begin, built);
        root
    };
    acc.new_s += secs(begin, built);

    let mut cursor = trace.cursor();
    let mut block = EventBlock::with_capacity(BLOCK_EVENTS);
    loop {
        let t0 = Instant::now();
        let n = cursor.next_block(&mut block).map_err(err)?;
        let t1 = Instant::now();
        acc.decode_s += secs(t0, t1);
        {
            let mut t = tracer.borrow_mut();
            t.span("workload.decode", root, t0, t1);
            if n > 0 {
                let step = t.span("sim.step", root, t1, t1);
                t.step = step;
            }
        }
        if n == 0 {
            break;
        }
        shard.step_block(&block).map_err(err)?;
        let t2 = Instant::now();
        acc.step_s += secs(t1, t2);
        let mut t = tracer.borrow_mut();
        let (step, end) = (t.step as usize, t.ns(t2));
        t.spans[step].end_ns = end;
    }
    let stepped = Instant::now();
    let io = shard.db().io_stats();
    if time_oracle {
        let mut scratch = OracleScratch::new();
        let start = Instant::now();
        for _ in 0..ORACLE_PASSES {
            std::hint::black_box(oracle::analyze_with(shard.db(), &mut scratch));
        }
        acc.oracle_pass_s = start.elapsed().as_secs_f64() / ORACLE_PASSES as f64;
    }
    let finishing = Instant::now();
    let out = shard.finish(trace.stats()).map_err(err)?;
    let end = Instant::now();
    acc.finish_s += secs(finishing, end);
    // The oracle probe sits between the last step and `finish`; it is not
    // part of the run.
    acc.wall_s += secs(begin, stepped) + secs(finishing, end);
    let mut t = tracer.borrow_mut();
    t.span("sim.finish", root, finishing, end);
    let end_ns = t.ns(end);
    t.spans[root as usize].end_ns = end_ns;
    drop(t);
    acc.absorb(&out, io);
    Ok(out)
}

/// What the stand-alone set-up passes cost, layer by layer.
#[derive(Default)]
struct SetupProbe {
    generate_s: f64,
    encode_s: f64,
    segment_s: f64,
    /// `DurableStore::create` + `append_events` in block-sized slices +
    /// `finish`, log-only, over the generated events.
    append_s: f64,
}

fn probe_setup(workload: Workload, inputs: &Inputs) -> Result<SetupProbe, String> {
    let err = |e: pgc::types::PgcError| e.to_string();
    let mut probe = SetupProbe::default();
    for trace in inputs.traces() {
        let params = trace.params().clone();
        let t0 = Instant::now();
        let events: Vec<Event> = SyntheticWorkload::new(params.clone())
            .map_err(err)?
            .collect();
        let t1 = Instant::now();
        let encoded = Arc::new(EncodedTrace::from_events(params, &events));
        let t2 = Instant::now();
        probe.generate_s += t1.duration_since(t0).as_secs_f64();
        probe.encode_s += t2.duration_since(t1).as_secs_f64();
        if workload == Workload::FleetRoundtrip {
            std::hint::black_box(EncodedTrace::segments(&encoded, SEGMENT_EVENTS).map_err(err)?);
            probe.segment_s += t2.elapsed().as_secs_f64();
        }
        {
            let dir = ScratchDir::new("append");
            let db = Database::new(DbConfig::default()).map_err(err)?;
            let start = Instant::now();
            let mut store =
                DurableStore::create(&DurabilityConfig::log_only(dir.path())).map_err(err)?;
            for slice in events.chunks(BLOCK_EVENTS) {
                store.append_events(slice).map_err(err)?;
            }
            store.finish(&db, events.len() as u64, 0).map_err(err)?;
            probe.append_s += start.elapsed().as_secs_f64();
        }
    }
    Ok(probe)
}

/// Nanoseconds per `RingInbox` push + pop, uncontended.
fn ring_roundtrip_ns() -> f64 {
    const ROUNDS: u64 = 1_000_000;
    let ring = RingInbox::<u64>::with_capacity(64);
    let start = Instant::now();
    for i in 0..ROUNDS {
        ring.push(i).expect("no receiver to lose");
        std::hint::black_box(ring.pop());
    }
    start.elapsed().as_nanos() as f64 / ROUNDS as f64
}

/// Wall time of the run at telemetry `Full` over `Off`, three alternating
/// pairs, and the activation records a `Full` run keeps.
fn telemetry_cost(cfg: &RunConfig, trace: &EncodedTrace) -> Result<(f64, u64), String> {
    let mut walls = [Vec::new(), Vec::new()];
    let mut records = 0;
    for _ in 0..3 {
        for (slot, level) in [TelemetryLevel::Off, TelemetryLevel::Full]
            .into_iter()
            .enumerate()
        {
            let start = Instant::now();
            let out = Simulation::builder(cfg)
                .trace(trace)
                .telemetry(level)
                .run()
                .map_err(|e| e.to_string())?;
            walls[slot].push(start.elapsed().as_secs_f64());
            if let Some(snapshot) = out.telemetry {
                records = snapshot.records.len() as u64;
            }
        }
    }
    Ok((median(&walls[1]) / median(&walls[0]), records))
}

/// What the server leg's `FleetOutcome` says about the `server` and
/// `durable` layers (all zero for the workload without a server).
#[derive(Default)]
struct FleetFacts {
    storage: StorageStats,
    remset: pgc::server::RemsetStats,
    ring_high_water_max: u64,
}

impl FleetFacts {
    fn of(fleet: &FleetOutcome) -> Self {
        let mut storage = StorageStats::default();
        for (_, outcome) in &fleet.outcomes {
            if let Some(s) = &outcome.storage {
                add_storage(&mut storage, s);
            }
        }
        Self {
            storage,
            remset: fleet.remset,
            ring_high_water_max: fleet.ring_high_water.iter().copied().max().unwrap_or(0),
        }
    }
}

/// One traced repetition and what only it can report.
struct TracedRep {
    tracer: Rc<RefCell<Tracer>>,
    rep: Rep,
    /// Every stream's run, driven by hand with the observer attached:
    /// persisted for `churn_durable`, bare for `fleet_roundtrip` (whose
    /// persisted leg is the server's).
    pipeline: Pipeline,
    /// `sim.step_s` of the same pipeline with durability off
    /// (`churn_durable` only).
    control_step_s: f64,
    server: ServerTimes,
}

fn traced_rep(
    args: &Args,
    inputs: &Inputs,
    rep_index: usize,
    checks: &mut Checks,
) -> Result<TracedRep, String> {
    let tracer = Rc::new(RefCell::new(Tracer::new()));
    let dir = ScratchDir::new("traced");
    let mut pipeline = Pipeline::default();
    let mut server = ServerTimes::default();
    let mut control_step_s = 0.0;
    let mut digests = Vec::with_capacity(inputs.streams.len());
    let mut run_dirs = Vec::new();
    for (i, s) in inputs.streams.iter().enumerate() {
        let cfg = match args.workload {
            Workload::ChurnDurable => {
                run_dirs.push(dir.join(format!("run-{i}")));
                s.cfg
                    .clone()
                    .with_durability(DurabilityConfig::snapshot_and_log(&run_dirs[i]))
            }
            Workload::FleetRoundtrip => s.cfg.clone(),
        };
        tracer.borrow_mut().begin_request(format!(
            "{rep_index}/{}-seed{}",
            cfg.policy, cfg.workload.seed
        ));
        let last = i + 1 == inputs.streams.len();
        let out = drive(&cfg, &s.trace, &tracer, &mut pipeline, last)?;
        digests.push(outcome_digest(&out));
    }

    let (mut rep, dirs) = match args.workload {
        Workload::ChurnDurable => {
            let rep = Rep {
                run_parts: vec![pipeline.wall_s],
                events: pipeline.events,
                disk_bytes: pipeline.storage.log_bytes + pipeline.storage.snapshot_bytes,
                digests,
                ..Rep::default()
            };
            // The control: the identical pipeline with durability off, so
            // the gap in `sim.step_s` is what persistence costs inline.
            let mut control = Pipeline::default();
            let unrecorded = Rc::new(RefCell::new(Tracer::new()));
            for s in &inputs.streams {
                drive(&s.cfg, &s.trace, &unrecorded, &mut control, false)?;
            }
            control_step_s = control.step_s;
            (rep, run_dirs)
        }
        Workload::FleetRoundtrip => {
            // The hand-driven runs above are the streams' dedicated runs;
            // the server leg is timed around the client's calls.
            let (rep, dirs) = persisted_leg(args.workload, inputs, &dir, Some(&mut server))?;
            checks.check(rep.digests == digests, || {
                "fleet streams differ from their hand-driven dedicated runs".into()
            });
            (rep, dirs)
        }
    };
    let recovering = Instant::now();
    recover_leg(&mut rep, &dirs, true, checks)?;
    let recovered = Instant::now();
    {
        let mut t = tracer.borrow_mut();
        let read_end = recovering + std::time::Duration::from_secs_f64(rep.read_log_s);
        t.span("durable.read_log", NO_PARENT, recovering, read_end);
        t.span("sim.recover", NO_PARENT, read_end, recovered);
    }
    Ok(TracedRep {
        tracer,
        rep,
        pipeline,
        control_step_s,
        server,
    })
}

fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let mut text = String::with_capacity(tracer.spans.len() * 96);
    let _ = write!(
        text,
        "{{\"workload\": {}, \"seed\": {}, \"requests\": [",
        quote(args.workload.name()),
        args.seed
    );
    for (i, label) in tracer.requests.iter().enumerate() {
        let _ = write!(text, "{}{}", if i > 0 { ", " } else { "" }, quote(label));
    }
    text.push_str("],\n\"spans\": [\n");
    for (i, s) in tracer.spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            text,
            "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.name,
            s.request,
            s.start_ns,
            s.end_ns,
            if i + 1 < tracer.spans.len() { "," } else { "" }
        );
    }
    text.push_str("]}\n");
    std::fs::create_dir_all("benchmark/out").map_err(|e| e.to_string())?;
    let path = format!("benchmark/out/trace-{}.json", args.workload.name());
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))
}

pub fn per_layer(args: &Args) -> Result<Output, String> {
    let (inputs, _) = Inputs::make(args.workload, args.seed, args.scale)?;
    let setup_probe = probe_setup(args.workload, &inputs)?;
    let mut checks = Checks::default();
    let clock = Instant::now();
    // The one-call runs also warm the process up.
    let reference = one_call_digests(&inputs)?;

    // Untraced and traced repetitions in alternation, so the overhead
    // ratio compares neighbours in time; the fastest of each side stands
    // for it.
    let mut untraced: Vec<Rep> = Vec::new();
    let mut index = 0;
    let pairs = repeat(clock, args.seconds, || {
        untraced.push(run_rep(args.workload, args.seed, args.scale, &mut checks)?);
        index += 1;
        traced_rep(args, &inputs, index, &mut checks)
    })?;
    // The traced pipeline's untraced twin: the persisted leg where it is a
    // single-shard run, else the bare replay of the streams.
    let twin: fn(&Rep) -> &[f64] = match args.workload {
        Workload::ChurnDurable => |r| &r.run_parts,
        Workload::FleetRoundtrip => |r| &r.replay_parts,
    };
    let fastest = |walls: &mut dyn Iterator<Item = f64>| walls.fold(f64::INFINITY, f64::min);
    let overhead_ratio = fastest(&mut pairs.iter().map(|p| p.pipeline.wall_s))
        / fastest(&mut untraced.iter().map(|r| twin(r).iter().sum()));
    let vs_dedicated_ratio =
        floor_s(&untraced, |r| &r.run_parts) / floor_s(&untraced, |r| &r.replay_parts);

    let mut all: Vec<Rep> = untraced;
    // The per-layer numbers and the span file describe one coherent
    // repetition: the traced one whose pipeline ran fastest.
    let best = pairs
        .into_iter()
        .min_by(|a, b| a.pipeline.wall_s.total_cmp(&b.pipeline.wall_s))
        .expect("at least one traced repetition");
    let TracedRep {
        tracer,
        rep,
        pipeline: p,
        control_step_s,
        server,
    } = best;
    let (recover_s, read_log_s, dir_bytes, disk_events) = (
        rep.recover_parts.iter().sum::<f64>(),
        rep.read_log_s,
        rep.dir_bytes,
        rep.events,
    );
    let fleet = rep.fleet.as_ref().map(FleetFacts::of).unwrap_or_default();
    all.push(rep);
    check_reps(args, &all, &reference, &mut checks);

    let is_fleet = args.workload == Workload::FleetRoundtrip;
    let (telemetry_ratio, telemetry_records) = if is_fleet {
        (0.0, 0)
    } else {
        // One trace is enough for a ratio.
        telemetry_cost(&inputs.streams[0].cfg, &inputs.streams[0].trace)?
    };
    let ring_ns = if is_fleet { ring_roundtrip_ns() } else { 0.0 };

    let t = tracer.borrow();
    write_spans(args, &t)?;
    let mut pauses = t.pauses_ns.clone();
    pauses.sort_unstable();
    let tail = tail_fraction(pauses.len());
    let pause_s = pauses.iter().sum::<u64>() as f64 / 1e9;
    let us = |ns: u64| ns as f64 / 1e3;
    let runs = p.runs.max(1) as f64;
    let (trace_bytes, trace_events) = inputs.trace_size();
    let storage = if is_fleet { fleet.storage } else { p.storage };
    let remset = fleet.remset;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let m = Metric::exact;
    let metrics = vec![
        m("trace.overhead_ratio", overhead_ratio, "ratio"),
        m("trace.pipeline_wall_s", p.wall_s, "s"),
        m(
            "trace.coverage",
            (p.new_s + p.decode_s + p.step_s + p.finish_s) / p.wall_s,
            "ratio",
        ),
        m("workload.generate_s", setup_probe.generate_s, "s"),
        m("workload.encode_s", setup_probe.encode_s, "s"),
        m("workload.segment_s", setup_probe.segment_s, "s"),
        m("workload.decode_s", p.decode_s, "s"),
        m(
            "workload.decode_events_per_s",
            ratio(p.events as f64, p.decode_s),
            "1/s",
        ),
        m(
            "workload.trace_bytes_per_event",
            trace_bytes as f64 / trace_events as f64,
            "B",
        ),
        m("sim.new_s", p.new_s, "s"),
        m("sim.step_s", p.step_s, "s"),
        m("sim.mutator_s", p.step_s - pause_s, "s"),
        m("sim.finish_s", p.finish_s, "s"),
        m("sim.recover_s", recover_s, "s"),
        m("sim.recover_self_s", (recover_s - read_log_s).max(0.0), "s"),
        m("sim.events", p.events as f64, "count"),
        m("core.activations", t.activations as f64, "count"),
        m("core.select_s", t.select_ns as f64 / 1e9, "s"),
        m("core.pause_us_p50", us(quantile(&pauses, 0.5)), "us"),
        m("core.pause_us_tail", us(quantile(&pauses, tail)), "us"),
        m("core.pause_tail_pct", tail * 100.0, "%"),
        m(
            "core.pause_us_max",
            us(pauses.last().copied().unwrap_or(0)),
            "us",
        ),
        m(
            "core.derive_hit_ratio",
            ratio(p.derive_hits as f64, p.derive_selections as f64),
            "ratio",
        ),
        m(
            "core.reclaimed_kib_per_gc_io",
            ratio(p.reclaimed_bytes as f64 / 1024.0, p.io.gc_ios() as f64),
            "KiB",
        ),
        m(
            "core.reclaimed_fraction",
            ratio(
                p.reclaimed_bytes as f64,
                (p.reclaimed_bytes + p.final_garbage_bytes) as f64,
            ),
            "ratio",
        ),
        m("odb.collect_s", t.collect_ns as f64 / 1e9, "s"),
        m("odb.oracle_pass_s", p.oracle_pass_s, "s"),
        m("odb.copied_objects", t.copied as f64, "count"),
        m("odb.reclaimed_objects", t.reclaimed as f64, "count"),
        m("odb.barrier_events", t.barrier_events as f64, "count"),
        m("buffer.app_ios", p.io.app_ios() as f64, "count"),
        m("buffer.gc_ios", p.io.gc_ios() as f64, "count"),
        m("buffer.hit_rate", p.io.hit_rate().unwrap_or(0.0), "ratio"),
        m("storage.partitions", p.partitions as f64 / runs, "count"),
        m(
            "storage.max_footprint_mib",
            p.max_footprint as f64 / runs / (1 << 20) as f64,
            "MiB",
        ),
        m("durable.append_s", setup_probe.append_s, "s"),
        m(
            "durable.inline_s",
            if control_step_s > 0.0 {
                p.step_s - control_step_s
            } else {
                0.0
            },
            "s",
        ),
        m("durable.read_log_s", read_log_s, "s"),
        m(
            "durable.log_bytes_per_event",
            storage.log_bytes as f64 / disk_events as f64,
            "B",
        ),
        m("durable.snapshot_bytes", storage.snapshot_bytes as f64, "B"),
        m("durable.snapshots", storage.snapshots as f64, "count"),
        m("durable.fsyncs", storage.fsyncs as f64, "count"),
        m("durable.safepoints", storage.safepoints as f64, "count"),
        m("durable.dir_bytes", dir_bytes as f64, "B"),
        m("server.open_s", server.open_s, "s"),
        m("server.submit_calls", server.submit_calls as f64, "count"),
        m("server.submit_wait_s", server.submit_wait_s, "s"),
        m("server.shutdown_s", server.shutdown_s, "s"),
        m(
            "server.ring_high_water_max",
            fleet.ring_high_water_max as f64,
            "count",
        ),
        m(
            "server.remset_registered",
            remset.registered as f64,
            "count",
        ),
        m("server.remset_cleaned", remset.cleaned as f64, "count"),
        m("server.remset_dangling", remset.dangling as f64, "count"),
        m("server.ring_roundtrip_ns", ring_ns, "ns"),
        m(
            "server.vs_dedicated_ratio",
            if is_fleet { vs_dedicated_ratio } else { 0.0 },
            "ratio",
        ),
        m("telemetry.full_over_off", telemetry_ratio, "ratio"),
        m(
            "telemetry.activation_records",
            telemetry_records as f64,
            "count",
        ),
    ];
    drop(t);
    Ok(Output {
        metrics,
        checks,
        digests: reference,
    })
}
