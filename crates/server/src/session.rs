//! The session layer: shard workers multiplexing client streams.
//!
//! Each shard is one OS thread owning a table of sessions — a session is
//! one client stream bound to its own [`Shard`] (database + policy +
//! scheduler + barrier bus + telemetry). The server routes every message
//! for a stream to its home shard's bounded ring inbox; the worker drains
//! the ring in arrival order and steps the addressed session. Because one
//! server handle feeds the rings, each session sees its events in exactly
//! the submission order — thousands of streams interleave freely on the
//! wire while every individual stream replays deterministically.
//!
//! A data message carries a [`TraceSegment`] — a refcounted byte range of
//! a shared encoded trace. The worker decodes it block-at-a-time straight
//! from the shared buffer into one reusable per-worker [`EventBlock`]
//! scratch and drives each block through [`Shard::step_block`]: the same
//! `next_block → step_block` loop a dedicated run uses. Block boundaries
//! are semantically invisible (`step_block` is bit-identical to per-event
//! stepping), so how a client cuts its stream into segments can never
//! change a result.
//!
//! At shutdown the worker finishes its sessions in ascending stream-id
//! order and reports per-stream [`RunOutcome`]s, one merged telemetry
//! snapshot, and the ring's occupancy high-water mark, ready for the
//! fleet-wide fold.

use crate::remset::{InterShardRemset, RemsetBridge};
use crate::ring::{ReceiverGuard, RingInbox};
use crate::router::StreamId;
use pgc_durable::{DurabilityConfig, DurabilityMode};
use pgc_sim::{RunConfig, RunOutcome, Shard};
use pgc_telemetry::{TelemetryLevel, TelemetrySnapshot};
use pgc_types::{PgcError, Result};
use pgc_workload::generator::GenStats;
use pgc_workload::{EventBlock, NodeId, TraceSegment};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// One message on a shard ring.
pub(crate) enum ShardMsg {
    /// Open a session for `stream` under `cfg`.
    Open {
        /// The stream the session serves.
        stream: StreamId,
        /// The session's full run configuration (boxed: it dwarfs the
        /// other variants).
        cfg: Box<RunConfig>,
    },
    /// Step `stream`'s session through a run of events.
    Data {
        /// The addressed stream.
        stream: StreamId,
        /// The events: a refcounted byte range of a shared encoded trace,
        /// so the message costs an `Arc` bump however many it spans.
        segment: TraceSegment,
    },
    /// Register that `source`'s graph references `node` in `target`'s
    /// graph. Routed to the *target*'s home shard, which resolves the
    /// node against the target session and records the link in the
    /// shared inter-shard remset.
    Link {
        /// The referencing stream.
        source: StreamId,
        /// The referenced stream (lives on this shard).
        target: StreamId,
        /// The referenced node in the target's workload id space.
        node: NodeId,
    },
}

/// What one shard worker hands back at shutdown.
pub struct ShardReport {
    /// The shard's index.
    pub shard: usize,
    /// One outcome per hosted session, in ascending stream-id order.
    pub outcomes: Vec<(StreamId, RunOutcome)>,
    /// Every hosted session's telemetry folded together (`None` when the
    /// server ran with telemetry off or the shard hosted no streams).
    pub telemetry: Option<TelemetrySnapshot>,
    /// Peak occupancy of the shard's ring inbox, in messages — how close
    /// the shard ran to saturating its producers.
    pub ring_high_water: u64,
}

/// The per-thread state of one shard worker: its session table plus one
/// reusable block of decode scratch shared by every hosted session.
pub(crate) struct ShardWorker {
    shard: usize,
    telemetry: TelemetryLevel,
    remset: Arc<InterShardRemset>,
    /// Durability root + mode when the fleet persists: each stream gets
    /// its own recoverable data directory `<root>/stream-NNNNNN/`.
    persist: Option<(PathBuf, DurabilityMode)>,
    sessions: BTreeMap<StreamId, Shard>,
    scratch: EventBlock,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        telemetry: TelemetryLevel,
        remset: Arc<InterShardRemset>,
        persist: Option<(PathBuf, DurabilityMode)>,
    ) -> Self {
        Self {
            shard,
            telemetry,
            remset,
            persist,
            sessions: BTreeMap::new(),
            scratch: EventBlock::new(),
        }
    }

    /// Drains the ring until the sender closes, then finishes all
    /// sessions into the shard's report. The receiver guard marks the
    /// ring dead on any exit — return or panic — so parked producers fail
    /// fast instead of deadlocking.
    pub(crate) fn run(mut self, inbox: Arc<RingInbox<ShardMsg>>) -> Result<ShardReport> {
        let guard = ReceiverGuard(Arc::clone(&inbox));
        while let Some(msg) = inbox.pop() {
            match msg {
                ShardMsg::Open { stream, cfg } => self.open(stream, &cfg)?,
                ShardMsg::Data { stream, segment } => self.step_segment(stream, &segment)?,
                ShardMsg::Link {
                    source,
                    target,
                    node,
                } => self.link(source, target, node),
            }
        }
        let high_water = guard.ring().high_water() as u64;
        self.finish(high_water)
    }

    /// Steps `stream`'s session through one segment.
    fn step_segment(&mut self, stream: StreamId, segment: &TraceSegment) -> Result<()> {
        let shard = self
            .sessions
            .get_mut(&stream)
            .ok_or_else(|| PgcError::Session(format!("stream {stream} is not open")))?;
        let mut cursor = segment.cursor();
        while cursor.next_block(&mut self.scratch)? > 0 {
            shard.step_block(&self.scratch)?;
        }
        Ok(())
    }

    fn open(&mut self, stream: StreamId, cfg: &RunConfig) -> Result<()> {
        if self.sessions.contains_key(&stream) {
            return Err(PgcError::Session(format!("stream {stream} already open")));
        }
        // A persisting fleet gives each stream its own data directory —
        // the stream's log + snapshots recover independently of every
        // other tenant via `pgc_sim::durable::recover`.
        let durable_cfg;
        let cfg = match &self.persist {
            Some((root, mode)) => {
                let dir = root.join(format!("stream-{:06}", stream.0));
                let mut cfg = cfg.clone();
                cfg.durability = match mode {
                    DurabilityMode::Off => DurabilityConfig::off(),
                    DurabilityMode::LogOnly => DurabilityConfig::log_only(&dir),
                    DurabilityMode::SnapshotAndLog => DurabilityConfig::snapshot_and_log(&dir),
                };
                durable_cfg = cfg;
                &durable_cfg
            }
            None => cfg,
        };
        let mut shard = Shard::new(cfg)?;
        // Bus registration order is part of the determinism contract:
        // bridge first, telemetry last — constant across shard counts.
        shard.add_observer(Box::new(RemsetBridge::new(
            stream,
            Arc::clone(&self.remset),
        )));
        shard.enable_telemetry(self.telemetry);
        self.sessions.insert(stream, shard);
        Ok(())
    }

    /// Resolves a cross-shard reference against the target session and
    /// records it; unresolvable targets count as dangling instead of
    /// failing (the link API is advisory bookkeeping, not a mutation).
    fn link(&mut self, source: StreamId, target: StreamId, node: NodeId) {
        let resolved = self.sessions.get(&target).and_then(|session| {
            let oid = session.oid_of(node)?;
            let partition = session.db().partition_of(oid)?;
            Some((oid, partition))
        });
        match resolved {
            Some((oid, partition)) => {
                self.remset.register(source, target, oid, partition);
            }
            None => self.remset.note_dangling(target),
        }
    }

    fn finish(self, ring_high_water: u64) -> Result<ShardReport> {
        let mut outcomes = Vec::with_capacity(self.sessions.len());
        let mut telemetry: Option<TelemetrySnapshot> = None;
        for (stream, shard) in self.sessions {
            let outcome = shard.finish(GenStats::default())?;
            if let Some(snap) = &outcome.telemetry {
                match telemetry.as_mut() {
                    Some(merged) => merged.merge(snap),
                    None => telemetry = Some(snap.clone()),
                }
            }
            outcomes.push((stream, outcome));
        }
        Ok(ShardReport {
            shard: self.shard,
            outcomes,
            telemetry,
            ring_high_water,
        })
    }
}
