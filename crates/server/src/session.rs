//! The session layer: shard workers multiplexing client streams.
//!
//! Each shard is one OS thread owning a table of sessions — a session is
//! one client stream bound to its own [`Shard`] (database + policy +
//! scheduler + barrier bus + telemetry). The server routes every message
//! for a stream to its home shard's inbox, a bounded `sync_channel`. The
//! worker's path per message is `batch → group → decode → log bytes → apply`:
//!
//! * **batch** — it waits for one message, then takes what else is queued:
//!   up to `inbox_capacity` messages in all, in arrival order.
//! * **group** — it serves that batch stream by stream (a stable sort on
//!   the stream whose session a message touches), so a stream applies up
//!   to an inbox-full of its segments back to back while its heap is still
//!   in cache, instead of being evicted by every other tenant's turn
//!   between two of its own.
//! * **decode** — a data message carries a [`TraceSegment`], a refcounted
//!   byte range of a shared encoded trace, decoded block-at-a-time into
//!   one reusable per-worker [`EventBlock`] scratch that remembers the
//!   bytes it came from.
//! * **log bytes, apply** — each block goes through [`Shard::step_block`],
//!   the same `next_block → step_block` loop a dedicated run uses: those
//!   bytes are framed into the stream's change log as they arrived, then
//!   the block is applied.
//!
//! # What order is kept, and why the rest was never observable
//!
//! Within a stream nothing moves: one server handle feeds the inbox in
//! program order, the channel keeps each sender's order, and the grouping
//! is stable, so every session sees its `Open`, its segments and the
//! `Link`s that resolve against it exactly as submitted. *Across* streams
//! the batch is reordered, and nothing can tell: sessions share no state,
//! and a `Link` reads and writes only its target's session, which owns the
//! links into it. Cross-stream order was already arbitrary
//! between shards; it is now equally so within one. Block and segment
//! boundaries are invisible too (`step_block` itself stops at every sample
//! and safepoint boundary inside a block), so neither how a client cuts
//! its stream nor how the worker batches it can change a result or a byte
//! of a stream's data directory.
//!
//! The price is latency, and it is bounded: a message waits for at most
//! the batch taken ahead of it, and a batch is at most `inbox_capacity`
//! messages — the setting that already bounded how far a client runs
//! ahead of its shard.
//!
//! At shutdown the worker finishes its sessions in ascending stream-id
//! order and reports per-stream [`RunOutcome`]s and [`Links`], one merged
//! telemetry snapshot, and its largest batch, ready for the fleet-wide
//! fold.

use crate::remset::{Links, RemsetBridge};
use crate::router::StreamId;
use pgc_sim::durable::{DurabilityConfig, DurabilityMode};
use pgc_sim::{RunConfig, RunOutcome, Shard, TelemetryLevel, TelemetrySnapshot};
use pgc_types::{PgcError, Result};
use pgc_workload::generator::GenStats;
use pgc_workload::{EventBlock, NodeId, TraceSegment};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::mpsc::Receiver;

/// One message on a shard's inbox.
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
    /// node against the target session and records the link in that
    /// session's [`Links`].
    Link {
        /// The referencing stream.
        source: StreamId,
        /// The referenced stream (lives on this shard).
        target: StreamId,
        /// The referenced node in the target's workload id space.
        node: NodeId,
    },
}

impl ShardMsg {
    /// The stream whose session the message touches — what a batch is
    /// grouped by.
    fn session(&self) -> StreamId {
        match *self {
            ShardMsg::Open { stream, .. } | ShardMsg::Data { stream, .. } => stream,
            ShardMsg::Link { target, .. } => target,
        }
    }
}

/// What one shard worker hands back at shutdown.
pub struct ShardReport {
    /// The shard's index.
    pub shard: usize,
    /// One outcome per hosted session, in ascending stream-id order.
    pub outcomes: Vec<(StreamId, RunOutcome)>,
    /// The links into each hosted session, in ascending stream-id order.
    pub links: Vec<(StreamId, Links)>,
    /// Every hosted session's telemetry folded together (`None` when the
    /// server ran with telemetry off or the shard hosted no streams).
    pub telemetry: Option<TelemetrySnapshot>,
    /// The largest batch the worker drained from its inbox, in messages:
    /// at most the inbox capacity, which it reaches when the producer ran
    /// a full inbox ahead of the worker.
    pub ring_high_water: u64,
}

/// One hosted stream: its shard, and the links into it that the shard's
/// [`RemsetBridge`] keeps in step with its events.
struct Session {
    shard: Shard,
    links: Rc<RefCell<Links>>,
}

/// The per-thread state of one shard worker: its session table plus one
/// reusable block of decode scratch shared by every hosted session.
pub(crate) struct ShardWorker {
    shard: usize,
    telemetry: TelemetryLevel,
    /// Durability root + mode when the fleet persists: each stream gets
    /// its own recoverable data directory `<root>/stream-NNNNNN/`.
    persist: Option<(PathBuf, DurabilityMode)>,
    sessions: BTreeMap<StreamId, Session>,
    scratch: EventBlock,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        telemetry: TelemetryLevel,
        persist: Option<(PathBuf, DurabilityMode)>,
    ) -> Self {
        Self {
            shard,
            telemetry,
            persist,
            sessions: BTreeMap::new(),
            scratch: EventBlock::new(),
        }
    }

    /// Serves the inbox a batch of at most `capacity` (≥ 1) messages at a
    /// time until the sender is dropped, then finishes all sessions into
    /// the shard's report. Any exit — return, error or panic — drops
    /// `inbox`, which fails the producer's pending and later sends
    /// instead of leaving it blocked.
    pub(crate) fn run(mut self, inbox: Receiver<ShardMsg>, capacity: usize) -> Result<ShardReport> {
        let mut batch = Vec::with_capacity(capacity);
        let mut largest = 0;
        while let Ok(first) = inbox.recv() {
            batch.push(first);
            batch.extend(inbox.try_iter().take(capacity - 1));
            largest = largest.max(batch.len());
            self.serve(&mut batch)?;
        }
        self.finish(largest as u64)
    }

    /// Serves one batch, emptying it: stream by stream, each stream's
    /// messages in arrival order (the sort is stable).
    fn serve(&mut self, batch: &mut Vec<ShardMsg>) -> Result<()> {
        batch.sort_by_key(ShardMsg::session);
        for msg in batch.drain(..) {
            match msg {
                ShardMsg::Open { stream, cfg } => self.open(stream, &cfg)?,
                ShardMsg::Data { stream, segment } => self.step_segment(stream, &segment)?,
                ShardMsg::Link {
                    source,
                    target,
                    node,
                } => self.link(source, target, node)?,
            }
        }
        Ok(())
    }

    /// Steps `stream`'s session through one segment.
    fn step_segment(&mut self, stream: StreamId, segment: &TraceSegment) -> Result<()> {
        let shard = &mut self
            .sessions
            .get_mut(&stream)
            .ok_or_else(|| not_open(stream))?
            .shard;
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
        let links = Rc::default();
        shard.add_observer(Box::new(RemsetBridge::new(Rc::clone(&links))));
        shard.enable_telemetry(self.telemetry);
        self.sessions.insert(stream, Session { shard, links });
        Ok(())
    }

    /// Resolves a cross-shard reference against the target session and
    /// records it there; unresolvable targets count as dangling instead of
    /// failing (the link API is advisory bookkeeping, not a mutation).
    fn link(&self, source: StreamId, target: StreamId, node: NodeId) -> Result<()> {
        let Session { shard, links } =
            self.sessions.get(&target).ok_or_else(|| not_open(target))?;
        let resolved = shard
            .oid_of(node)
            .and_then(|oid| Some((oid, shard.db().partition_of(oid)?)));
        let mut links = links.borrow_mut();
        match resolved {
            Some((oid, partition)) => {
                links.register(source, oid, partition);
            }
            None => links.note_dangling(),
        }
        Ok(())
    }

    fn finish(self, ring_high_water: u64) -> Result<ShardReport> {
        let mut outcomes = Vec::with_capacity(self.sessions.len());
        let mut links = Vec::with_capacity(self.sessions.len());
        let mut telemetry: Option<TelemetrySnapshot> = None;
        for (stream, session) in self.sessions {
            let outcome = session.shard.finish(GenStats::default())?;
            links.push((stream, session.links.take()));
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
            links,
            telemetry,
            ring_high_water,
        })
    }
}

fn not_open(stream: StreamId) -> PgcError {
    PgcError::Session(format!("stream {stream} is not open"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_workload::{EncodedTrace, Event, SyntheticWorkload, WorkloadParams};
    use std::sync::Arc;

    /// The nodes `events` creates, in creation order.
    fn created(events: &[Event]) -> Vec<NodeId> {
        events
            .iter()
            .filter_map(|e| match *e {
                Event::CreateRoot { node, .. } | Event::CreateChild { node, .. } => Some(node),
                _ => None,
            })
            .collect()
    }

    /// A `Link` queued between two `Data` segments of its target resolves
    /// against the target exactly as the first segment left it, whatever
    /// else shares the batch: a node the second segment creates dangles, a
    /// node the first one created registers, and the same dangling node
    /// registers once the link follows the second segment.
    #[test]
    fn a_link_resolves_between_the_segments_it_was_queued_between() {
        let cfg = |seed| RunConfig::small().with_seed(seed);
        let events = |seed| -> Vec<Event> {
            SyntheticWorkload::new(cfg(seed).workload)
                .unwrap()
                .take(4_000)
                .collect()
        };
        let (target, other, third) = (StreamId(1), StreamId(0), StreamId(2));
        let of_target = events(1);
        let (first, second) = of_target.split_at(of_target.len() / 2);
        let early = created(first)[0];
        let late = *created(second).last().unwrap();
        assert!(!created(first).contains(&late));

        let open = |stream: StreamId| ShardMsg::Open {
            stream,
            cfg: Box::new(cfg(stream.0)),
        };
        let data = |stream, events: &[Event]| ShardMsg::Data {
            stream,
            segment: TraceSegment::whole(Arc::new(EncodedTrace::from_events(
                WorkloadParams::default(),
                events,
            ))),
        };
        let link = |node| ShardMsg::Link {
            source: other,
            target,
            node,
        };
        // Streams 0 and 2 sort to either side of the target, so the
        // grouping has to pull the target's messages out from between
        // theirs without reordering them.
        let noise = events(0);
        let mut batch = vec![
            open(third),
            open(target),
            open(other),
            data(target, first),
            data(other, &noise[..1_000]),
            link(late),
            data(third, &events(2)),
            link(early),
            data(other, &noise[1_000..]),
            data(target, second),
            link(late),
        ];

        let mut worker = ShardWorker::new(0, TelemetryLevel::Off, None);
        worker.serve(&mut batch).unwrap();
        assert!(batch.is_empty(), "serving empties the batch");

        let Session { shard, links } = &worker.sessions[&target];
        let links = links.borrow();
        let stats = links.stats();
        assert_eq!(
            stats.dangling, 1,
            "the node of the second segment: {stats:?}"
        );
        assert_eq!(stats.registered, 2, "{stats:?}");
        assert_eq!(shard.events_applied(), of_target.len() as u64);
        let mut want = vec![shard.oid_of(early).unwrap(), shard.oid_of(late).unwrap()];
        want.sort();
        let got: Vec<_> = links.records().into_iter().map(|(oid, _)| oid).collect();
        assert_eq!(got, want);
        for stream in [other, third] {
            let session = &worker.sessions[&stream];
            assert_eq!(session.shard.events_applied(), 4_000);
            assert_eq!(*session.links.borrow(), Links::default());
        }
    }
}
