//! The N-shard runtime: router + workers + fleet-wide shutdown fold.

use crate::remset::{LinkRecord, Links, RemsetStats};
use crate::ring::{RingInbox, SenderGuard, DEFAULT_INBOX_CAPACITY};
use crate::router::{Router, StreamId};
use crate::session::{ShardMsg, ShardReport, ShardWorker};
use pgc_sim::durable::DurabilityMode;
use pgc_sim::{RunConfig, RunOutcome};
use pgc_telemetry::{FleetSnapshot, TelemetryLevel};
use pgc_types::{Oid, PgcError, Result};
use pgc_workload::{NodeId, TraceSegment};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How a [`Server`] is shaped: shard count, per-session telemetry, inbox
/// depth, and (optionally) where streams persist.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (and thus shard rings). Clamped to at least one.
    pub shards: usize,
    /// Telemetry level every session is opened with.
    pub telemetry: TelemetryLevel,
    /// Messages a shard's ring inbox holds before producers block — the
    /// backpressure knob. Clamped to at least one.
    pub inbox_capacity: usize,
    /// Root data directory for durability. Each stream persists into its
    /// own subdirectory `stream-NNNNNN/` (one recoverable data dir per
    /// stream); `None` keeps the fleet purely in-memory.
    pub data_dir: Option<PathBuf>,
    /// The durability mode streams persist under when [`ServerConfig::data_dir`]
    /// is set (ignored otherwise).
    pub durability: DurabilityMode,
}

impl ServerConfig {
    /// A server over `shards` shards with telemetry off, the default
    /// inbox depth, and no persistence.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            telemetry: TelemetryLevel::Off,
            inbox_capacity: DEFAULT_INBOX_CAPACITY,
            data_dir: None,
            durability: DurabilityMode::SnapshotAndLog,
        }
    }

    /// Sets the telemetry level sessions are opened with.
    #[must_use]
    pub fn with_telemetry(mut self, level: TelemetryLevel) -> Self {
        self.telemetry = level;
        self
    }

    /// Sets the per-shard ring inbox capacity, in messages.
    #[must_use]
    pub fn with_inbox_capacity(mut self, capacity: usize) -> Self {
        self.inbox_capacity = capacity.max(1);
        self
    }

    /// Persists every stream under `dir` (one recoverable data directory
    /// per stream: `dir/stream-NNNNNN/`), at the configured
    /// [`ServerConfig::durability`] mode (snapshots + change log unless
    /// overridden with [`ServerConfig::with_durability_mode`]).
    #[must_use]
    pub fn with_data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Overrides the durability mode used under
    /// [`ServerConfig::with_data_dir`] (e.g. [`DurabilityMode::LogOnly`]
    /// to skip snapshots).
    #[must_use]
    pub fn with_durability_mode(mut self, mode: DurabilityMode) -> Self {
        self.durability = mode;
        self
    }
}

/// Distinguishes server instances within a process, so a [`StreamHandle`]
/// can only address the server that issued it.
static SERVER_TAG: AtomicU64 = AtomicU64::new(1);

/// A typed handle to an open stream: the id, the home shard the router
/// pinned it to, and the issuing server. Returned by
/// [`Server::open_stream`], and the only way to address a stream on
/// [`Server::submit_segment`] and [`Server::link`]: a handle exists only
/// for a stream that was opened, and one from another server instance is
/// refused instead of silently addressing the wrong fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHandle {
    id: StreamId,
    shard: usize,
    server: u64,
}

impl StreamHandle {
    /// The raw stream id (for logs and maps).
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// The home shard the router pinned this stream to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The stream id, when `server` issued this handle.
    fn resolve(self, server: u64) -> Result<StreamId> {
        if self.server != server {
            return Err(PgcError::Session(format!(
                "stream handle {} belongs to a different server",
                self.id
            )));
        }
        Ok(self.id)
    }
}

/// Everything a finished fleet produced.
#[derive(Debug)]
pub struct FleetOutcome {
    /// One outcome per stream, in ascending stream-id order across the
    /// whole fleet. Each is bit-identical to the outcome of a dedicated
    /// single-`Simulation` run over the same stream's events.
    pub outcomes: Vec<(StreamId, RunOutcome)>,
    /// Per-shard telemetry and its deterministic fleet-wide merge (empty
    /// when the server ran with telemetry off).
    pub fleet: FleetSnapshot,
    /// Inter-shard remset counters at shutdown, summed over every stream.
    pub remset: RemsetStats,
    /// How many shards the fleet ran on.
    pub shards: usize,
    /// Peak ring-inbox occupancy per shard, indexed by shard id — how
    /// close each shard ran to throttling its producers.
    pub ring_high_water: Vec<u64>,
    /// Events across every stream, folded once at shutdown.
    total_events: u64,
    /// Collections across every stream, folded once at shutdown.
    total_collections: u64,
    /// Each stream's links as its session left them.
    links: BTreeMap<StreamId, Links>,
}

impl FleetOutcome {
    /// The outcome for one stream.
    pub fn outcome(&self, stream: StreamId) -> Option<&RunOutcome> {
        self.outcomes
            .binary_search_by_key(&stream, |(s, _)| *s)
            .ok()
            .map(|i| &self.outcomes[i].1)
    }

    /// Events processed across every stream (cached at shutdown).
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Collections performed across every stream (cached at shutdown).
    pub fn total_collections(&self) -> u64 {
        self.total_collections
    }

    /// The cross-shard links into `stream`'s graph still live at shutdown,
    /// in ascending oid order.
    pub fn links_into(&self, stream: StreamId) -> Vec<(Oid, LinkRecord)> {
        self.links
            .get(&stream)
            .map(Links::records)
            .unwrap_or_default()
    }
}

/// A running sharded multi-tenant runtime.
///
/// Streams are opened against a [`RunConfig`], fed events in any
/// interleaving, optionally cross-linked, and folded into a
/// [`FleetOutcome`] at [`Server::shutdown`]. The deterministic router
/// pins each stream to a home shard; sessions never share mutable state,
/// so per-stream results do not depend on the shard count — only
/// wall-clock time does.
///
/// One submit path feeds a stream: [`Server::submit_segment`] ships a
/// [`TraceSegment`] (an `Arc` bump plus a byte range of a shared encoded
/// trace); nothing is allocated or copied per event. A caller holding
/// decoded events encodes them once with [`TraceSegment::encode`] (~7.5
/// bytes/event in flight). A full ring blocks the submitting thread until
/// the shard catches up (bounded memory, lossless). It addresses the
/// stream by the [`StreamHandle`] that [`Server::open_stream`] returned.
///
/// ```
/// use pgc_server::{Server, ServerConfig, StreamId};
/// use pgc_sim::RunConfig;
/// use pgc_workload::{EncodedTrace, TraceSegment};
/// use std::sync::Arc;
///
/// let cfg = RunConfig::small().with_seed(3);
/// let trace = Arc::new(EncodedTrace::record(cfg.workload.clone()).unwrap());
/// let mut server = Server::start(ServerConfig::new(2));
/// let stream = server.open_stream(StreamId(0), cfg).unwrap();
/// server
///     .submit_segment(stream, TraceSegment::whole(Arc::clone(&trace)))
///     .unwrap();
/// let fleet = server.shutdown().unwrap();
/// assert_eq!(fleet.total_events(), trace.events());
/// ```
pub struct Server {
    router: Router,
    telemetry: TelemetryLevel,
    inboxes: Vec<SenderGuard<ShardMsg>>,
    workers: Vec<JoinHandle<Result<ShardReport>>>,
    streams: BTreeSet<StreamId>,
    tag: u64,
}

impl Server {
    /// Spawns the shard workers and returns the running server.
    pub fn start(cfg: ServerConfig) -> Self {
        let router = Router::new(cfg.shards);
        let persist = cfg.data_dir.map(|dir| (dir, cfg.durability));
        let mut inboxes = Vec::with_capacity(router.shards());
        let mut workers = Vec::with_capacity(router.shards());
        for shard in 0..router.shards() {
            let ring = RingInbox::with_capacity(cfg.inbox_capacity);
            let rx = Arc::clone(&ring);
            let telemetry = cfg.telemetry;
            let persist = persist.clone();
            // Sessions hold thread-local state (Rc-based telemetry taps,
            // boxed policies), so the worker is built *on* its thread and
            // never crosses it — only the plain-data report comes back.
            workers.push(std::thread::spawn(move || {
                ShardWorker::new(shard, telemetry, persist).run(rx)
            }));
            inboxes.push(SenderGuard(ring));
        }
        Self {
            router,
            telemetry: cfg.telemetry,
            inboxes,
            workers,
            streams: BTreeSet::new(),
            tag: SERVER_TAG.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The shard count the fleet runs on.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// The telemetry level sessions are opened with.
    pub fn telemetry(&self) -> TelemetryLevel {
        self.telemetry
    }

    /// Opens a session for `stream` under `cfg` on its home shard and
    /// returns its typed [`StreamHandle`] (stream id + pinned home shard),
    /// which the submit and link paths take.
    pub fn open_stream(&mut self, stream: StreamId, cfg: RunConfig) -> Result<StreamHandle> {
        if !self.streams.insert(stream) {
            return Err(PgcError::Session(format!("stream {stream} already open")));
        }
        let shard = self.router.route(stream);
        self.send(
            shard,
            ShardMsg::Open {
                stream,
                cfg: Box::new(cfg),
            },
        )?;
        Ok(StreamHandle {
            id: stream,
            shard,
            server: self.tag,
        })
    }

    /// Submits a segment of a shared encoded trace to `stream`'s session —
    /// the zero-copy path: the send is an `Arc` bump plus a byte range,
    /// however many events the segment spans, and the worker decodes
    /// straight from the shared buffer into its block scratch.
    ///
    /// Segments for the same stream apply in submission order; segments
    /// for different streams are independent. Blocks while the home
    /// shard's ring is full.
    pub fn submit_segment(&mut self, stream: StreamHandle, segment: TraceSegment) -> Result<()> {
        let stream = stream.resolve(self.tag)?;
        self.send(
            self.router.route(stream),
            ShardMsg::Data { stream, segment },
        )
    }

    /// Registers a cross-shard reference: `source`'s graph references
    /// `node` in `target`'s graph. Routed to the target's home shard, which
    /// resolves the node and records the link in the target's session
    /// (unresolvable targets count as dangling).
    ///
    /// The reference apply-point is the target session's state after
    /// every segment submitted to `target` before this call and none
    /// submitted after — deterministic because one server handle feeds
    /// each ring in program order and the worker keeps every stream's
    /// messages in arrival order.
    pub fn link(&mut self, source: StreamHandle, target: StreamHandle, node: NodeId) -> Result<()> {
        let source = source.resolve(self.tag)?;
        let target = target.resolve(self.tag)?;
        self.send(
            self.router.route(target),
            ShardMsg::Link {
                source,
                target,
                node,
            },
        )
    }

    fn send(&self, shard: usize, msg: ShardMsg) -> Result<()> {
        self.inboxes[shard]
            .ring()
            .push(msg)
            .map_err(|_| PgcError::Session(format!("shard {shard} worker is gone")))
    }

    /// Closes every ring, joins the workers, and folds their reports into
    /// the fleet outcome. The fold is deterministic: outcomes sort by
    /// stream id and telemetry merges in ascending shard-id order, so the
    /// result is independent of worker completion order. A worker that
    /// panicked surfaces as a [`PgcError::Session`] carrying the panic
    /// payload — one poisoned shard reports instead of crashing the fold.
    pub fn shutdown(self) -> Result<FleetOutcome> {
        drop(self.inboxes);
        let mut outcomes = Vec::new();
        let mut fleet = FleetSnapshot::new();
        let mut ring_high_water = vec![0u64; self.router.shards()];
        let mut remset = RemsetStats::default();
        let mut links = BTreeMap::new();
        let mut first_err = None;
        for worker in self.workers {
            let report = match worker.join() {
                Ok(result) => result,
                // `&*` reaches the payload inside the box — a bare `&`
                // would unsize the `Box` itself into the trait object and
                // every downcast would miss.
                Err(panic) => Err(PgcError::Session(format!(
                    "shard worker panicked: {}",
                    panic_message(&*panic)
                ))),
            };
            match report {
                Ok(report) => {
                    if let Some(slot) = ring_high_water.get_mut(report.shard) {
                        *slot = report.ring_high_water;
                    }
                    if let Some(snapshot) = report.telemetry {
                        fleet.add_shard(
                            report.shard,
                            report.outcomes.len() as u32,
                            report.ring_high_water,
                            snapshot,
                        );
                    }
                    outcomes.extend(report.outcomes);
                    for (stream, stream_links) in report.links {
                        remset += stream_links.stats();
                        links.insert(stream, stream_links);
                    }
                }
                Err(e) => first_err = Some(first_err.unwrap_or(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        outcomes.sort_by_key(|(stream, _)| *stream);
        let total_events = outcomes.iter().map(|(_, o)| o.totals.events).sum();
        let total_collections = outcomes.iter().map(|(_, o)| o.totals.collections).sum();
        Ok(FleetOutcome {
            outcomes,
            fleet,
            remset,
            shards: self.router.shards(),
            ring_high_water,
            total_events,
            total_collections,
            links,
        })
    }
}

/// Renders a worker panic payload for the shutdown error (panics carry a
/// `&str` or `String` message in practice; anything else is opaque).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicked_worker_surfaces_as_a_session_error_at_shutdown() {
        // No input reaches a panic in a worker any more (hostile events
        // come back as errors), so the panic is planted: a thread in the
        // worker list that dies the way a worker with a bug would.
        for planted in [
            std::thread::spawn(|| -> Result<ShardReport> { panic!("a literal payload") }),
            std::thread::spawn(|| -> Result<ShardReport> { panic!("a {} payload", "formatted") }),
        ] {
            let mut server = Server::start(ServerConfig::new(1));
            server.workers.push(planted);
            let err = server.shutdown().expect_err("a worker panicked");
            assert!(
                matches!(&err, PgcError::Session(msg)
                    if msg.contains("shard worker panicked") && msg.contains(" payload")),
                "got {err}"
            );
        }
    }

    #[test]
    fn a_handle_from_another_server_is_refused_on_every_path() {
        let mut a = Server::start(ServerConfig::new(1));
        let mut b = Server::start(ServerConfig::new(1));
        // The same stream id on both: only the issuing server tells them apart.
        let foreign = a
            .open_stream(StreamId(0), RunConfig::small())
            .expect("open on a");
        let local = b
            .open_stream(StreamId(0), RunConfig::small())
            .expect("open on b");
        let refused = |result: Result<()>| {
            let err = result.expect_err("a handle from another server");
            assert!(
                matches!(&err, PgcError::Session(msg)
                    if msg.contains("stream handle s0 belongs to a different server")),
                "got {err}"
            );
        };
        refused(b.submit_segment(foreign, TraceSegment::encode(&[])));
        refused(b.link(foreign, local, NodeId(0)));
        refused(b.link(local, foreign, NodeId(0)));
        // Nothing reached b's worker: its stream saw no event and no link.
        let fleet = b.shutdown().expect("shutdown b");
        assert_eq!(fleet.total_events(), 0);
        assert_eq!(fleet.remset, RemsetStats::default());
        a.shutdown().expect("shutdown a");
    }
}
