//! Shared encoded traces: generate once, replay many.
//!
//! The paper's evaluation is trace-driven — one recorded application trace
//! drives every policy with byte-identical input — yet a naive experiment
//! grid re-runs the synthetic generator (mirror bookkeeping, attachment
//! walks, per-node allocations) independently for every `(policy, seed)`
//! job. This module is the generate-once / replay-many engine behind
//! `pgc-sim`'s experiment scheduler:
//!
//! * [`EncodedTrace`] — one workload's whole event stream as a single
//!   contiguous byte buffer in the layout of [`crate::codec`]
//!   (~7.5 bytes/event, a fraction of `size_of::<Event>()`), with a
//!   [`TraceHeader`] carrying the seed, event count, and generator
//!   counters. Recorded once per parameter set by [`EncodedTrace::record`].
//!   On disk it is a PGCT trace file: magic `"PGCT"`, version `u32` LE,
//!   then the buffer byte for byte, ending at EOF on an event boundary
//!   ([`EncodedTrace::write_to`], [`EncodedTrace::read_from`]). Version 1
//!   (fixed-width ids) is refused by the version check.
//! * [`TraceCursor`] — a zero-allocation cursor that decodes a run of
//!   events at a time straight from the shared buffer into an
//!   [`crate::EventBlock`]'s columns; replaying a trace never materializes
//!   an intermediate `Vec<Event>`.
//! * [`TraceCache`] — an `Arc`-sharing cache keyed by
//!   [`WorkloadParams::digest`], so concurrent experiment workers record
//!   each distinct trace exactly once and replay it from shared memory.
//! * [`TraceSegment`] — a refcounted handle onto a byte range of a shared
//!   trace. A server data plane ships segments instead of `Vec<Event>`
//!   batches: submitting one is an `Arc` bump plus three integers, however
//!   many events it spans. Traces record event-boundary byte marks every
//!   [`BLOCK_EVENTS`] events, so carving a trace into block-aligned
//!   segments is pure arithmetic (unaligned splits scan from the nearest
//!   mark).
//!
//! Replay is bit-identical to live generation by construction: the
//! generator is a pure function of its parameters and the codec round-trips
//! exactly (pinned by tests here and in `pgc-sim`).

use crate::block::{EventBlock, BLOCK_EVENTS};
use crate::codec;
use crate::event::Event;
use crate::generator::{GenStats, SyntheticWorkload};
use crate::params::WorkloadParams;
use pgc_types::{FastHashMap, PgcError, Result};
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

/// The first bytes of a PGCT trace file.
const MAGIC: &[u8; 4] = b"PGCT";
/// The PGCT version after [`MAGIC`]: 2, ids and sizes in the codec's
/// narrow or wide form.
const VERSION: u32 = 2;

/// Metadata recorded alongside the encoded event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// The generator seed (`params.seed`, duplicated for convenience).
    pub seed: u64,
    /// Number of events in the stream.
    pub events: u64,
    /// Generator counters accumulated while recording ([`GenStats::default`]
    /// when the trace was built from raw events rather than recorded).
    pub stats: GenStats,
}

/// One workload's event stream, encoded into a single contiguous buffer.
///
/// ```
/// use pgc_workload::{EncodedTrace, WorkloadParams};
///
/// let trace = EncodedTrace::record(WorkloadParams::small().with_seed(3)).unwrap();
/// assert_eq!(trace.seed(), 3);
/// let events = trace.cursor().decode_all().unwrap();
/// assert_eq!(events.len() as u64, trace.events());
///
/// // A trace file is the same bytes behind a header.
/// let mut file = Vec::new();
/// trace.write_to(&mut file).unwrap();
/// let back = EncodedTrace::read_from(file.as_slice()).unwrap();
/// assert_eq!(back.cursor().decode_all().unwrap(), events);
/// ```
#[derive(Debug, Clone)]
pub struct EncodedTrace {
    header: TraceHeader,
    params: WorkloadParams,
    buf: Vec<u8>,
    /// Byte offset after every [`MARK_EVERY`]th event: `marks[k]` is the
    /// position just past event `(k + 1) * MARK_EVERY`. Lets
    /// [`EncodedTrace::segments`] carve block-aligned segments without
    /// scanning the variable-length byte stream.
    marks: Vec<usize>,
}

/// Event interval between recorded byte marks — one mark per decode block,
/// so block-sized segmentation never scans.
pub const MARK_EVERY: u64 = BLOCK_EVENTS as u64;

impl EncodedTrace {
    /// Runs the synthetic generator for `params` and encodes its entire
    /// output. This is the *only* generator execution a shared-trace
    /// experiment pays per parameter set, however many policies replay it.
    pub fn record(params: WorkloadParams) -> Result<Self> {
        let mut generator = SyntheticWorkload::new(params.clone())?;
        // The paper trace runs ~7.5 bytes/event and one event per ~21
        // allocated bytes; seed the buffer above that to avoid regrowth.
        let buf = Vec::with_capacity((params.target_allocated.get() / 2).min(1 << 28) as usize);
        let mut trace = Self::encode(params, buf, generator.by_ref());
        trace.buf.shrink_to_fit();
        trace.header.stats = generator.stats();
        Ok(trace)
    }

    /// Encodes an explicit event sequence (e.g. an assembly workload or a
    /// hand-built test stream). `params` labels the trace for cache keying;
    /// the header's generator counters are zeroed.
    pub fn from_events<'a>(
        params: WorkloadParams,
        events: impl IntoIterator<Item = &'a Event>,
    ) -> Self {
        Self::encode(params, Vec::new(), events.into_iter().copied())
    }

    /// Encodes `events` onto `buf` (empty, perhaps with capacity), marking
    /// every [`MARK_EVERY`]th boundary: the one encode loop behind
    /// [`EncodedTrace::record`] and [`EncodedTrace::from_events`].
    fn encode(
        params: WorkloadParams,
        mut buf: Vec<u8>,
        events: impl Iterator<Item = Event>,
    ) -> Self {
        let (mut marks, mut count) = (Vec::new(), 0u64);
        for event in events {
            codec::encode_event(&mut buf, &event);
            count += 1;
            if count.is_multiple_of(MARK_EVERY) {
                marks.push(buf.len());
            }
        }
        Self {
            header: TraceHeader {
                seed: params.seed,
                events: count,
                stats: GenStats::default(),
            },
            params,
            buf,
            marks,
        }
    }

    /// Reads a PGCT trace file, the inverse of [`EncodedTrace::write_to`]:
    /// checks the magic and version, then takes the rest of `source` as the
    /// buffer, decoded once to count its events and mark its blocks. A
    /// partial event, an unknown tag or a bad presence byte is a
    /// [`PgcError::TraceFormat`] error; a file cut at an event boundary
    /// reads as the prefix it holds. A file carries no parameters: the
    /// trace is labelled [`WorkloadParams::default`] with zeroed generator
    /// counters.
    pub fn read_from(mut source: impl Read) -> Result<Self> {
        let io_err = |e: std::io::Error| PgcError::TraceIo(e.to_string());
        let mut magic = [0u8; 4];
        source.read_exact(&mut magic).map_err(io_err)?;
        if &magic != MAGIC {
            return Err(PgcError::TraceFormat("bad magic".into()));
        }
        let mut version = [0u8; 4];
        source.read_exact(&mut version).map_err(io_err)?;
        let version = u32::from_le_bytes(version);
        if version != VERSION {
            return Err(PgcError::TraceFormat(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let mut body = Vec::new();
        source.read_to_end(&mut body).map_err(io_err)?;
        let mut trace = Self::from_events(WorkloadParams::default(), &[]);
        (trace.header.events, trace.marks) = trace.scan(&body)?;
        trace.buf = body;
        Ok(trace)
    }

    /// Appends `events` events that are already bytes in the layout of
    /// [`crate::codec`] — the payload of a change-log frame read back from
    /// disk. The bytes are not trusted: they are decoded once here and
    /// must hold exactly `events` events, so every trace (and every cursor
    /// over one) is valid by construction. On error the trace is unchanged.
    pub fn extend_from_encoded(&mut self, events: u64, bytes: &[u8]) -> Result<()> {
        let (held, marks) = self.scan(bytes)?;
        if held != events {
            return Err(PgcError::TraceFormat(format!(
                "encoded run holds {held} events, not {events}"
            )));
        }
        self.marks.extend(marks);
        self.buf.extend_from_slice(bytes);
        self.header.events += events;
        Ok(())
    }

    /// Decodes `bytes` to their end as if appended to this trace, returning
    /// the events they hold and the byte marks they would add.
    fn scan(&self, bytes: &[u8]) -> Result<(u64, Vec<usize>)> {
        let (mut pos, mut held, mut marks) = (0, 0u64, Vec::new());
        while codec::read(bytes, &mut pos)?.is_some() {
            held += 1;
            if (self.header.events + held).is_multiple_of(MARK_EVERY) {
                marks.push(self.buf.len() + pos);
            }
        }
        Ok((held, marks))
    }

    /// The trace metadata.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The parameters the trace was recorded from.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.header.seed
    }

    /// Number of events in the stream.
    pub fn events(&self) -> u64 {
        self.header.events
    }

    /// Generator counters recorded with the trace.
    pub fn stats(&self) -> GenStats {
        self.header.stats
    }

    /// Size of the encoded stream in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// A fresh decoding cursor over the shared buffer.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            buf: &self.buf,
            pos: 0,
            decoded: 0,
            expected: self.header.events,
        }
    }

    /// Byte offset of the event boundary after `event` events: `0` for the
    /// start of the stream, `byte_len()` for its end. Boundaries at
    /// multiples of [`MARK_EVERY`] resolve from the recorded marks in O(1);
    /// others scan forward from the nearest mark (at most one block's worth
    /// of tag-skipping).
    fn byte_pos_of(&self, event: u64) -> Result<usize> {
        debug_assert!(event <= self.header.events);
        if event == 0 {
            return Ok(0);
        }
        if event == self.header.events {
            return Ok(self.buf.len());
        }
        let whole_marks = (event / MARK_EVERY) as usize;
        let mut pos = if whole_marks == 0 {
            0
        } else {
            self.marks[whole_marks - 1]
        };
        for _ in 0..(event % MARK_EVERY) {
            if codec::read(&self.buf, &mut pos)?.is_none() {
                return Err(PgcError::TraceFormat(format!(
                    "encoded trace ended before event {event}"
                )));
            }
        }
        Ok(pos)
    }

    /// Carves a shared trace into consecutive [`TraceSegment`]s of at most
    /// `max_events` events each (the last takes the remainder). Each
    /// segment is an `Arc` bump plus a byte range — no event is copied.
    /// When `max_events` is a multiple of [`MARK_EVERY`] the boundaries
    /// come straight from the recorded marks; otherwise each split scans at
    /// most one mark interval.
    pub fn segments(trace: &Arc<Self>, max_events: u64) -> Result<Vec<TraceSegment>> {
        if max_events == 0 {
            return Err(PgcError::InvalidConfig(
                "segments must hold at least one event",
            ));
        }
        let total = trace.header.events;
        let mut out = Vec::with_capacity(total.div_ceil(max_events) as usize);
        let mut start_event = 0u64;
        let mut start_byte = 0usize;
        while start_event < total {
            let end_event = (start_event + max_events).min(total);
            let end_byte = trace.byte_pos_of(end_event)?;
            out.push(TraceSegment {
                trace: Arc::clone(trace),
                start: start_byte,
                end: end_byte,
                events: end_event - start_event,
            });
            start_event = end_event;
            start_byte = end_byte;
        }
        Ok(out)
    }

    /// Chops `n` bytes off the encoded buffer (corruption-path tests).
    #[cfg(test)]
    pub(crate) fn truncate_for_test(&mut self, n: usize) {
        let len = self.buf.len().saturating_sub(n);
        self.buf.truncate(len);
    }

    /// Writes the stream as a PGCT trace file (magic + version header
    /// followed by the buffer this trace already holds), returning the
    /// event count. [`EncodedTrace::read_from`] reads it back.
    pub fn write_to<W: Write>(&self, mut sink: W) -> Result<u64> {
        let io_err = |e: std::io::Error| PgcError::TraceIo(e.to_string());
        sink.write_all(MAGIC).map_err(io_err)?;
        sink.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
        sink.write_all(&self.buf).map_err(io_err)?;
        sink.flush().map_err(io_err)?;
        Ok(self.header.events)
    }
}

/// Zero-allocation decoding cursor over an [`EncodedTrace`] or a
/// [`TraceSegment`].
///
/// Each call decodes a run of events into the columns of a caller-owned
/// [`EventBlock`]; nothing is allocated per event and the underlying
/// buffer is shared, so any number of cursors can replay one trace
/// concurrently. Decoding errors only on a corrupt buffer, which no
/// constructor produces: a trace either encoded its own bytes or validated
/// the ones it was given ([`EncodedTrace::read_from`],
/// [`EncodedTrace::extend_from_encoded`]).
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    decoded: u64,
    expected: u64,
}

impl TraceCursor<'_> {
    /// Decodes up to [`BLOCK_EVENTS`] events into `block` (cleared first),
    /// returning how many were decoded — `0` at the end of the stream. The
    /// struct-of-arrays entry point behind batched replay: the caller loops
    /// `next_block` and applies each run from the block's flat columns,
    /// reusing one block for the whole trace.
    #[inline]
    pub fn next_block(&mut self, block: &mut EventBlock) -> Result<usize> {
        self.next_block_of(block, BLOCK_EVENTS)
    }

    /// [`TraceCursor::next_block`] cut short at `max` events, for a replay
    /// loop that must stop at an exact event position (`verify` captures
    /// each generation where it was taken). The block keeps the bytes it was
    /// decoded from ([`EventBlock::encoded`]).
    #[inline]
    pub fn next_block_of(&mut self, block: &mut EventBlock, max: usize) -> Result<usize> {
        block.clear();
        let start = self.pos;
        // Events are read into a stack run and appended to the columns a
        // run at a time: pushing each event into six columns measured
        // 6.8 ns/event against 4.3 (2.1 GHz Xeon).
        let (mut run, mut n) = ([codec::Lanes::default(); 32], 0);
        let ended = loop {
            if block.len() + n == max {
                break Ok(false);
            }
            match codec::read(self.buf, &mut self.pos) {
                Ok(Some(lanes)) => run[n] = lanes,
                Ok(None) => break Ok(true),
                Err(e) => break Err(e),
            }
            n += 1;
            if n == run.len() {
                block.put(&run);
                n = 0;
            }
        };
        block.put(&run[..n]);
        self.decoded += block.len() as u64;
        if ended? && self.decoded != self.expected {
            return Err(PgcError::TraceFormat(format!(
                "encoded trace ended after {} of {} events",
                self.decoded, self.expected
            )));
        }
        // Only after every event decoded cleanly: the block's bytes are
        // validated bytes, never a prefix that ended in an error.
        block.set_encoded(&self.buf[start..self.pos]);
        Ok(block.len())
    }

    /// Decodes every event left into a vector, a block at a time
    /// (diagnostics and tests; a replay steps the blocks themselves).
    pub fn decode_all(mut self) -> Result<Vec<Event>> {
        let mut out = Vec::with_capacity(self.remaining_events() as usize);
        let mut block = EventBlock::new();
        while self.next_block(&mut block)? > 0 {
            out.extend(block.iter());
        }
        Ok(out)
    }

    /// Events decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Events left to decode, from the header count. Lets a replay loop
    /// size batches (e.g. stop a block at a sampling boundary) without
    /// probing the byte stream.
    pub fn remaining_events(&self) -> u64 {
        self.expected.saturating_sub(self.decoded)
    }
}

/// A refcounted handle onto a byte range of a shared [`EncodedTrace`].
///
/// This is the zero-copy unit of a server data plane: where a `Vec<Event>`
/// batch deep-copies (and re-allocates) every event it ships, a segment is
/// an `Arc` bump plus a byte range — the events stay in the shared encoded
/// buffer and decode straight into the consumer's reusable
/// [`EventBlock`] scratch. Cloning a segment is O(1)
/// whatever it spans.
///
/// ```
/// use pgc_workload::{EncodedTrace, TraceSegment, WorkloadParams};
/// use std::sync::Arc;
///
/// let trace = Arc::new(EncodedTrace::record(WorkloadParams::small().with_seed(3)).unwrap());
/// let segments = EncodedTrace::segments(&trace, 4096).unwrap();
/// let replayed: usize = segments.iter().map(|s| s.cursor().decode_all().unwrap().len()).sum();
/// assert_eq!(replayed as u64, trace.events());
/// ```
#[derive(Debug, Clone)]
pub struct TraceSegment {
    trace: Arc<EncodedTrace>,
    start: usize,
    end: usize,
    events: u64,
}

impl TraceSegment {
    /// The whole trace as one segment.
    pub fn whole(trace: Arc<EncodedTrace>) -> Self {
        let end = trace.buf.len();
        let events = trace.header.events;
        Self {
            trace,
            start: 0,
            end,
            events,
        }
    }

    /// Events the segment spans.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// True when the segment spans no events.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Size of the segment's byte range.
    pub fn byte_len(&self) -> usize {
        self.end - self.start
    }

    /// The shared trace the segment points into.
    pub fn trace(&self) -> &Arc<EncodedTrace> {
        &self.trace
    }

    /// A decoding cursor over exactly this segment's events.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            buf: &self.trace.buf[self.start..self.end],
            pos: 0,
            decoded: 0,
            expected: self.events,
        }
    }
}

/// One digest bucket: every recorded trace whose parameters share a digest.
type CacheBucket = Vec<(WorkloadParams, Arc<EncodedTrace>)>;

/// An `Arc`-sharing trace cache keyed by [`WorkloadParams::digest`].
///
/// The experiment scheduler in `pgc-sim` records each distinct parameter
/// set once and fans the `Arc` out to every policy worker. Digest
/// collisions are survived, not assumed away: entries store their full
/// parameters and a hit requires equality.
#[derive(Debug, Default)]
pub struct TraceCache {
    entries: Mutex<FastHashMap<u64, CacheBucket>>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace for `params`, if already recorded.
    pub fn get(&self, params: &WorkloadParams) -> Option<Arc<EncodedTrace>> {
        let entries = self.entries.lock().expect("trace cache poisoned");
        entries
            .get(&params.digest())?
            .iter()
            .find(|(p, _)| p == params)
            .map(|(_, t)| Arc::clone(t))
    }

    /// The trace for `params`, recording it first if absent. Recording runs
    /// outside the lock (it is the expensive part); if two threads race on
    /// the same parameters the first insertion wins and both return the
    /// same shared trace.
    pub fn get_or_record(&self, params: &WorkloadParams) -> Result<Arc<EncodedTrace>> {
        if let Some(hit) = self.get(params) {
            return Ok(hit);
        }
        let recorded = Arc::new(EncodedTrace::record(params.clone())?);
        let mut entries = self.entries.lock().expect("trace cache poisoned");
        let bucket = entries.entry(params.digest()).or_default();
        if let Some((_, existing)) = bucket.iter().find(|(p, _)| p == params) {
            return Ok(Arc::clone(existing));
        }
        bucket.push((params.clone(), Arc::clone(&recorded)));
        Ok(recorded)
    }

    /// Number of distinct traces held.
    pub fn len(&self) -> usize {
        let entries = self.entries.lock().expect("trace cache poisoned");
        entries.values().map(Vec::len).sum()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes held across all encoded streams.
    pub fn resident_bytes(&self) -> usize {
        let entries = self.entries.lock().expect("trace cache poisoned");
        entries.values().flatten().map(|(_, t)| t.byte_len()).sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::NodeId;
    use pgc_types::Bytes;

    fn small(seed: u64) -> WorkloadParams {
        WorkloadParams::small().with_seed(seed)
    }

    /// A cursor over bytes that no trace validated, stating `expected`
    /// events: how the codec's tests feed hostile bytes to `next_block_of`.
    pub(crate) fn cursor_over(buf: &[u8], expected: u64) -> TraceCursor<'_> {
        TraceCursor {
            buf,
            pos: 0,
            decoded: 0,
            expected,
        }
    }

    #[test]
    fn record_matches_live_generation_exactly() {
        let trace = EncodedTrace::record(small(5)).unwrap();
        let mut live = SyntheticWorkload::new(small(5)).unwrap();
        let events: Vec<Event> = live.by_ref().collect();
        assert_eq!(trace.events(), events.len() as u64);
        assert_eq!(trace.stats(), live.stats());
        assert_eq!(trace.seed(), 5);
        assert_eq!(trace.cursor().decode_all().unwrap(), events);
    }

    #[test]
    fn cursor_is_restartable_and_tracks_progress() {
        let trace = EncodedTrace::record(small(6)).unwrap();
        let mut block = EventBlock::new();
        let mut a = trace.cursor();
        a.next_block_of(&mut block, 1).unwrap();
        let first = block.get(0);
        assert_eq!(a.decoded(), 1);
        // A second cursor starts from the beginning, independently.
        let mut b = trace.cursor();
        b.next_block_of(&mut block, 1).unwrap();
        assert_eq!(block.get(0), first);
        // Draining reaches the recorded count.
        let mut c = trace.cursor();
        while c.next_block(&mut block).unwrap() > 0 {}
        assert_eq!(c.decoded(), trace.events());
    }

    #[test]
    fn from_events_round_trips_arbitrary_streams() {
        let events = vec![
            Event::CreateRoot {
                node: NodeId(0),
                size: Bytes(100),
                slots: 2,
            },
            Event::Visit { node: NodeId(0) },
        ];
        let trace = EncodedTrace::from_events(small(1), &events);
        assert_eq!(trace.events(), 2);
        assert_eq!(trace.stats(), GenStats::default());
        assert_eq!(trace.cursor().decode_all().unwrap(), events);
    }

    #[test]
    fn write_to_is_byte_identical_to_the_file_codec() {
        // The file is the magic, version 2, then each event in the codec's
        // layout, nothing else.
        let params = small(7);
        let trace = EncodedTrace::record(params.clone()).unwrap();
        let mut by_hand = b"PGCT\x02\x00\x00\x00".to_vec();
        for event in SyntheticWorkload::new(params).unwrap() {
            codec::encode_event(&mut by_hand, &event);
        }
        let mut file = Vec::new();
        assert_eq!(trace.write_to(&mut file).unwrap(), trace.events());
        assert_eq!(file, by_hand);
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::CreateRoot {
                node: NodeId(0),
                size: Bytes(120),
                slots: 2,
            },
            Event::CreateChild {
                node: NodeId(1),
                parent: NodeId(0),
                parent_slot: 1,
                size: Bytes(65536),
                slots: 2,
            },
            Event::AddSlot { owner: NodeId(0) },
            Event::WritePointer {
                owner: NodeId(0),
                slot: 2,
                new: Some(NodeId(1)),
            },
            Event::Visit { node: NodeId(1) },
            Event::DataWrite { node: NodeId(1) },
            Event::WritePointer {
                owner: NodeId(0),
                slot: 1,
                new: None,
            },
        ]
    }

    /// `events` as a PGCT file.
    fn file_of(events: &[Event]) -> Vec<u8> {
        let mut file = Vec::new();
        EncodedTrace::from_events(small(0), events)
            .write_to(&mut file)
            .unwrap();
        file
    }

    /// The events of the file `bytes`, read back.
    fn read_back(bytes: &[u8]) -> Result<Vec<Event>> {
        EncodedTrace::read_from(bytes)?.cursor().decode_all()
    }

    #[test]
    fn round_trip_preserves_events() {
        let events = sample_events();
        assert_eq!(read_back(&file_of(&events)).unwrap(), events);
    }

    #[test]
    fn full_generated_workload_round_trips() {
        let trace = EncodedTrace::record(small(2)).unwrap();
        let mut file = Vec::new();
        trace.write_to(&mut file).unwrap();
        let back = EncodedTrace::read_from(file.as_slice()).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.buf, trace.buf);
        assert_eq!(back.marks, trace.marks);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            read_back(b"NOPE\x02\x00\x00\x00"),
            Err(PgcError::TraceFormat(_))
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        // 1 is the retired fixed-width layout: an error, not a second reader.
        for version in [1u32, 99] {
            let mut file = b"PGCT".to_vec();
            file.extend_from_slice(&version.to_le_bytes());
            file.extend_from_slice(&[5, 0, 0, 0, 0]);
            let err = read_back(&file).unwrap_err();
            assert!(matches!(err, PgcError::TraceFormat(_)));
            assert!(
                err.to_string().contains(&format!("version {version} ")),
                "got {err}"
            );
        }
    }

    #[test]
    fn truncated_event_is_an_error() {
        let mut file = file_of(&sample_events());
        file.truncate(file.len() - 3); // chop mid-event
        assert!(matches!(read_back(&file), Err(PgcError::TraceFormat(_))));
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut file = file_of(&[]);
        file.push(250);
        assert!(matches!(read_back(&file), Err(PgcError::TraceFormat(_))));
    }

    #[test]
    fn empty_trace_is_fine() {
        let file = file_of(&[]);
        assert_eq!(file.len(), 8, "a header and nothing else");
        let trace = EncodedTrace::read_from(file.as_slice()).unwrap();
        assert_eq!(trace.events(), 0);
        assert!(trace.cursor().decode_all().unwrap().is_empty());
        // A file too short for its header is an I/O error, not a trace.
        assert!(matches!(
            EncodedTrace::read_from(&file[..5]),
            Err(PgcError::TraceIo(_))
        ));
    }

    #[test]
    fn truncated_buffer_is_detected_by_the_cursor() {
        let full = EncodedTrace::record(small(8)).unwrap();
        let mut corrupt = full.clone();
        corrupt.buf.truncate(corrupt.buf.len() - 3);
        let err = corrupt.cursor().decode_all().unwrap_err();
        assert!(matches!(err, PgcError::TraceFormat(_)));
        // Truncating at an event boundary is caught by the header count.
        let boundary = {
            let mut t = full.clone();
            let mut cursor = t.cursor();
            cursor.next_block_of(&mut EventBlock::new(), 1).unwrap();
            let first_len = cursor.pos;
            t.buf.truncate(first_len);
            t
        };
        let err = boundary.cursor().decode_all().unwrap_err();
        assert!(
            err.to_string().contains("ended after"),
            "count mismatch must be reported, got {err}"
        );
    }

    #[test]
    fn segments_tile_the_trace_exactly() {
        let trace = Arc::new(EncodedTrace::record(small(12)).unwrap());
        let all = trace.cursor().decode_all().unwrap();
        // Aligned (mark-resolved), unaligned (scan-resolved), and
        // degenerate (single-segment) carvings must all tile the stream.
        for max_events in [MARK_EVERY, 1000, 97, trace.events() + 1] {
            let segments = EncodedTrace::segments(&trace, max_events).unwrap();
            let mut replayed = Vec::with_capacity(all.len());
            let mut bytes = 0usize;
            for seg in &segments {
                assert!(seg.events() <= max_events);
                assert!(!seg.is_empty());
                let events = seg.cursor().decode_all().unwrap();
                assert_eq!(events.len() as u64, seg.events());
                replayed.extend(events);
                bytes += seg.byte_len();
            }
            assert_eq!(replayed, all, "segment size {max_events}");
            assert_eq!(bytes, trace.byte_len(), "segment size {max_events}");
        }
    }

    #[test]
    fn whole_and_encode_segments_round_trip() {
        let trace = Arc::new(EncodedTrace::record(small(13)).unwrap());
        let whole = TraceSegment::whole(Arc::clone(&trace));
        assert_eq!(whole.events(), trace.events());
        assert_eq!(whole.byte_len(), trace.byte_len());
        assert!(Arc::ptr_eq(whole.trace(), &trace));
        let events = trace.cursor().decode_all().unwrap();
        let encoded = TraceSegment::whole(Arc::new(EncodedTrace::from_events(
            WorkloadParams::default(),
            &events,
        )));
        let back = encoded.cursor().decode_all().unwrap();
        assert_eq!(back, events);
        // Cloning a segment shares the underlying trace.
        let clone = whole.clone();
        assert!(Arc::ptr_eq(clone.trace(), whole.trace()));
    }

    #[test]
    fn segment_cursor_feeds_blocks() {
        let trace = Arc::new(EncodedTrace::record(small(14)).unwrap());
        let segments = EncodedTrace::segments(&trace, 1500).unwrap();
        let mut block = EventBlock::new();
        let mut replayed = Vec::new();
        for seg in &segments {
            let mut cursor = seg.cursor();
            while cursor.next_block(&mut block).unwrap() > 0 {
                replayed.extend(block.iter());
            }
        }
        assert_eq!(replayed, trace.cursor().decode_all().unwrap());
    }

    /// A deterministic synthetic event stream of exactly `n` events (no
    /// generator involved, so edge sizes like 0 or one-block-exactly are
    /// trivial to hit).
    fn synthetic_events(n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    Event::CreateRoot {
                        node: crate::NodeId(i as u64),
                        size: pgc_types::Bytes(64 + (i % 7) as u64 * 16),
                        slots: 1 + (i % 4) as u16,
                    }
                } else {
                    Event::Visit {
                        node: crate::NodeId((i / 3) as u64),
                    }
                }
            })
            .collect()
    }

    #[test]
    fn next_block_of_stops_at_the_asked_count() {
        let trace = EncodedTrace::record(small(15)).unwrap();
        let mut cursor = trace.cursor();
        let mut block = EventBlock::new();
        let mut replayed = Vec::new();
        for max in [1, 97, BLOCK_EVENTS, 5].into_iter().cycle() {
            let left = cursor.remaining_events() as usize;
            let n = cursor.next_block_of(&mut block, max).unwrap();
            assert_eq!(n, max.min(left));
            if n == 0 {
                break;
            }
            replayed.extend(block.iter());
        }
        assert_eq!(replayed, trace.cursor().decode_all().unwrap());
    }

    #[test]
    fn extend_from_encoded_validates_and_matches_from_events() {
        let events = synthetic_events(MARK_EVERY as usize + 500);
        let whole = EncodedTrace::from_events(small(30), &events);
        // Appended as two ragged runs, the trace is the one `from_events`
        // builds: same bytes, same marks.
        let mut grown = EncodedTrace::from_events(small(30), &[]);
        let cut = MARK_EVERY as usize - 3;
        for run in [&events[..cut], &events[cut..]] {
            let bytes = EncodedTrace::from_events(small(30), run).buf;
            grown.extend_from_encoded(run.len() as u64, &bytes).unwrap();
        }
        assert_eq!(grown.buf, whole.buf);
        assert_eq!(grown.marks, whole.marks);
        assert_eq!(grown.events(), whole.events());
        // A count that overstates or understates the bytes, and a run cut
        // mid-event, are errors that leave the trace as it was.
        let n = events.len() as u64;
        let bytes = &whole.buf[..];
        for (count, bytes) in [
            (n + 1, bytes),
            (n - 1, bytes),
            (n, &bytes[..bytes.len() - 1]),
            (u64::MAX, bytes),
        ] {
            let err = grown.extend_from_encoded(count, bytes).unwrap_err();
            assert!(matches!(err, PgcError::TraceFormat(_)));
            assert_eq!(grown.buf, whole.buf);
            assert_eq!(grown.marks, whole.marks);
            assert_eq!(grown.events(), whole.events());
        }
    }

    #[test]
    fn an_empty_trace_carves_and_cursors_cleanly() {
        let trace = Arc::new(EncodedTrace::from_events(small(20), &[]));
        assert_eq!(trace.events(), 0);
        assert!(trace.cursor().decode_all().unwrap().is_empty());
        assert!(EncodedTrace::segments(&trace, 1).unwrap().is_empty());
        assert!(matches!(
            EncodedTrace::segments(&trace, 0),
            Err(PgcError::InvalidConfig(_))
        ));
        assert!(EncodedTrace::segments(&trace, MARK_EVERY)
            .unwrap()
            .is_empty());
        // The whole-trace segment of an empty trace is itself empty.
        let whole = TraceSegment::whole(Arc::clone(&trace));
        assert_eq!(whole.events(), 0);
        assert!(whole.is_empty());
        assert!(whole.cursor().decode_all().unwrap().is_empty());
    }

    #[test]
    fn exactly_one_mark_boundary_is_carved_without_scanning_past_it() {
        // Exactly MARK_EVERY events: the single interior mark coincides
        // with the end of the stream, so every carving must resolve end
        // positions without running off the buffer.
        let events = synthetic_events(MARK_EVERY as usize);
        let trace = Arc::new(EncodedTrace::from_events(small(21), &events));
        for max_events in [MARK_EVERY, MARK_EVERY - 1, 1] {
            let segments = EncodedTrace::segments(&trace, max_events).unwrap();
            let replayed: Vec<Event> = segments
                .iter()
                .flat_map(|seg| seg.cursor().decode_all().unwrap())
                .collect();
            assert_eq!(replayed, events, "carve width {max_events}");
            assert_eq!(
                segments.iter().map(TraceSegment::byte_len).sum::<usize>(),
                trace.byte_len()
            );
        }
        // The one-segment carve is the whole trace.
        let one = EncodedTrace::segments(&trace, MARK_EVERY).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].events(), MARK_EVERY);
    }

    #[test]
    fn unaligned_split_lands_inside_the_final_partial_block() {
        // One full block plus a 37-event tail; a carve width beyond the
        // last mark forces the byte-position scan through the partial
        // final block.
        let events = synthetic_events(MARK_EVERY as usize + 37);
        let trace = Arc::new(EncodedTrace::from_events(small(22), &events));
        let width = MARK_EVERY + 13;
        let segments = EncodedTrace::segments(&trace, width).unwrap();
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].events(), width);
        assert_eq!(segments[1].events(), MARK_EVERY + 37 - width);
        let replayed: Vec<Event> = segments
            .iter()
            .flat_map(|seg| seg.cursor().decode_all().unwrap())
            .collect();
        assert_eq!(replayed, events);
    }

    #[test]
    fn carving_round_trips_across_sizes_and_widths() {
        // Proptest-style sweep: pseudo-random trace sizes × carve widths,
        // all pinned to one seed so failures reproduce. Every carving of
        // every stream must replay exactly like the whole-trace cursor.
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound.max(1)
        };
        for _ in 0..12 {
            let size = next(3 * MARK_EVERY) as usize;
            let events = synthetic_events(size);
            let trace = Arc::new(EncodedTrace::from_events(small(23), &events));
            let whole = trace.cursor().decode_all().unwrap();
            assert_eq!(whole, events);
            for _ in 0..4 {
                let width = 1 + next(MARK_EVERY + MARK_EVERY / 2);
                let segments = EncodedTrace::segments(&trace, width).unwrap();
                assert_eq!(
                    segments.iter().map(TraceSegment::events).sum::<u64>(),
                    size as u64,
                    "size {size} width {width}"
                );
                let replayed: Vec<Event> = segments
                    .iter()
                    .flat_map(|seg| seg.cursor().decode_all().unwrap())
                    .collect();
                assert_eq!(replayed, whole, "size {size} width {width}");
            }
        }
    }

    #[test]
    fn cache_records_each_parameter_set_once() {
        let cache = TraceCache::new();
        assert!(cache.is_empty());
        let a = cache.get_or_record(&small(1)).unwrap();
        let b = cache.get_or_record(&small(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the Arc");
        assert_eq!(cache.len(), 1);
        let c = cache.get_or_record(&small(2)).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        assert!(cache.resident_bytes() >= a.byte_len() + c.byte_len());
        assert!(cache.get(&small(3)).is_none());
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = TraceCache::new();
        let traces: Vec<Arc<EncodedTrace>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cache.get_or_record(&small(9)).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1, "racing recorders converge on one entry");
        for t in &traces {
            assert!(Arc::ptr_eq(t, &traces[0]));
        }
    }
}
