//! The PGCT trace file: a header, then events in the one byte form.
//!
//! A trace file is the serialized event stream of one workload: recording a
//! generator's output and replaying the file drives every policy's
//! simulation with byte-identical input — the essence of trace-driven
//! evaluation. The format is deliberately simple and self-contained (no
//! external serialization dependency):
//!
//! ```text
//! header:  magic "PGCT" | version u32 LE
//! event*:  the layout of [`crate::codec`]
//! ```
//!
//! The stream ends at EOF on an event boundary; a partial event is a
//! [`PgcError::TraceFormat`] error. Version 1 files (fixed-width `u64` ids
//! and `u32` sizes) are rejected by the version check — there is one
//! reader.

use crate::codec::{decode_event, encode_event};
use crate::event::Event;
use pgc_types::{PgcError, Result};
use std::io::{self, Read, Write};

pub(crate) const MAGIC: &[u8; 4] = b"PGCT";
pub(crate) const VERSION: u32 = 2;

fn io_err(e: io::Error) -> PgcError {
    PgcError::TraceIo(e.to_string())
}

/// Streaming trace encoder.
pub struct TraceWriter<W: Write> {
    sink: W,
    events: u64,
    scratch: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header and returns a ready writer.
    pub fn new(mut sink: W) -> Result<Self> {
        sink.write_all(MAGIC).map_err(io_err)?;
        sink.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
        Ok(Self {
            sink,
            events: 0,
            scratch: Vec::with_capacity(32),
        })
    }

    /// Appends one event (encoding through a scratch buffer the writer
    /// owns, so a long recording performs no per-event allocation).
    pub fn write_event(&mut self, event: &Event) -> Result<()> {
        self.scratch.clear();
        encode_event(&mut self.scratch, event);
        self.sink.write_all(&self.scratch).map_err(io_err)?;
        self.events += 1;
        Ok(())
    }

    /// Events written so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Flushes and returns the underlying sink.
    pub fn finish(mut self) -> Result<W> {
        self.sink.flush().map_err(io_err)?;
        Ok(self.sink)
    }
}

/// Trace file decoder: an `Iterator<Item = Result<Event>>`. The header is
/// checked and the body read into memory up front (its size is the file's
/// own, not a length field's); events then decode one at a time through
/// [`decode_event`].
pub struct TraceReader {
    body: Vec<u8>,
    pos: usize,
    failed: bool,
}

impl TraceReader {
    /// Validates the header and returns a ready reader.
    pub fn new<R: Read>(mut source: R) -> Result<Self> {
        let mut magic = [0u8; 4];
        source.read_exact(&mut magic).map_err(io_err)?;
        if &magic != MAGIC {
            return Err(PgcError::TraceFormat("bad magic".into()));
        }
        let mut ver = [0u8; 4];
        source.read_exact(&mut ver).map_err(io_err)?;
        let version = u32::from_le_bytes(ver);
        if version != VERSION {
            return Err(PgcError::TraceFormat(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let mut body = Vec::new();
        source.read_to_end(&mut body).map_err(io_err)?;
        Ok(Self {
            body,
            pos: 0,
            failed: false,
        })
    }
}

impl Iterator for TraceReader {
    type Item = Result<Event>;

    fn next(&mut self) -> Option<Result<Event>> {
        if self.failed {
            return None;
        }
        match decode_event(&self.body, &mut self.pos) {
            Ok(Some(e)) => Some(Ok(e)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Serializes a whole event sequence.
///
/// ```
/// use pgc_workload::{read_trace, write_trace, Event, NodeId};
/// use pgc_types::Bytes;
///
/// let events = vec![
///     Event::CreateRoot { node: NodeId(0), size: Bytes(100), slots: 2 },
///     Event::Visit { node: NodeId(0) },
/// ];
/// let mut buf = Vec::new();
/// write_trace(&mut buf, &events).unwrap();
/// assert_eq!(read_trace(buf.as_slice()).unwrap(), events);
/// ```
pub fn write_trace<'a, W: Write>(
    sink: W,
    events: impl IntoIterator<Item = &'a Event>,
) -> Result<u64> {
    let mut w = TraceWriter::new(sink)?;
    for e in events {
        w.write_event(e)?;
    }
    let n = w.events_written();
    w.finish()?;
    Ok(n)
}

/// Deserializes a whole trace.
pub fn read_trace<R: Read>(source: R) -> Result<Vec<Event>> {
    TraceReader::new(source)?.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::TAG_VISIT;
    use crate::event::NodeId;
    use crate::generator::SyntheticWorkload;
    use crate::params::WorkloadParams;
    use pgc_types::Bytes;

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

    #[test]
    fn round_trip_preserves_events() {
        let events = sample_events();
        let mut buf = Vec::new();
        let n = write_trace(&mut buf, &events).unwrap();
        assert_eq!(n, events.len() as u64);
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn full_generated_workload_round_trips() {
        let events: Vec<Event> = SyntheticWorkload::new(WorkloadParams::small().with_seed(2))
            .unwrap()
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.len(), events.len());
        assert_eq!(back, events);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = b"NOPE\x01\x00\x00\x00".to_vec();
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(PgcError::TraceFormat(_))
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        // 1 is the retired fixed-width layout: an error, not a second reader.
        for version in [1u32, 99] {
            let mut buf = Vec::new();
            buf.extend_from_slice(b"PGCT");
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&[5, 0, 0, 0, 0]);
            let err = read_trace(buf.as_slice()).unwrap_err();
            assert!(matches!(err, PgcError::TraceFormat(_)));
            assert!(
                err.to_string().contains(&format!("version {version} ")),
                "got {err}"
            );
        }
    }

    #[test]
    fn truncated_event_is_an_error() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).unwrap();
        buf.truncate(buf.len() - 3); // chop mid-event
        let result: Result<Vec<Event>> = read_trace(buf.as_slice());
        assert!(matches!(result, Err(PgcError::TraceFormat(_))));
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"PGCT");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(250);
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(PgcError::TraceFormat(_))
        ));
    }

    #[test]
    fn reader_stops_after_first_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"PGCT");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(250);
        buf.push(TAG_VISIT); // unreachable
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
    }

    #[test]
    fn empty_trace_is_fine() {
        let mut buf = Vec::new();
        write_trace::<_>(&mut buf, std::iter::empty()).unwrap();
        assert!(read_trace(buf.as_slice()).unwrap().is_empty());
    }
}
