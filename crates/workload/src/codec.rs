//! The byte form of an [`Event`] — the only one.
//!
//! Everywhere an event is bytes it is in this layout: the shared buffer of
//! an [`crate::EncodedTrace`] and its [`crate::TraceSegment`]s, the body of
//! a PGCT trace file (the same buffer behind a magic and version header:
//! [`crate::EncodedTrace::write_to`] and
//! [`crate::EncodedTrace::read_from`]), and the payload of an events frame
//! in the change log (`pgc_sim::durable`). The callers differ only in
//! framing; nothing outside this module reads or writes an event field by
//! field.
//!
//! Node ids in practice are small sequential counters, so each tag has a
//! narrow form with `u32` ids and sizes; an event touching an id or a
//! byte size that does not fit gets the same field order with the
//! `WIDE` bit (`0x80`) set on the tag and `u64` ids and sizes. All integers are
//! little-endian.
//!
//! ```text
//! tag  event         fields (narrow: id/size = u32; wide: u64)      narrow  wide
//!  1   CreateRoot    node id | size | slots u16                        11     19
//!  2   CreateChild   node id | parent id | parent_slot u16
//!                    | size | slots u16                                17     29
//!  3   WritePointer  owner id | slot u16 | present u8 | [target id]  8/12  12/20
//!  4   AddSlot       owner id                                           5      9
//!  5   Visit         node id                                            5      9
//!  6   DataWrite     node id                                            5      9
//! ```
//!
//! The paper trace averages ~7.5 bytes/event. Decoding validates as it
//! goes — an unknown tag, a bad presence byte or a partial event is a
//! [`PgcError::TraceFormat`] error, never a panic — and reads no length
//! field, so hostile bytes cannot size an allocation.
//!
//! One reader matches each tag once and reads its fields at constant
//! offsets of a 29-byte window (zero-padded near the end of the buffer).
//! It has two sinks: an [`crate::EventBlock`]'s columns
//! ([`crate::TraceCursor::next_block`]), and nothing (counting and marking
//! the events of a trace file or a change-log frame read back from disk).

use crate::event::Event;
use pgc_types::{PgcError, Result};

/// Tag of [`Event::CreateRoot`].
pub(crate) const TAG_CREATE_ROOT: u8 = 1;
/// Tag of [`Event::CreateChild`].
pub(crate) const TAG_CREATE_CHILD: u8 = 2;
/// Tag of [`Event::WritePointer`].
pub(crate) const TAG_WRITE_POINTER: u8 = 3;
/// Tag of [`Event::AddSlot`].
pub(crate) const TAG_ADD_SLOT: u8 = 4;
/// Tag of [`Event::Visit`].
pub(crate) const TAG_VISIT: u8 = 5;
/// Tag of [`Event::DataWrite`].
pub(crate) const TAG_DATA_WRITE: u8 = 6;

/// Tag bit marking the wide (`u64` ids and sizes) form of an event.
const WIDE: u8 = 0x80;

const NARROW: u64 = u32::MAX as u64;

/// The widest form's length (a wide `CreateChild`): every event fits in a
/// window of this many bytes.
const WINDOW: usize = 29;

/// Appends one event's encoding to `buf`. The event is staged in a fixed
/// stack window so the `Vec` pays one capacity check per event, not one
/// per field.
#[inline]
pub fn encode_event(buf: &mut Vec<u8>, event: &Event) {
    let mut tmp = [0u8; WINDOW];
    let len = encode_window(&mut tmp, event);
    buf.extend_from_slice(&tmp[..len]);
}

/// Writes `event`'s encoding at the start of `tmp`, returning its length.
#[inline]
fn encode_window(tmp: &mut [u8; WINDOW], event: &Event) -> usize {
    match *event {
        Event::CreateRoot { node, size, slots } => {
            if node.0 <= NARROW && size.get() <= NARROW {
                tmp[0] = TAG_CREATE_ROOT;
                tmp[1..5].copy_from_slice(&(node.0 as u32).to_le_bytes());
                tmp[5..9].copy_from_slice(&(size.get() as u32).to_le_bytes());
                tmp[9..11].copy_from_slice(&slots.to_le_bytes());
                11
            } else {
                tmp[0] = TAG_CREATE_ROOT | WIDE;
                tmp[1..9].copy_from_slice(&node.0.to_le_bytes());
                tmp[9..17].copy_from_slice(&size.get().to_le_bytes());
                tmp[17..19].copy_from_slice(&slots.to_le_bytes());
                19
            }
        }
        Event::CreateChild {
            node,
            parent,
            parent_slot,
            size,
            slots,
        } => {
            if node.0 <= NARROW && parent.0 <= NARROW && size.get() <= NARROW {
                tmp[0] = TAG_CREATE_CHILD;
                tmp[1..5].copy_from_slice(&(node.0 as u32).to_le_bytes());
                tmp[5..9].copy_from_slice(&(parent.0 as u32).to_le_bytes());
                tmp[9..11].copy_from_slice(&parent_slot.to_le_bytes());
                tmp[11..15].copy_from_slice(&(size.get() as u32).to_le_bytes());
                tmp[15..17].copy_from_slice(&slots.to_le_bytes());
                17
            } else {
                tmp[0] = TAG_CREATE_CHILD | WIDE;
                tmp[1..9].copy_from_slice(&node.0.to_le_bytes());
                tmp[9..17].copy_from_slice(&parent.0.to_le_bytes());
                tmp[17..19].copy_from_slice(&parent_slot.to_le_bytes());
                tmp[19..27].copy_from_slice(&size.get().to_le_bytes());
                tmp[27..29].copy_from_slice(&slots.to_le_bytes());
                29
            }
        }
        Event::WritePointer { owner, slot, new } => {
            let new_id = new.map_or(0, |t| t.0);
            if owner.0 <= NARROW && new_id <= NARROW {
                tmp[0] = TAG_WRITE_POINTER;
                tmp[1..5].copy_from_slice(&(owner.0 as u32).to_le_bytes());
                tmp[5..7].copy_from_slice(&slot.to_le_bytes());
                match new {
                    Some(t) => {
                        tmp[7] = 1;
                        tmp[8..12].copy_from_slice(&(t.0 as u32).to_le_bytes());
                        12
                    }
                    None => {
                        tmp[7] = 0;
                        8
                    }
                }
            } else {
                tmp[0] = TAG_WRITE_POINTER | WIDE;
                tmp[1..9].copy_from_slice(&owner.0.to_le_bytes());
                tmp[9..11].copy_from_slice(&slot.to_le_bytes());
                match new {
                    Some(t) => {
                        tmp[11] = 1;
                        tmp[12..20].copy_from_slice(&t.0.to_le_bytes());
                        20
                    }
                    None => {
                        tmp[11] = 0;
                        12
                    }
                }
            }
        }
        Event::AddSlot { owner } => encode_id(tmp, TAG_ADD_SLOT, owner.0),
        Event::Visit { node } => encode_id(tmp, TAG_VISIT, node.0),
        Event::DataWrite { node } => encode_id(tmp, TAG_DATA_WRITE, node.0),
    }
}

#[inline]
fn encode_id(tmp: &mut [u8; WINDOW], tag: u8, id: u64) -> usize {
    if id <= NARROW {
        tmp[0] = tag;
        tmp[1..5].copy_from_slice(&(id as u32).to_le_bytes());
        5
    } else {
        tmp[0] = tag | WIDE;
        tmp[1..9].copy_from_slice(&id.to_le_bytes());
        9
    }
}

/// One event's fields in the lanes of [`crate::EventBlock`]'s columns:
/// `(kind, a, b, size, slot, slots)`, where `kind` is the narrow tag. Lanes
/// a kind does not use hold zero.
pub(crate) type Lanes = (u8, u64, u64, u64, u16, u16);

/// `event`'s lanes: its encoding, read back.
pub(crate) fn lanes_of(event: &Event) -> Lanes {
    let mut window = [0; WINDOW];
    encode_window(&mut window, event);
    read_window(&window)
        .expect("the reader takes every encoding")
        .0
}

#[cold]
fn truncated() -> PgcError {
    PgcError::TraceFormat("truncated event".into())
}

/// Reads the event at `buf[*pos..]` and advances `pos` past it; `Ok(None)`
/// when `pos` is at the end of `buf`. A partial event, unknown tag or bad
/// presence byte is a [`PgcError::TraceFormat`] error, and leaves `pos` at
/// the event's first byte.
#[inline(always)]
pub(crate) fn read(buf: &[u8], pos: &mut usize) -> Result<Option<Lanes>> {
    let rest = buf.get(*pos..).unwrap_or_default();
    let (lanes, len) = match rest.first_chunk::<WINDOW>() {
        Some(window) => read_window(window)?,
        None if rest.is_empty() => return Ok(None),
        None => {
            // Near the end of the buffer: the same match over a zero-padded
            // copy, then a check that the event was all there.
            let mut window = [0; WINDOW];
            window[..rest.len()].copy_from_slice(rest);
            match read_window(&window)? {
                (_, len) if len > rest.len() => return Err(truncated()),
                read => read,
            }
        }
    };
    *pos += len;
    Ok(Some(lanes))
}

/// Reads the event at the start of `w`, returning its lanes and length.
#[inline(always)]
fn read_window(w: &[u8; WINDOW]) -> Result<(Lanes, usize)> {
    if w[0] & WIDE != 0 {
        return read_form::<8>(w);
    }
    read_form::<4>(w)
}

/// [`read_window`] for ids and sizes `K` bytes wide: every offset is a
/// constant below [`WINDOW`], so no field read is checked.
#[inline(always)]
fn read_form<const K: usize>(w: &[u8; WINDOW]) -> Result<(Lanes, usize)> {
    let id = |at: usize| {
        let mut le = [0; 8];
        le[..K].copy_from_slice(&w[at..at + K]);
        u64::from_le_bytes(le)
    };
    let u16_at = |at: usize| u16::from_le_bytes([w[at], w[at + 1]]);
    let kind = w[0] & !WIDE;
    Ok(match kind {
        TAG_CREATE_ROOT => ((kind, id(1), 0, id(1 + K), 0, u16_at(1 + 2 * K)), 3 + 2 * K),
        TAG_CREATE_CHILD => {
            let (parent, size) = (id(1 + K), id(3 + 2 * K));
            let (slot, slots) = (u16_at(1 + 2 * K), u16_at(3 + 3 * K));
            ((kind, id(1), parent, size, slot, slots), 5 + 3 * K)
        }
        TAG_WRITE_POINTER => {
            let present = w[3 + K];
            if present > 1 {
                return Err(PgcError::TraceFormat(format!(
                    "bad option byte {present} in WritePointer"
                )));
            }
            // A branch, not `4 + K + present * K`: that let the compiler
            // narrow every arm's length to a byte register whose partial
            // write chained `pos` to the tag load (validation measured
            // 6.3 ns/event against 2.2 on a 2.1 GHz Xeon).
            let len = if present == 1 { 4 + 2 * K } else { 4 + K };
            let target = if present == 1 { id(4 + K) } else { 0 };
            ((kind, id(1), target, present as u64, u16_at(1 + K), 0), len)
        }
        TAG_ADD_SLOT | TAG_VISIT | TAG_DATA_WRITE => ((kind, id(1), 0, 0, 0, 0), 1 + K),
        _ => return Err(PgcError::TraceFormat(format!("unknown tag {}", w[0]))),
    })
}

/// A stream of random events covering all six tags in both forms: ids and
/// sizes are mostly narrow, with wide values and `u64::MAX` mixed in.
#[cfg(test)]
pub(crate) fn random_events(seed: u64, n: usize) -> Vec<Event> {
    use crate::event::NodeId;
    use pgc_types::Bytes;
    let mut rng = pgc_types::SimRng::new(seed);
    let value = |rng: &mut pgc_types::SimRng| match rng.below(20) {
        0 => u64::MAX,
        1..=4 => rng.next_u64(),
        _ => rng.range_inclusive(0, NARROW),
    };
    let slot = |rng: &mut pgc_types::SimRng| rng.range_inclusive(0, u16::MAX as u64) as u16;
    (0..n)
        .map(|_| match rng.below(6) {
            0 => Event::CreateRoot {
                node: NodeId(value(&mut rng)),
                size: Bytes(value(&mut rng)),
                slots: slot(&mut rng),
            },
            1 => Event::CreateChild {
                node: NodeId(value(&mut rng)),
                parent: NodeId(value(&mut rng)),
                parent_slot: slot(&mut rng),
                size: Bytes(value(&mut rng)),
                slots: slot(&mut rng),
            },
            2 => Event::WritePointer {
                owner: NodeId(value(&mut rng)),
                slot: slot(&mut rng),
                new: rng.chance(0.5).then(|| NodeId(value(&mut rng))),
            },
            3 => Event::AddSlot {
                owner: NodeId(value(&mut rng)),
            },
            4 => Event::Visit {
                node: NodeId(value(&mut rng)),
            },
            _ => Event::DataWrite {
                node: NodeId(value(&mut rng)),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{EventBlock, BLOCK_EVENTS};
    use crate::encoded::{tests::cursor_over, EncodedTrace};
    use crate::event::NodeId;
    use crate::params::WorkloadParams;
    use pgc_types::Bytes;

    fn encode_all(events: &[Event]) -> Vec<u8> {
        let mut buf = Vec::new();
        events.iter().for_each(|e| encode_event(&mut buf, e));
        buf
    }

    /// Reads lanes one `read` at a time until the end of `buf` or the
    /// first error, returning the events that read cleanly, where the
    /// reader stopped, and how the loop ended.
    fn decode_all(buf: &[u8]) -> (Vec<Event>, usize, Result<()>) {
        let (mut pos, mut block) = (0, EventBlock::new());
        let end = loop {
            match read(buf, &mut pos) {
                Ok(Some(lanes)) => block.put(&[lanes]),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        (block.iter().collect(), pos, end)
    }

    #[test]
    fn narrow_and_wide_forms_round_trip() {
        let wide_id = u32::MAX as u64 + 1;
        let events = [
            Event::CreateRoot {
                node: NodeId(0),
                size: Bytes(64),
                slots: 3,
            },
            Event::CreateRoot {
                node: NodeId(wide_id),
                size: Bytes(u32::MAX as u64 + 7),
                slots: u16::MAX,
            },
            Event::CreateChild {
                node: NodeId(u32::MAX as u64),
                parent: NodeId(17),
                parent_slot: 2,
                size: Bytes(128),
                slots: 4,
            },
            Event::CreateChild {
                node: NodeId(1),
                parent: NodeId(wide_id),
                parent_slot: u16::MAX,
                size: Bytes(1),
                slots: 0,
            },
            Event::WritePointer {
                owner: NodeId(9),
                slot: 1,
                new: Some(NodeId(11)),
            },
            Event::WritePointer {
                owner: NodeId(9),
                slot: 1,
                new: None,
            },
            Event::WritePointer {
                owner: NodeId(wide_id),
                slot: 0,
                new: None,
            },
            Event::WritePointer {
                owner: NodeId(3),
                slot: 0,
                new: Some(NodeId(wide_id)),
            },
            Event::AddSlot { owner: NodeId(5) },
            Event::Visit { node: NodeId(123) },
            Event::Visit {
                node: NodeId(u64::MAX),
            },
            Event::DataWrite { node: NodeId(0) },
        ];
        let (back, _, end) = decode_all(&encode_all(&events));
        end.unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn common_events_encode_small() {
        let buf = encode_all(&[Event::Visit {
            node: NodeId(100_000),
        }]);
        assert_eq!(buf.len(), 5, "narrow visit is tag + u32");
    }

    #[test]
    fn truncation_and_bad_tags_are_errors_not_panics() {
        let buf = encode_all(&[Event::CreateChild {
            node: NodeId(1),
            parent: NodeId(2),
            parent_slot: 0,
            size: Bytes(64),
            slots: 2,
        }]);
        for cut in 1..buf.len() {
            assert!(read(&buf[..cut], &mut 0).is_err());
        }
        assert!(read(&[0xFF, 0, 0, 0, 0], &mut 0).is_err());
        assert!(read(&[7, 0, 0, 0, 0], &mut 0).is_err());
        assert!(read(&[0, 0, 0, 0, 0], &mut 0).is_err());
    }

    #[test]
    fn bad_option_byte_is_an_error() {
        let mut buf = vec![TAG_WRITE_POINTER];
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.push(9); // neither 0 nor 1
        let err = read(&buf, &mut 0).unwrap_err();
        assert!(err.to_string().contains("option byte"), "got {err}");
    }

    #[test]
    fn randomized_streams_round_trip() {
        for seed in 0..20u64 {
            let events = random_events(seed, 400);
            let buf = encode_all(&events);
            let (back, _, end) = decode_all(&buf);
            end.unwrap();
            assert_eq!(back, events, "seed {seed}");
        }
    }

    #[test]
    fn every_truncation_point_yields_a_clean_prefix_or_an_error() {
        // Cutting the byte stream anywhere must never fabricate or reorder
        // events: the decoder either fails (mid-event) or ends cleanly on
        // an exact prefix of the original stream (event boundary).
        let events = random_events(42, 60);
        let buf = encode_all(&events);
        let mut boundary_cuts = 0;
        for cut in 0..buf.len() {
            let (prefix, _, end) = decode_all(&buf[..cut]);
            assert_eq!(prefix[..], events[..prefix.len()], "cut {cut}");
            match end {
                Ok(()) => boundary_cuts += 1,
                Err(PgcError::TraceFormat(_)) => {}
                Err(other) => panic!("unexpected error at cut {cut}: {other}"),
            }
        }
        assert_eq!(boundary_cuts, events.len(), "one clean end per boundary");
    }

    /// Runs the reader's two sinks over `bytes` — a block's columns
    /// (`next_block_of` at three sizes) and nothing (`extend_from_encoded`)
    /// — against a reference loop of single `read`s, and requires the same
    /// accept or `TraceFormat` error, the same events and the same stop.
    /// Returns the reference's event count and whether it read to the end.
    fn sinks_agree(bytes: &[u8], what: &str) -> (u64, bool) {
        let (events, stop, end) = decode_all(bytes);
        let accepted = match end {
            Ok(()) => true,
            Err(PgcError::TraceFormat(_)) => false,
            Err(other) => panic!("{what}: {other}"),
        };
        let n = events.len() as u64;
        assert_eq!(stop == bytes.len(), accepted, "{what}: loop stop");
        for max in [1, 97, BLOCK_EVENTS] {
            let what = format!("{what}, blocks of {max}");
            let mut cursor = cursor_over(bytes, n);
            let (mut block, mut seen, mut kept) = (EventBlock::new(), Vec::new(), Vec::new());
            let end = loop {
                let step = cursor.next_block_of(&mut block, max);
                seen.extend(block.iter());
                match step {
                    Ok(0) => break Ok(()),
                    Ok(_) => kept.extend_from_slice(block.encoded().expect("clean block")),
                    Err(e) => break Err(e),
                }
            };
            assert_eq!(seen, events, "{what}");
            assert_eq!(cursor.remaining_events(), 0, "{what}");
            assert!(bytes[..stop].starts_with(&kept), "{what}");
            match end {
                Ok(()) => assert!(accepted && kept == bytes, "{what}"),
                Err(e) => {
                    assert!(!accepted && matches!(e, PgcError::TraceFormat(_)), "{what}");
                    assert!(block.encoded().is_none(), "{what}: kept bytes");
                }
            }
        }
        let empty = || EncodedTrace::from_events(WorkloadParams::small(), &[]);
        let mut trace = empty();
        match trace.extend_from_encoded(n, bytes) {
            Ok(()) => assert!(
                accepted && trace.cursor().decode_all().unwrap() == events,
                "{what}"
            ),
            Err(e) => {
                assert!(!accepted && matches!(e, PgcError::TraceFormat(_)), "{what}");
                assert_eq!(trace.events(), 0, "{what}: a refused run changed the trace");
            }
        }
        if accepted {
            for wrong in [n + 1, n.wrapping_sub(1)] {
                let err = empty().extend_from_encoded(wrong, bytes);
                assert!(err.is_err(), "{what}: {n} events taken as {wrong}");
            }
        }
        (n, accepted)
    }

    #[test]
    fn the_two_sinks_agree_on_hostile_bytes() {
        let events: Vec<Vec<Event>> = (0..4).map(|seed| random_events(seed, 300)).collect();
        let streams: Vec<Vec<u8>> = events.iter().map(|e| encode_all(e)).collect();
        let wide = |e: &Event| encode_all(&[*e])[0] & WIDE != 0;
        assert!(events[0].iter().any(wide) && !events[0].iter().all(wide));
        for cut in 0..=streams[0].len() {
            sinks_agree(&streams[0][..cut], &format!("cut {cut}"));
        }
        // Seeded bit flips, truncations and splices of one stream onto another.
        let mut rng = pgc_types::SimRng::new(29);
        let mut refused = 0;
        for case in 0..2000 {
            let mut bytes = rng.pick(&streams).clone();
            let (len, at) = (bytes.len(), rng.pick_index(bytes.len() + 1));
            match case % 3 {
                0 => bytes[at.min(len - 1)] ^= 1 << rng.below(8),
                1 => bytes.truncate(at),
                _ => {
                    let other = rng.pick(&streams);
                    bytes.truncate(at);
                    bytes.extend_from_slice(&other[rng.pick_index(other.len() + 1)..]);
                }
            }
            refused += !sinks_agree(&bytes, &format!("case {case}")).1 as usize;
        }
        assert!(refused > 500, "{refused} of 2000 cases reached an error");
    }

    #[test]
    fn every_tag_and_form_ends_a_stream_in_the_padded_tail() {
        // A stream's last event has fewer bytes after its start than a
        // window, so it is read from the zero-padded copy; so is every cut
        // of it, including those of the one form as long as a window.
        let (wide, node) = (u32::MAX as u64 + 1, NodeId(7));
        let mut forms = Vec::new();
        for id in [3, wide] {
            let (n, size) = (NodeId(id), Bytes(id));
            forms.extend([
                Event::CreateRoot {
                    node: n,
                    size,
                    slots: 2,
                },
                Event::CreateChild {
                    node: n,
                    parent: node,
                    parent_slot: 1,
                    size,
                    slots: 2,
                },
                Event::WritePointer {
                    owner: n,
                    slot: 1,
                    new: Some(node),
                },
                Event::WritePointer {
                    owner: n,
                    slot: 1,
                    new: None,
                },
                Event::AddSlot { owner: n },
                Event::Visit { node: n },
                Event::DataWrite { node: n },
            ]);
        }
        let lead = random_events(3, 8);
        for last in forms {
            let tail = encode_all(&[last]);
            assert!(tail.len() <= WINDOW);
            let mut bytes = encode_all(&lead);
            let start = bytes.len();
            bytes.extend_from_slice(&tail);
            for cut in 0..=tail.len() {
                let what = format!("{last:?} cut at {cut} of {}", tail.len());
                let (n, accepted) = sinks_agree(&bytes[..start + cut], &what);
                assert_eq!(accepted, cut == 0 || cut == tail.len(), "{what}");
                assert_eq!(n, lead.len() as u64 + (cut == tail.len()) as u64, "{what}");
            }
        }
    }
}
