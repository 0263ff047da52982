//! The byte form of an [`Event`] — the only one.
//!
//! Everywhere an event is bytes it is in this layout: the body of a PGCT
//! trace file ([`crate::trace`]), the shared buffer of an
//! [`crate::EncodedTrace`] and its [`crate::TraceSegment`]s, and the
//! payload of an events frame in the change log (`pgc_sim::durable`).
//! The callers differ only in framing; nothing outside this module reads
//! or writes an event field by field.
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

use crate::event::{Event, NodeId};
use pgc_types::{Bytes, PgcError, Result};

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

/// Appends one event's encoding to `buf`. The event is staged in a fixed
/// stack buffer (29 bytes is the widest form, a wide `CreateChild`) so the
/// `Vec` pays one capacity check per event, not one per field.
#[inline]
pub fn encode_event(buf: &mut Vec<u8>, event: &Event) {
    let mut tmp = [0u8; 29];
    let len = match *event {
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
        Event::AddSlot { owner } => encode_id(&mut tmp, TAG_ADD_SLOT, owner.0),
        Event::Visit { node } => encode_id(&mut tmp, TAG_VISIT, node.0),
        Event::DataWrite { node } => encode_id(&mut tmp, TAG_DATA_WRITE, node.0),
    };
    buf.extend_from_slice(&tmp[..len]);
}

#[inline]
fn encode_id(tmp: &mut [u8; 29], tag: u8, id: u64) -> usize {
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

#[inline]
fn truncated() -> PgcError {
    PgcError::TraceFormat("truncated event".into())
}

#[inline]
fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let bytes = buf
        .get(*pos..*pos + N)
        .ok_or_else(truncated)?
        .try_into()
        .expect("slice has length N");
    *pos += N;
    Ok(bytes)
}

/// An id or a size: `u32` in the narrow form, `u64` in the wide one.
#[inline]
fn take_id(buf: &[u8], pos: &mut usize, wide: bool) -> Result<u64> {
    Ok(if wide {
        u64::from_le_bytes(take::<8>(buf, pos)?)
    } else {
        u32::from_le_bytes(take::<4>(buf, pos)?) as u64
    })
}

#[inline]
fn take_u16(buf: &[u8], pos: &mut usize) -> Result<u16> {
    Ok(u16::from_le_bytes(take::<2>(buf, pos)?))
}

/// Decodes the event starting at `pos`, advancing `pos` past it. Returns
/// `Ok(None)` when `pos` is at the end of `buf`; a partial event, unknown
/// tag or bad presence byte is a [`PgcError::TraceFormat`] error. The
/// inverse of [`encode_event`].
pub fn decode_event(buf: &[u8], pos: &mut usize) -> Result<Option<Event>> {
    let Some(&tag) = buf.get(*pos) else {
        return Ok(None);
    };
    *pos += 1;
    let wide = tag & WIDE != 0;
    let event = match tag & !WIDE {
        TAG_CREATE_ROOT => Event::CreateRoot {
            node: NodeId(take_id(buf, pos, wide)?),
            size: Bytes(take_id(buf, pos, wide)?),
            slots: take_u16(buf, pos)?,
        },
        TAG_CREATE_CHILD => Event::CreateChild {
            node: NodeId(take_id(buf, pos, wide)?),
            parent: NodeId(take_id(buf, pos, wide)?),
            parent_slot: take_u16(buf, pos)?,
            size: Bytes(take_id(buf, pos, wide)?),
            slots: take_u16(buf, pos)?,
        },
        TAG_WRITE_POINTER => {
            let owner = NodeId(take_id(buf, pos, wide)?);
            let slot = take_u16(buf, pos)?;
            let new = match take::<1>(buf, pos)?[0] {
                0 => None,
                1 => Some(NodeId(take_id(buf, pos, wide)?)),
                b => {
                    return Err(PgcError::TraceFormat(format!(
                        "bad option byte {b} in WritePointer"
                    )))
                }
            };
            Event::WritePointer { owner, slot, new }
        }
        TAG_ADD_SLOT => Event::AddSlot {
            owner: NodeId(take_id(buf, pos, wide)?),
        },
        TAG_VISIT => Event::Visit {
            node: NodeId(take_id(buf, pos, wide)?),
        },
        TAG_DATA_WRITE => Event::DataWrite {
            node: NodeId(take_id(buf, pos, wide)?),
        },
        _ => return Err(PgcError::TraceFormat(format!("unknown tag {tag}"))),
    };
    Ok(Some(event))
}

/// A stream of random events covering all six tags in both forms: ids and
/// sizes are mostly narrow, with wide values and `u64::MAX` mixed in.
#[cfg(test)]
pub(crate) fn random_events(seed: u64, n: usize) -> Vec<Event> {
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

    fn encode_all(events: &[Event]) -> Vec<u8> {
        let mut buf = Vec::new();
        events.iter().for_each(|e| encode_event(&mut buf, e));
        buf
    }

    /// Decodes until the end of `buf` or the first error, returning what
    /// decoded cleanly alongside how the loop ended.
    fn decode_all(buf: &[u8]) -> (Vec<Event>, Result<()>) {
        let mut pos = 0;
        let mut out = Vec::new();
        loop {
            match decode_event(buf, &mut pos) {
                Ok(Some(e)) => out.push(e),
                Ok(None) => return (out, Ok(())),
                Err(e) => return (out, Err(e)),
            }
        }
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
        let (back, end) = decode_all(&encode_all(&events));
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
            assert!(decode_event(&buf[..cut], &mut 0).is_err());
        }
        assert!(decode_event(&[0xFF, 0, 0, 0, 0], &mut 0).is_err());
        assert!(decode_event(&[7, 0, 0, 0, 0], &mut 0).is_err());
        assert!(decode_event(&[0, 0, 0, 0, 0], &mut 0).is_err());
    }

    #[test]
    fn bad_option_byte_is_an_error() {
        let mut buf = vec![TAG_WRITE_POINTER];
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.push(9); // neither 0 nor 1
        let err = decode_event(&buf, &mut 0).unwrap_err();
        assert!(err.to_string().contains("option byte"), "got {err}");
    }

    #[test]
    fn randomized_streams_round_trip() {
        for seed in 0..20u64 {
            let events = random_events(seed, 400);
            let buf = encode_all(&events);
            let (back, end) = decode_all(&buf);
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
            let (prefix, end) = decode_all(&buf[..cut]);
            assert_eq!(prefix[..], events[..prefix.len()], "cut {cut}");
            match end {
                Ok(()) => boundary_cuts += 1,
                Err(PgcError::TraceFormat(_)) => {}
                Err(other) => panic!("unexpected error at cut {cut}: {other}"),
            }
        }
        assert_eq!(boundary_cuts, events.len(), "one clean end per boundary");
    }
}
