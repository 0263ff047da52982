//! Batched struct-of-arrays event decoding.
//!
//! Every replay decodes events a run at a time: [`EventBlock`] is the run.
//! [`crate::TraceCursor::next_block`] decodes up to [`BLOCK_EVENTS`] events
//! into six flat, column-ordered arrays in one tight pass, and the replay
//! loop then applies the run from those arrays without touching the byte
//! stream, so the decoder's branchy byte-twiddling and the simulator's
//! table lookups do not interleave and fight over the same caches.
//!
//! The block is plain reusable scratch: [`EventBlock::clear`] keeps every
//! column's capacity, so a replay loop that recycles one block performs
//! **zero allocation after warmup**. Columns are lane-shared across event
//! kinds — `a` holds the acting node for every kind, `b` the second node
//! (parent or pointer target) where one exists — which keeps the block at
//! 29 bytes/event (`u8` + 3 × `u64` + 2 × `u16`) regardless of the `Event`
//! enum's in-memory size.
//!
//! A block filled by a cursor also keeps the encoded bytes it was decoded
//! from ([`EventBlock::encoded`], ~7.5 bytes/event more), so a consumer
//! that needs the events as bytes again — the change log, which is written
//! ahead of every apply — copies them instead of gathering each event back
//! out of the columns and re-encoding it.

use crate::codec::{self, Lanes};
use crate::event::{Event, NodeId};
use pgc_types::Bytes;

/// Default number of events decoded per [`crate::TraceCursor::next_block`]
/// call: large enough to amortize loop overhead while a block (≈ 150 KB:
/// 29 B/event of columns plus ~7.5 B/event of kept bytes) still fits in L2
/// beside the simulator's working set.
pub const BLOCK_EVENTS: usize = 4096;

/// A run of decoded events in struct-of-arrays layout.
///
/// Every column has one entry per event; lanes that a kind does not use
/// hold zero. `kind` stores the codec's narrow tag byte.
///
/// ```
/// use pgc_workload::{EncodedTrace, EventBlock, WorkloadParams};
///
/// let trace = EncodedTrace::record(WorkloadParams::small().with_seed(3)).unwrap();
/// let mut cursor = trace.cursor();
/// let mut block = EventBlock::new();
/// let mut replayed = 0u64;
/// while cursor.next_block(&mut block).unwrap() > 0 {
///     for i in 0..block.len() {
///         let _event = block.get(i);
///         replayed += 1;
///     }
/// }
/// assert_eq!(replayed, trace.events());
/// assert_eq!(cursor.remaining_events(), 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct EventBlock {
    /// Codec tag byte per event (`1..=6`).
    kind: Vec<u8>,
    /// Acting node: the created node, pointer owner, or visited node.
    a: Vec<u64>,
    /// Second node where one exists: `CreateChild` parent, `WritePointer`
    /// target (presence in `size`). Zero otherwise.
    b: Vec<u64>,
    /// Object size for creations, as wide as the codec's wide form;
    /// `WritePointer` reuses the lane as the target-presence flag (0 =
    /// null store, 1 = `b` is the target).
    size: Vec<u64>,
    /// Slot index for `CreateChild` (parent slot) and `WritePointer`.
    slot: Vec<u16>,
    /// Slot count for creations.
    slots: Vec<u16>,
    /// The bytes the columns were decoded from, in the layout of
    /// [`crate::codec`]: exactly the held events, or empty when the block
    /// was not filled by a cursor (see [`EventBlock::encoded`]).
    encoded: Vec<u8>,
}

impl EventBlock {
    /// An empty block; columns allocate lazily on first decode.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty block with every column sized for `events` entries.
    pub fn with_capacity(events: usize) -> Self {
        Self {
            kind: Vec::with_capacity(events),
            a: Vec::with_capacity(events),
            b: Vec::with_capacity(events),
            size: Vec::with_capacity(events),
            slot: Vec::with_capacity(events),
            slots: Vec::with_capacity(events),
            encoded: Vec::new(),
        }
    }

    /// Number of events held.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// Smallest column capacity — the number of events the block can hold
    /// before any column reallocates.
    pub fn capacity(&self) -> usize {
        self.kind
            .capacity()
            .min(self.a.capacity())
            .min(self.b.capacity())
            .min(self.size.capacity())
            .min(self.slot.capacity())
            .min(self.slots.capacity())
    }

    /// Empties the block, keeping every column's capacity.
    pub fn clear(&mut self) {
        self.kind.clear();
        self.a.clear();
        self.b.clear();
        self.size.clear();
        self.slot.clear();
        self.slots.clear();
        self.encoded.clear();
    }

    /// The encoded bytes the block's events were decoded from, when it was
    /// filled by [`crate::TraceCursor::next_block_of`] and not touched
    /// since: they decode to exactly [`EventBlock::iter`]. `None` once
    /// [`EventBlock::push`] has changed the columns, or for a block built
    /// from pushes alone.
    ///
    /// The bytes are what the cursor read, which is byte-equal to
    /// re-encoding the events for everything [`crate::codec::encode_event`]
    /// wrote (it always picks the narrow form when it fits; a foreign
    /// encoder that did not would still decode to the same events).
    pub fn encoded(&self) -> Option<&[u8]> {
        (!self.encoded.is_empty()).then_some(&self.encoded)
    }

    /// Records `bytes` as what the columns were just decoded from.
    pub(crate) fn set_encoded(&mut self, bytes: &[u8]) {
        self.encoded.extend_from_slice(bytes);
    }

    /// Appends one event, scattering its fields across the columns. The
    /// block no longer matches any bytes it was decoded from, so it
    /// forgets them.
    #[inline]
    pub fn push(&mut self, event: &Event) {
        self.encoded.clear();
        self.put(&[codec::lanes_of(event)]);
    }

    /// Appends a run of events' lanes column by column, leaving the kept
    /// bytes to the caller.
    #[inline]
    pub(crate) fn put(&mut self, run: &[Lanes]) {
        self.kind.extend(run.iter().map(|&(kind, ..)| kind));
        self.a.extend(run.iter().map(|&(_, a, ..)| a));
        self.b.extend(run.iter().map(|&(_, _, b, ..)| b));
        self.size.extend(run.iter().map(|&(.., size, _, _)| size));
        self.slot.extend(run.iter().map(|&(.., slot, _)| slot));
        self.slots.extend(run.iter().map(|&(.., slots)| slots));
    }

    /// Reconstructs event `i` from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Event {
        match self.kind[i] {
            codec::TAG_CREATE_ROOT => Event::CreateRoot {
                node: NodeId(self.a[i]),
                size: Bytes(self.size[i]),
                slots: self.slots[i],
            },
            codec::TAG_CREATE_CHILD => Event::CreateChild {
                node: NodeId(self.a[i]),
                parent: NodeId(self.b[i]),
                parent_slot: self.slot[i],
                size: Bytes(self.size[i]),
                slots: self.slots[i],
            },
            codec::TAG_WRITE_POINTER => Event::WritePointer {
                owner: NodeId(self.a[i]),
                slot: self.slot[i],
                new: (self.size[i] != 0).then(|| NodeId(self.b[i])),
            },
            codec::TAG_ADD_SLOT => Event::AddSlot {
                owner: NodeId(self.a[i]),
            },
            codec::TAG_VISIT => Event::Visit {
                node: NodeId(self.a[i]),
            },
            codec::TAG_DATA_WRITE => Event::DataWrite {
                node: NodeId(self.a[i]),
            },
            t => unreachable!("EventBlock holds only codec tags, found {t}"),
        }
    }

    /// Iterates the reconstructed events in order.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl FromIterator<Event> for EventBlock {
    fn from_iter<I: IntoIterator<Item = Event>>(events: I) -> Self {
        let mut block = Self::new();
        events.into_iter().for_each(|e| block.push(&e));
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::random_events;
    use crate::encoded::EncodedTrace;
    use crate::params::WorkloadParams;

    #[test]
    fn push_get_round_trips_every_kind_and_extreme_value() {
        for seed in 0..10u64 {
            let events = random_events(seed, 500);
            let mut block = EventBlock::new();
            for e in &events {
                block.push(e);
            }
            assert_eq!(block.len(), events.len());
            let back: Vec<Event> = block.iter().collect();
            assert_eq!(back, events, "seed {seed}");
        }
    }

    #[test]
    fn null_store_to_node_zero_are_distinguished() {
        // Target NodeId(0) and a null store share b == 0; the presence
        // lane must keep them apart.
        let events = [
            Event::WritePointer {
                owner: NodeId(1),
                slot: 0,
                new: Some(NodeId(0)),
            },
            Event::WritePointer {
                owner: NodeId(1),
                slot: 0,
                new: None,
            },
        ];
        let mut block = EventBlock::new();
        events.iter().for_each(|e| block.push(e));
        assert_eq!(block.get(0), events[0]);
        assert_eq!(block.get(1), events[1]);
    }

    #[test]
    fn block_replay_of_a_recorded_trace_matches_per_event_decode() {
        let trace = EncodedTrace::record(WorkloadParams::small().with_seed(11)).unwrap();
        let mut block = EventBlock::new();
        let (mut cursor, mut per_event) = (trace.cursor(), Vec::new());
        while cursor.next_block_of(&mut block, 1).unwrap() > 0 {
            per_event.push(block.get(0));
        }
        let mut cursor = trace.cursor();
        let mut batched = Vec::with_capacity(per_event.len());
        loop {
            let n = cursor.next_block(&mut block).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= BLOCK_EVENTS);
            batched.extend(block.iter());
        }
        assert_eq!(batched, per_event);
        assert_eq!(cursor.remaining_events(), 0);
    }

    #[test]
    fn a_decoded_block_keeps_its_bytes_until_it_is_touched() {
        let events = random_events(6, 300);
        let trace = EncodedTrace::from_events(WorkloadParams::small(), &events);
        let mut whole = Vec::new();
        trace.write_to(&mut whole).unwrap();
        let body = &whole[whole.len() - trace.byte_len()..];
        // Ragged cuts: each block's bytes are its own slice of the stream,
        // and the slices tile it.
        let mut cursor = trace.cursor();
        let mut block = EventBlock::new();
        let mut seen = Vec::new();
        for max in [1, 97, 5, 1000] {
            cursor.next_block_of(&mut block, max).unwrap();
            let bytes = block.encoded().expect("decoded blocks keep their bytes");
            let mut redone = Vec::new();
            block
                .iter()
                .for_each(|e| codec::encode_event(&mut redone, &e));
            assert_eq!(bytes, redone);
            seen.extend_from_slice(bytes);
        }
        assert_eq!(seen, body);
        assert_eq!(cursor.next_block(&mut block).unwrap(), 0);
        assert!(block.encoded().is_none(), "an empty block has no bytes");

        trace.cursor().next_block(&mut block).unwrap();
        assert_eq!(block.clone().encoded(), block.encoded());
        block.push(&events[0]);
        assert!(block.encoded().is_none(), "push forgets the bytes");
        trace.cursor().next_block(&mut block).unwrap();
        block.clear();
        assert!(block.encoded().is_none(), "clear forgets the bytes");
    }

    #[test]
    fn remaining_events_counts_down_block_by_block() {
        // Two full blocks plus a half-full tail.
        let total = 2 * BLOCK_EVENTS + BLOCK_EVENTS / 2;
        let events = random_events(3, total);
        let trace = EncodedTrace::from_events(WorkloadParams::small(), &events);
        let mut cursor = trace.cursor();
        assert_eq!(cursor.remaining_events(), total as u64);
        let mut block = EventBlock::new();
        cursor.next_block(&mut block).unwrap();
        assert_eq!(block.len(), BLOCK_EVENTS);
        assert_eq!(cursor.remaining_events(), (total - BLOCK_EVENTS) as u64);
        cursor.next_block(&mut block).unwrap();
        cursor.next_block(&mut block).unwrap();
        assert_eq!(block.len(), total - 2 * BLOCK_EVENTS);
        assert_eq!(cursor.remaining_events(), 0);
        assert_eq!(cursor.next_block(&mut block).unwrap(), 0);
        assert!(block.is_empty());
    }

    #[test]
    fn clear_keeps_capacity_for_reuse() {
        let events = random_events(4, BLOCK_EVENTS);
        let mut block = EventBlock::with_capacity(BLOCK_EVENTS);
        assert!(block.capacity() >= BLOCK_EVENTS);
        events.iter().for_each(|e| block.push(e));
        let cap = block.capacity();
        block.clear();
        assert!(block.is_empty());
        assert_eq!(block.capacity(), cap, "clear must not shed capacity");
        // A decode loop reusing the block never grows it past the cap.
        let trace = EncodedTrace::from_events(WorkloadParams::small(), &events);
        let mut cursor = trace.cursor();
        while cursor.next_block(&mut block).unwrap() > 0 {}
        assert_eq!(block.capacity(), cap);
    }

    #[test]
    fn truncated_buffer_is_reported_through_next_block() {
        let trace = EncodedTrace::record(WorkloadParams::small().with_seed(5)).unwrap();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 3);
        let chopped = EncodedTrace::read_from(bytes.as_slice());
        assert!(chopped.is_err(), "sanity: the cut lands mid-event");
        let mut corrupt = trace.clone();
        corrupt.truncate_for_test(3);
        let mut cursor = corrupt.cursor();
        let mut block = EventBlock::new();
        let err = loop {
            match cursor.next_block(&mut block) {
                Ok(0) => panic!("truncation must not decode cleanly"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, pgc_types::PgcError::TraceFormat(_)));
    }
}
