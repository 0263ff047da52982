//! Application events — the vocabulary of traces.
//!
//! A trace is a sequence of [`Event`]s referencing objects by [`NodeId`], a
//! dense id assigned by the workload in creation order. Using workload-level
//! ids (rather than database `Oid`s) keeps traces independent of the
//! database implementation: the simulator maintains the `NodeId → Oid`
//! mapping during replay. This mirrors the paper's setup, where the same
//! trace drives every policy's simulation.

use pgc_types::Bytes;
use std::fmt;

/// Workload-level object identifier: the `n`-th object the trace creates
/// has `NodeId(n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Index as `usize` for dense tables.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n#{}", self.0)
    }
}

/// One application event.
///
/// Creation events carry the id the new object *must* receive (`node`),
/// which the generator assigns densely; replay asserts the ordering is
/// consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Create a database root object (a new tree root).
    CreateRoot {
        /// Id the new object receives.
        node: NodeId,
        /// Object size in bytes.
        size: Bytes,
        /// Number of pointer slots (2 for binary tree nodes).
        slots: u16,
    },
    /// Create an object and link it from `parent.parent_slot` (placement
    /// near the parent is the database's job).
    CreateChild {
        /// Id the new object receives.
        node: NodeId,
        /// The already-created parent.
        parent: NodeId,
        /// Which of the parent's slots points at the new object.
        parent_slot: u16,
        /// Object size in bytes.
        size: Bytes,
        /// Number of pointer slots on the new object.
        slots: u16,
    },
    /// Store `new` into `owner.slot` (a pointer write; `None` deletes the
    /// edge; overwriting a non-null slot is the paper's GC trigger event).
    WritePointer {
        /// Object whose slot is written.
        owner: NodeId,
        /// Slot index.
        slot: u16,
        /// New pointer value.
        new: Option<NodeId>,
    },
    /// Append a fresh (null) pointer slot to `owner` — how dense edges get
    /// a slot to live in.
    AddSlot {
        /// Object gaining a slot.
        owner: NodeId,
    },
    /// Visit (read) an object.
    Visit {
        /// Object visited.
        node: NodeId,
    },
    /// Mutate an object's non-pointer data (the 1%-on-visit modification).
    DataWrite {
        /// Object mutated.
        node: NodeId,
    },
}

impl Event {
    /// True for events that create an object.
    pub fn is_creation(&self) -> bool {
        matches!(self, Event::CreateRoot { .. } | Event::CreateChild { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let n = NodeId(3);
        assert!(Event::CreateRoot {
            node: n,
            size: Bytes(100),
            slots: 2
        }
        .is_creation());
        assert!(Event::CreateChild {
            node: n,
            parent: NodeId(0),
            parent_slot: 0,
            size: Bytes(100),
            slots: 2
        }
        .is_creation());
        assert!(!Event::AddSlot { owner: n }.is_creation());
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(9).to_string(), "n#9");
        assert_eq!(NodeId(9).index(), 9);
        assert_eq!(NodeId(9).as_usize(), 9);
    }
}
