//! The generator's private model of the forest it has built.
//!
//! The workload generator must choose live nodes to traverse and live tree
//! edges to delete **without consulting the simulated database** (otherwise
//! a recorded trace would not replay identically). The mirror records tree
//! shape — parent links, the two tree-child slots, dense-edge slots — and
//! answers the one liveness question the generator needs:
//! [`Mirror::is_attached`], "does the chain of tree edges from this node up
//! to its root still exist?"
//!
//! Note the mirror deliberately ignores dense edges for attachment: the
//! paper's traversals "are only done on the edges that constitute the
//! binary trees", and its mutations target tree edges. An object kept alive
//! only through a dense edge is invisible to the application — but very
//! much visible to the collector, which is the whole point.

use crate::event::NodeId;

/// The two tree-child slots every binary-tree node owns.
pub const TREE_SLOTS: u16 = 2;

/// Mirror bookkeeping for one node.
#[derive(Debug, Clone)]
pub struct MirrorNode {
    /// Tree this node belongs to (index into the mirror's root list).
    pub tree: u32,
    /// The tree edge pointing here: `(parent, parent's slot)`. `None` for
    /// roots. The link is *not* cleared when the edge is deleted; liveness
    /// is re-checked against the parent's slot (see [`Mirror::is_attached`]).
    pub parent: Option<(NodeId, u16)>,
    /// Tree children (slots 0 and 1).
    pub tree_children: [Option<NodeId>; 2],
    /// Dense-edge slots (database slots `2..`).
    pub extra_slots: Vec<Option<NodeId>>,
    /// Whether this node was created as a large leaf object.
    pub is_large: bool,
}

impl MirrorNode {
    /// Reads a slot by database slot index (0/1 = tree, 2+ = dense).
    pub fn slot(&self, slot: u16) -> Option<NodeId> {
        if slot < TREE_SLOTS {
            self.tree_children[slot as usize]
        } else {
            self.extra_slots
                .get((slot - TREE_SLOTS) as usize)
                .copied()
                .flatten()
        }
    }

    /// Total number of slots (tree + dense).
    pub fn slot_count(&self) -> u16 {
        TREE_SLOTS + self.extra_slots.len() as u16
    }
}

/// The forest model.
#[derive(Debug, Clone, Default)]
pub struct Mirror {
    nodes: Vec<MirrorNode>,
    roots: Vec<NodeId>,
    tree_members: Vec<Vec<NodeId>>,
}

impl Mirror {
    /// Creates an empty mirror.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of trees.
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// The root of tree `t`.
    pub fn root_of(&self, t: u32) -> NodeId {
        self.roots[t as usize]
    }

    /// All members ever created in tree `t` (attached or not).
    pub fn members_of(&self, t: u32) -> &[NodeId] {
        &self.tree_members[t as usize]
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &MirrorNode {
        &self.nodes[id.as_usize()]
    }

    /// Registers a new root; returns its id (dense, creation order).
    pub fn add_root(&mut self, is_large: bool) -> NodeId {
        let id = NodeId(self.nodes.len() as u64);
        let tree = self.roots.len() as u32;
        self.nodes.push(MirrorNode {
            tree,
            parent: None,
            tree_children: [None, None],
            extra_slots: Vec::new(),
            is_large,
        });
        self.roots.push(id);
        self.tree_members.push(vec![id]);
        id
    }

    /// Registers a child attached at `parent`'s tree slot `slot`; returns
    /// its id.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not a free tree slot.
    pub fn add_child(&mut self, parent: NodeId, slot: u16, is_large: bool) -> NodeId {
        assert!(slot < TREE_SLOTS, "children attach to tree slots");
        assert!(
            self.nodes[parent.as_usize()].tree_children[slot as usize].is_none(),
            "tree slot already occupied"
        );
        let id = NodeId(self.nodes.len() as u64);
        let tree = self.nodes[parent.as_usize()].tree;
        self.nodes.push(MirrorNode {
            tree,
            parent: Some((parent, slot)),
            tree_children: [None, None],
            extra_slots: Vec::new(),
            is_large,
        });
        self.nodes[parent.as_usize()].tree_children[slot as usize] = Some(id);
        self.tree_members[tree as usize].push(id);
        id
    }

    /// Appends a dense-edge slot to `owner`; returns the database slot
    /// index it will occupy.
    pub fn add_extra_slot(&mut self, owner: NodeId) -> u16 {
        let n = &mut self.nodes[owner.as_usize()];
        n.extra_slots.push(None);
        TREE_SLOTS + (n.extra_slots.len() - 1) as u16
    }

    /// Records a pointer store `owner.slot := value` (dense edge creation
    /// or tree edge deletion).
    pub fn set_slot(&mut self, owner: NodeId, slot: u16, value: Option<NodeId>) {
        let n = &mut self.nodes[owner.as_usize()];
        if slot < TREE_SLOTS {
            n.tree_children[slot as usize] = value;
        } else {
            n.extra_slots[(slot - TREE_SLOTS) as usize] = value;
        }
    }

    /// True if the chain of tree edges from `id` to its tree root is
    /// intact.
    pub fn is_attached(&self, id: NodeId) -> bool {
        let mut cur = id;
        loop {
            match self.nodes[cur.as_usize()].parent {
                None => return true, // reached a root
                Some((parent, slot)) => {
                    if self.nodes[parent.as_usize()].tree_children[slot as usize] != Some(cur) {
                        return false;
                    }
                    cur = parent;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_and_children_get_dense_ids() {
        let mut m = Mirror::new();
        let r = m.add_root(false);
        let a = m.add_child(r, 0, false);
        let b = m.add_child(r, 1, true);
        let c = m.add_child(a, 0, false);
        assert_eq!((r, a, b, c), (NodeId(0), NodeId(1), NodeId(2), NodeId(3)));
        assert_eq!(m.nodes.len(), 4);
        assert_eq!(m.tree_count(), 1);
        assert_eq!(m.root_of(0), r);
        assert_eq!(m.members_of(0), &[r, a, b, c]);
        assert!(m.node(b).is_large);
    }

    #[test]
    fn two_trees_are_separate() {
        let mut m = Mirror::new();
        let r1 = m.add_root(false);
        let r2 = m.add_root(false);
        let a = m.add_child(r2, 0, false);
        assert_eq!(m.tree_count(), 2);
        assert_eq!(m.node(a).tree, 1);
        assert_eq!(m.members_of(0), &[r1]);
        assert_eq!(m.members_of(1), &[r2, a]);
    }

    #[test]
    fn attachment_follows_tree_edges() {
        let mut m = Mirror::new();
        let r = m.add_root(false);
        let a = m.add_child(r, 0, false);
        let b = m.add_child(a, 1, false);
        assert!(m.is_attached(r));
        assert!(m.is_attached(b));
        // Cut r -> a.
        m.set_slot(r, 0, None);
        assert!(m.is_attached(r));
        assert!(!m.is_attached(a));
        assert!(!m.is_attached(b));
    }

    #[test]
    fn dense_edges_do_not_affect_attachment() {
        let mut m = Mirror::new();
        let r = m.add_root(false);
        let a = m.add_child(r, 0, false);
        let b = m.add_child(a, 0, false);
        // Dense edge r -> b.
        let s = m.add_extra_slot(r);
        assert_eq!(s, 2);
        m.set_slot(r, s, Some(b));
        assert_eq!(m.node(r).slot(s), Some(b));
        m.set_slot(r, 0, None); // cut r -> a
        assert!(
            !m.is_attached(b),
            "dense edges keep objects DB-live, not application-attached"
        );
    }

    #[test]
    fn slot_accessors_cover_tree_and_dense() {
        let mut m = Mirror::new();
        let r = m.add_root(false);
        let a = m.add_child(r, 1, false);
        assert_eq!(m.node(r).slot(0), None);
        assert_eq!(m.node(r).slot(1), Some(a));
        assert_eq!(m.node(r).slot(2), None, "nonexistent dense slot reads None");
        assert_eq!(m.node(r).slot_count(), 2);
        m.add_extra_slot(r);
        assert_eq!(m.node(r).slot_count(), 3);
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn double_attach_panics() {
        let mut m = Mirror::new();
        let r = m.add_root(false);
        m.add_child(r, 0, false);
        m.add_child(r, 0, false);
    }
}
