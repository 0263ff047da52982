//! The generator's private model of the forest it has built.
//!
//! The workload generator must choose live nodes to traverse and live tree
//! edges to delete **without consulting the simulated database** (otherwise
//! a recorded trace would not replay identically). The mirror records tree
//! shape — the two tree-child slots and a count of dense-edge slots per
//! node — and answers the one liveness question the generator needs:
//! [`Mirror::is_attached`], "does the chain of tree edges from this node up
//! to its root still exist?"
//!
//! The answer is a stored flag, not a walk. Tree slots are filled only
//! while a tree is built and are afterwards only ever cleared, so
//! detachment is monotone: [`Mirror::cut`] clears the flag on the cut
//! child's remaining subtree when the owner was attached, and each node is
//! detached at most once per run. A node is 12 bytes (two `u32` children,
//! a `u16` dense-slot count, the flag) in one `Vec`, and a tree's ids are
//! contiguous, so its members are a range rather than a list.
//!
//! Note the mirror deliberately ignores dense edges for attachment: the
//! paper's traversals "are only done on the edges that constitute the
//! binary trees", and its mutations target tree edges. An object kept alive
//! only through a dense edge is invisible to the application — but very
//! much visible to the collector, which is the whole point. The generator
//! never reads a dense slot's target, so the mirror does not store it.

use crate::event::NodeId;
use std::ops::Range;

/// The two tree-child slots every binary-tree node owns.
pub const TREE_SLOTS: u16 = 2;

/// An empty tree slot.
const NO_CHILD: u32 = u32::MAX;

/// Mirror bookkeeping for one node: 12 bytes. Keep it there — see
/// DESIGN §4 for what a larger node did to the benchmark's peak RSS.
#[derive(Debug, Clone, Copy)]
struct MirrorNode {
    /// Tree children (slots 0 and 1), [`NO_CHILD`] when empty.
    children: [u32; 2],
    /// Dense-edge slots (database slots `2..`).
    dense_slots: u16,
    /// Whether the chain of tree edges up to the root is intact.
    attached: bool,
}

/// The forest model.
#[derive(Debug, Clone, Default)]
pub struct Mirror {
    nodes: Vec<MirrorNode>,
    /// The first (root) id of every tree, in creation order.
    roots: Vec<u32>,
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
        NodeId(self.roots[t as usize].into())
    }

    /// The ids of every member ever created in tree `t` (attached or not):
    /// `NodeId(i)` for each `i` in the range.
    pub fn members_of(&self, t: u32) -> Range<u32> {
        let t = t as usize;
        let end = self
            .roots
            .get(t + 1)
            .copied()
            .unwrap_or(self.nodes.len() as u32);
        self.roots[t]..end
    }

    /// The tree children of `id` (slots 0 and 1).
    pub fn children(&self, id: NodeId) -> [Option<NodeId>; 2] {
        self.nodes[id.as_usize()]
            .children
            .map(|c| (c != NO_CHILD).then(|| NodeId(c.into())))
    }

    /// Registers a new root, starting a new tree; returns its id (dense,
    /// creation order).
    pub fn add_root(&mut self) -> NodeId {
        let id = self.push(true);
        self.roots.push(id);
        NodeId(id.into())
    }

    /// Registers a child attached at `parent`'s tree slot `slot` (0 or 1);
    /// returns its id.
    ///
    /// # Panics
    ///
    /// Panics unless the slot is a free tree slot of a node of the newest
    /// tree: a tree's ids must stay contiguous.
    pub fn add_child(&mut self, parent: NodeId, slot: u16) -> NodeId {
        let newest = self.roots.last().map_or(0, |&r| u64::from(r));
        let p = self.nodes[parent.as_usize()];
        assert!(
            parent.0 >= newest && p.children[usize::from(slot)] == NO_CHILD,
            "tree slot already occupied, or not in the newest tree"
        );
        let id = self.push(p.attached);
        self.nodes[parent.as_usize()].children[usize::from(slot)] = id;
        NodeId(id.into())
    }

    fn push(&mut self, attached: bool) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(MirrorNode {
            children: [NO_CHILD; 2],
            dense_slots: 0,
            attached,
        });
        id
    }

    /// Appends a dense-edge slot to `owner`; returns the database slot
    /// index it will occupy.
    pub fn add_dense_slot(&mut self, owner: NodeId) -> u16 {
        let n = &mut self.nodes[owner.as_usize()];
        n.dense_slots += 1;
        TREE_SLOTS + n.dense_slots - 1
    }

    /// Records the deletion of the tree edge in `owner`'s slot `slot` (0 or
    /// 1). If `owner` is attached, every node of the cut subtree is
    /// detached; otherwise they already were.
    pub fn cut(&mut self, owner: NodeId, slot: u16) {
        let o = &mut self.nodes[owner.as_usize()];
        let child = std::mem::replace(&mut o.children[usize::from(slot)], NO_CHILD);
        if child == NO_CHILD || !o.attached {
            return;
        }
        let mut stack = vec![child];
        while let Some(n) = stack.pop() {
            let n = &mut self.nodes[n as usize];
            n.attached = false;
            stack.extend(n.children.into_iter().filter(|&c| c != NO_CHILD));
        }
    }

    /// True if the chain of tree edges from `id` to its tree root is
    /// intact.
    pub fn is_attached(&self, id: NodeId) -> bool {
        self.nodes[id.as_usize()].attached
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pgc_types::SimRng;
    use std::collections::VecDeque;

    /// Breadth-first search from `root` over tree slots: whether `target`
    /// is reachable. The oracle [`Mirror::is_attached`] must agree with;
    /// `kids[i]` are node `i`'s tree children.
    pub(crate) fn reaches(kids: &[[Option<NodeId>; 2]], root: NodeId, target: NodeId) -> bool {
        let mut queue = VecDeque::from([root]);
        while let Some(n) = queue.pop_front() {
            if n == target {
                return true;
            }
            queue.extend(kids[n.as_usize()].into_iter().flatten());
        }
        false
    }

    fn ids(r: Range<u32>) -> Vec<NodeId> {
        r.map(|i| NodeId(i.into())).collect()
    }

    #[test]
    fn roots_and_children_get_dense_ids() {
        let mut m = Mirror::new();
        let r = m.add_root();
        let a = m.add_child(r, 0);
        let b = m.add_child(r, 1);
        let c = m.add_child(a, 0);
        assert_eq!((r, a, b, c), (NodeId(0), NodeId(1), NodeId(2), NodeId(3)));
        assert_eq!(m.nodes.len(), 4);
        assert_eq!(m.tree_count(), 1);
        assert_eq!(m.root_of(0), r);
        assert_eq!(ids(m.members_of(0)), [r, a, b, c]);
        assert_eq!(size_of::<MirrorNode>(), 12);
    }

    #[test]
    fn two_trees_are_separate() {
        let mut m = Mirror::new();
        let r1 = m.add_root();
        let r2 = m.add_root();
        let a = m.add_child(r2, 0);
        assert_eq!(m.tree_count(), 2);
        assert_eq!(ids(m.members_of(0)), [r1]);
        assert_eq!(ids(m.members_of(1)), [r2, a]);
    }

    #[test]
    fn attachment_follows_tree_edges() {
        let mut m = Mirror::new();
        let r = m.add_root();
        let a = m.add_child(r, 0);
        let b = m.add_child(a, 1);
        assert!(m.is_attached(r));
        assert!(m.is_attached(b));
        m.cut(r, 0);
        assert!(m.is_attached(r));
        assert!(!m.is_attached(a));
        assert!(!m.is_attached(b));
    }

    #[test]
    fn dense_edges_do_not_affect_attachment() {
        let mut m = Mirror::new();
        let r = m.add_root();
        let a = m.add_child(r, 0);
        let b = m.add_child(a, 0);
        // A dense slot on r (pointing at b in the database).
        assert_eq!(m.add_dense_slot(r), 2);
        m.cut(r, 0);
        assert!(
            !m.is_attached(b),
            "dense edges keep objects DB-live, not application-attached"
        );
    }

    #[test]
    fn slot_accessors_cover_tree_and_dense() {
        let mut m = Mirror::new();
        let r = m.add_root();
        let a = m.add_child(r, 1);
        assert_eq!(m.children(r), [None, Some(a)]);
        assert_eq!(m.add_dense_slot(r), 2);
        assert_eq!(m.add_dense_slot(r), 3);
        assert_eq!(m.add_dense_slot(a), 2);
        assert_eq!(
            m.children(r),
            [None, Some(a)],
            "dense slots are not tree slots"
        );
        m.cut(r, 1);
        assert_eq!(m.children(r), [None, None]);
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn double_attach_panics() {
        let mut m = Mirror::new();
        let r = m.add_root();
        m.add_child(r, 0);
        m.add_child(r, 0);
    }

    #[test]
    #[should_panic(expected = "newest tree")]
    fn a_child_joins_only_the_newest_tree() {
        let mut m = Mirror::new();
        let r1 = m.add_root();
        m.add_root();
        m.add_child(r1, 0);
    }

    #[test]
    fn attachment_matches_reachability_after_every_cut() {
        for seed in 0..24 {
            let mut rng = SimRng::new(seed);
            let mut m = Mirror::new();
            let mut root_of = Vec::new();
            for _ in 0..1 + rng.below(5) {
                let root = m.add_root();
                root_of.push(root);
                let mut open = vec![(root, 0), (root, 1)];
                for _ in 0..rng.below(60) {
                    let (p, s) = open.swap_remove(rng.pick_index(open.len()));
                    let c = m.add_child(p, s);
                    root_of.push(root);
                    open.extend([(c, 0), (c, 1)]);
                }
            }
            let all = ids(0..m.nodes.len() as u32);
            let mut was_attached = vec![true; all.len()];
            for _ in 0..80 {
                m.cut(*rng.pick(&all), rng.below(2) as u16);
                let kids: Vec<_> = all.iter().map(|&n| m.children(n)).collect();
                for &n in &all {
                    let attached = m.is_attached(n);
                    let oracle = reaches(&kids, root_of[n.as_usize()], n);
                    assert_eq!(attached, oracle, "seed {seed}: node {n}");
                    assert!(
                        was_attached[n.as_usize()] || !attached,
                        "seed {seed}: node {n} reattached"
                    );
                    was_attached[n.as_usize()] = attached;
                }
            }
        }
    }
}
