//! The synthetic application (Sec. 5): an `Iterator<Item = Event>`.
//!
//! Each *round* interleaves the three application behaviours the paper
//! models, so the database grows, is traversed, and sheds garbage
//! continuously over the whole run (the time-varying figures depend on
//! this):
//!
//! 1. **Build** one augmented binary tree (if the allocation target is not
//!    yet met): a random binary tree emitted in breadth-first creation
//!    order (matching the paper's placement discipline), with uniform
//!    50–150-byte objects, occasional 64 KB large leaves, and
//!    `dense_edge_fraction · n` dense edges between random nodes of the
//!    same tree.
//! 2. **Traverse**: `traversals_per_round` partial tree traversals — per
//!    tree 30% none / 20% depth-first / 50% breadth-first, 5% chance per
//!    edge of skipping the subtree, 1% chance per visit of a data write.
//! 3. **Mutate**: `deletions_per_round` random tree-edge deletions — the
//!    workload's only pointer overwrites, hence the GC trigger events.
//!
//! The generator is deterministic in its seed and never inspects the
//! simulated database, so recording its output and replaying the trace
//! drives every policy with identical input.

use crate::block::{EventBlock, BLOCK_EVENTS};
use crate::event::{Event, NodeId};
use crate::mirror::{Mirror, TREE_SLOTS};
use crate::params::WorkloadParams;
use pgc_types::{Bytes, SimRng};
use std::collections::VecDeque;

/// Diagnostic counters for a generated workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Trees built.
    pub trees_built: u64,
    /// Objects created (roots + children).
    pub nodes_created: u64,
    /// Of those, large (64 KB-class) leaves.
    pub large_objects: u64,
    /// Bytes allocated.
    pub bytes_allocated: Bytes,
    /// Dense edges threaded.
    pub dense_edges: u64,
    /// Tree edges deleted (pointer overwrites).
    pub deletions: u64,
    /// Objects visited.
    pub visits: u64,
    /// Data writes performed.
    pub data_writes: u64,
}

/// The synthetic workload generator.
///
/// ```
/// use pgc_workload::{SyntheticWorkload, WorkloadParams};
///
/// let params = WorkloadParams::small().with_seed(7);
/// let mut gen = SyntheticWorkload::new(params).unwrap();
/// let events: Vec<_> = gen.by_ref().collect();
/// assert!(!events.is_empty());
/// let stats = gen.stats();
/// assert!(stats.bytes_allocated >= gen.params().target_allocated);
/// assert!(stats.deletions > 0, "garbage was generated");
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    params: WorkloadParams,
    rng: SimRng,
    mirror: Mirror,
    pending: VecDeque<Event>,
    stats: GenStats,
    done: bool,
}

impl SyntheticWorkload {
    /// Creates a generator for the given parameters (validated).
    pub fn new(params: WorkloadParams) -> pgc_types::Result<Self> {
        params.validate()?;
        let rng = SimRng::new(params.seed);
        Ok(Self {
            params,
            rng,
            mirror: Mirror::new(),
            pending: VecDeque::new(),
            stats: GenStats::default(),
            done: false,
        })
    }

    /// The generator's private forest model (read-only; used by tests).
    pub fn mirror(&self) -> &Mirror {
        &self.mirror
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> GenStats {
        self.stats
    }

    /// The parameters this generator runs under.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// Clears `block` and fills it with the next [`BLOCK_EVENTS`] events
    /// (fewer at the end), returning how many — `0` once the workload is
    /// spent: the generator's side of [`crate::TraceCursor::next_block`].
    pub fn next_block(&mut self, block: &mut EventBlock) -> usize {
        block.clear();
        self.by_ref()
            .take(BLOCK_EVENTS)
            .for_each(|e| block.push(&e));
        block.len()
    }

    // -----------------------------------------------------------------
    // Round structure
    // -----------------------------------------------------------------

    fn round(&mut self) {
        if self.stats.bytes_allocated >= self.params.target_allocated {
            self.done = true;
            return;
        }
        self.build_tree();
        for _ in 0..self.params.traversals_per_round {
            self.traverse_one();
        }
        for _ in 0..self.params.deletions_per_round {
            self.delete_one_edge();
        }
    }

    // -----------------------------------------------------------------
    // Tree construction
    // -----------------------------------------------------------------

    fn build_tree(&mut self) {
        let n = self
            .rng
            .range_inclusive(self.params.tree_nodes_min, self.params.tree_nodes_max)
            as usize;

        // 1. Random binary tree shape: attach node i to a uniformly random
        //    free child slot of the existing nodes.
        let mut children: Vec<[Option<usize>; 2]> = vec![[None; 2]; n];
        let mut open_slots: Vec<(usize, usize)> = vec![(0, 0), (0, 1)];
        for i in 1..n {
            let k = self.rng.pick_index(open_slots.len());
            let (p, s) = open_slots.swap_remove(k);
            children[p][s] = Some(i);
            open_slots.push((i, 0));
            open_slots.push((i, 1));
        }

        // 2. Emit creations in breadth-first order (the paper's placement
        //    order), left child before right. Leaves are the nodes with no
        //    children in the shape.
        let p_large = self.params.large_leaf_probability();
        let root_size = self.small_size();
        let root_id = self.mirror.add_root();
        self.emit_creation(
            Event::CreateRoot {
                node: root_id,
                size: root_size,
                slots: TREE_SLOTS,
            },
            root_size,
        );

        let mut queue: VecDeque<(usize, NodeId)> = VecDeque::from([(0, root_id)]);
        while let Some((i, parent_id)) = queue.pop_front() {
            for (slot, c) in (0..TREE_SLOTS).zip(children[i]) {
                let Some(c) = c else { continue };
                let is_large = children[c] == [None; 2] && self.rng.chance(p_large);
                let size = if is_large {
                    Bytes(self.params.large_object_size)
                } else {
                    self.small_size()
                };
                let child_id = self.mirror.add_child(parent_id, slot);
                if is_large {
                    self.stats.large_objects += 1;
                }
                self.emit_creation(
                    Event::CreateChild {
                        node: child_id,
                        parent: parent_id,
                        parent_slot: slot,
                        size,
                        slots: TREE_SLOTS,
                    },
                    size,
                );
                queue.push_back((c, child_id));
            }
        }

        // 3. Dense edges between random nodes of this tree.
        let dense = (self.params.dense_edge_fraction * n as f64).round() as usize;
        let tree = (self.mirror.tree_count() - 1) as u32;
        for _ in 0..dense {
            let a = self.pick_member(tree);
            let b = self.pick_member(tree);
            let slot = self.mirror.add_dense_slot(a);
            self.pending.push_back(Event::AddSlot { owner: a });
            self.pending.push_back(Event::WritePointer {
                owner: a,
                slot,
                new: Some(b),
            });
            self.stats.dense_edges += 1;
        }
        self.stats.trees_built += 1;
    }

    fn small_size(&mut self) -> Bytes {
        Bytes(
            self.rng
                .range_inclusive(self.params.object_size_min, self.params.object_size_max),
        )
    }

    /// Queues a creation event for an object of `size` bytes.
    fn emit_creation(&mut self, event: Event, size: Bytes) {
        self.stats.nodes_created += 1;
        self.stats.bytes_allocated += size;
        self.pending.push_back(event);
    }

    /// A uniformly random member of tree `tree`, attached or not.
    fn pick_member(&mut self, tree: u32) -> NodeId {
        let members = self.mirror.members_of(tree);
        NodeId(u64::from(members.start) + self.rng.pick_index(members.len()) as u64)
    }

    // -----------------------------------------------------------------
    // Traversal
    // -----------------------------------------------------------------

    fn traverse_one(&mut self) {
        if self.mirror.tree_count() == 0 {
            return;
        }
        let tree = self.rng.pick_index(self.mirror.tree_count()) as u32;
        let roll = self.rng.unit();
        if roll < self.params.p_no_traversal {
            return;
        }
        let depth_first = roll < self.params.p_no_traversal + self.params.p_depth_first;
        let root = self.mirror.root_of(tree);

        // Work list: stack for DFS, queue for BFS.
        let mut work: VecDeque<NodeId> = VecDeque::from([root]);
        while let Some(node) = if depth_first {
            work.pop_back()
        } else {
            work.pop_front()
        } {
            self.pending.push_back(Event::Visit { node });
            self.stats.visits += 1;
            if self.rng.chance(self.params.p_modify_on_visit) {
                self.pending.push_back(Event::DataWrite { node });
                self.stats.data_writes += 1;
            }
            for child in self.mirror.children(node).into_iter().flatten() {
                if !self.rng.chance(self.params.p_skip_edge) {
                    work.push_back(child);
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Mutation (garbage generation)
    // -----------------------------------------------------------------

    fn delete_one_edge(&mut self) {
        const ATTEMPTS: usize = 24;
        if self.mirror.tree_count() == 0 {
            return;
        }
        for _ in 0..ATTEMPTS {
            let tree = self.rng.pick_index(self.mirror.tree_count()) as u32;
            let candidate = self.pick_member(tree);
            if !self.mirror.is_attached(candidate) {
                continue;
            }
            let [left, right] = self.mirror.children(candidate).map(|c| c.is_some());
            if !(left || right) {
                continue;
            }
            // A uniform pick among the filled slots.
            let k = self.rng.pick_index(usize::from(left) + usize::from(right)) as u16;
            let slot = if left { k } else { 1 };
            self.mirror.cut(candidate, slot);
            self.pending.push_back(Event::WritePointer {
                owner: candidate,
                slot,
                new: None,
            });
            self.stats.deletions += 1;
            return;
        }
        // All attempts hit detached or childless nodes; skip this deletion.
    }
}

impl Iterator for SyntheticWorkload {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        loop {
            if let Some(e) = self.pending.pop_front() {
                return Some(e);
            }
            if self.done {
                return None;
            }
            self.round();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::tests::reaches;

    fn small() -> WorkloadParams {
        WorkloadParams::small().with_seed(11)
    }

    #[test]
    fn generator_terminates_and_meets_allocation_target() {
        let mut g = SyntheticWorkload::new(small()).unwrap();
        let events: Vec<Event> = g.by_ref().collect();
        assert!(!events.is_empty());
        let s = g.stats();
        assert!(s.bytes_allocated >= g.params().target_allocated);
        assert!(s.trees_built >= 1);
        assert!(s.deletions > 0, "garbage must be generated");
        assert!(s.visits > 0, "database must be traversed");
    }

    #[test]
    fn creation_ids_are_dense_and_in_order() {
        let g = SyntheticWorkload::new(small()).unwrap();
        let mut expected = 0u64;
        for e in g {
            match e {
                Event::CreateRoot { node, .. } | Event::CreateChild { node, .. } => {
                    assert_eq!(node.index(), expected, "creation order must be dense");
                    expected += 1;
                }
                _ => {}
            }
        }
        assert!(expected > 0);
    }

    #[test]
    fn parents_are_created_before_children_and_events_reference_created_nodes() {
        let g = SyntheticWorkload::new(small()).unwrap();
        let mut created = 0u64;
        for e in g {
            match e {
                Event::CreateRoot { node, .. } => {
                    assert_eq!(node.index(), created);
                    created += 1;
                }
                Event::CreateChild { node, parent, .. } => {
                    assert!(parent.index() < created, "parent must exist");
                    assert_eq!(node.index(), created);
                    created += 1;
                }
                Event::WritePointer { owner, new, .. } => {
                    assert!(owner.index() < created);
                    if let Some(t) = new {
                        assert!(t.index() < created);
                    }
                }
                Event::AddSlot { owner } => assert!(owner.index() < created),
                Event::Visit { node } | Event::DataWrite { node } => {
                    assert!(node.index() < created)
                }
            }
        }
    }

    #[test]
    fn same_seed_reproduces_identical_traces() {
        let a: Vec<Event> = SyntheticWorkload::new(small()).unwrap().collect();
        let b: Vec<Event> = SyntheticWorkload::new(small()).unwrap().collect();
        assert_eq!(a, b);
        let c: Vec<Event> = SyntheticWorkload::new(small().with_seed(12))
            .unwrap()
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn read_write_ratio_lands_near_paper_band() {
        // Paper: edge read/write ratio ~15–20, "not explicitly specified
        // but rather results from the probabilities of operations". We
        // measure edge reads (visits follow tree edges) against the
        // application's edge *updates* (dense-edge stores and deletions;
        // creation-time initialization is part of building the database,
        // not of mutating it).
        let mut g = SyntheticWorkload::new(
            WorkloadParams::default()
                .with_seed(3)
                .with_target_allocated(Bytes::from_mib(2)),
        )
        .unwrap();
        for _ in g.by_ref() {}
        let s = g.stats();
        let edge_updates = s.dense_edges + s.deletions;
        let ratio = s.visits as f64 / edge_updates as f64;
        assert!((10.0..32.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn large_objects_contribute_roughly_a_fifth_of_bytes() {
        let mut g = SyntheticWorkload::new(
            WorkloadParams::default()
                .with_seed(5)
                .with_target_allocated(Bytes::from_mib(4)),
        )
        .unwrap();
        for _ in g.by_ref() {}
        let s = g.stats();
        let large_bytes = s.large_objects * g.params().large_object_size;
        let frac = large_bytes as f64 / s.bytes_allocated.get() as f64;
        assert!(
            (0.08..0.35).contains(&frac),
            "large-object byte fraction = {frac}"
        );
    }

    #[test]
    fn dense_edges_track_fraction() {
        let mut g = SyntheticWorkload::new(
            WorkloadParams::small()
                .with_seed(7)
                .with_dense_edge_fraction(0.1),
        )
        .unwrap();
        for _ in g.by_ref() {}
        let s = g.stats();
        let per_node = s.dense_edges as f64 / s.nodes_created as f64;
        assert!((0.05..0.15).contains(&per_node), "dense/node = {per_node}");
    }

    #[test]
    fn zero_dense_fraction_builds_pure_trees() {
        let mut g = SyntheticWorkload::new(
            WorkloadParams::small()
                .with_seed(9)
                .with_dense_edge_fraction(0.0),
        )
        .unwrap();
        for _ in g.by_ref() {}
        assert_eq!(g.stats().dense_edges, 0);
    }

    #[test]
    fn deletions_only_cut_tree_slots_of_attached_nodes() {
        // Re-run the event stream checking every deletion and visit against
        // breadth-first reachability over a forest rebuilt from the events
        // themselves, independently of the generator's mirror.
        let g = SyntheticWorkload::new(small()).unwrap();
        let mut kids: Vec<[Option<NodeId>; 2]> = Vec::new();
        let mut root_of: Vec<NodeId> = Vec::new();
        for e in g {
            match e {
                Event::CreateRoot { node, .. } => {
                    kids.push([None; 2]);
                    root_of.push(node);
                }
                Event::CreateChild {
                    node,
                    parent,
                    parent_slot,
                    ..
                } => {
                    kids.push([None; 2]);
                    root_of.push(root_of[parent.as_usize()]);
                    kids[parent.as_usize()][parent_slot as usize] = Some(node);
                }
                Event::AddSlot { .. } => {}
                Event::WritePointer { owner, slot, new } => {
                    if slot < TREE_SLOTS {
                        assert!(new.is_none(), "tree slots are only ever cleared");
                        assert!(
                            kids[owner.as_usize()][slot as usize].take().is_some(),
                            "deletion of an already-empty slot"
                        );
                        assert!(
                            reaches(&kids, root_of[owner.as_usize()], owner),
                            "deletion from detached node"
                        );
                    }
                }
                Event::Visit { node } | Event::DataWrite { node } => {
                    assert!(
                        reaches(&kids, root_of[node.as_usize()], node),
                        "visited a detached node"
                    );
                }
            }
        }
    }
}
