//! Object weights for the `WeightedPointer` policy (Sec. 3.1).
//!
//! Each object carries a small weight approximating its distance from the
//! database roots: *"an object's weight is one plus the minimum of the
//! weights of the edges pointing to it"*, with roots at weight 1 and a cap
//! of 16 (4 bits in the paper). When a pointer store gives an object a
//! shorter path from a root, the improvement is propagated transitively to
//! its descendants.
//!
//! Matching the paper, weights only ever *decrease*: deleting the edge that
//! justified a weight does not restore a larger one. The weight is a cheap,
//! monotone approximation — exactly the property the paper's cost argument
//! relies on (bounded propagation, 4 bits of state).

use crate::storage::ObjectTable;
use pgc_types::{Oid, Result};
use std::collections::VecDeque;

/// The weight assigned to database root objects.
pub const ROOT_WEIGHT: u8 = 1;

/// Clamps a tentative weight to the configured maximum.
#[inline]
pub(crate) fn cap(weight: u16, max_weight: u8) -> u8 {
    weight.min(max_weight as u16) as u8
}

/// The weight a new child reached through `parent_weight` should get.
#[inline]
pub(crate) fn child_weight(parent_weight: u8, max_weight: u8) -> u8 {
    cap(parent_weight as u16 + 1, max_weight)
}

/// Applies the weight rule for a newly stored edge `from -> to` and
/// propagates any decrease transitively. Returns the number of objects
/// whose weight changed.
///
/// Propagation terminates because weights are positive integers that only
/// decrease; each object can be improved at most `max_weight - 1` times
/// over its lifetime.
pub(crate) fn note_edge(
    table: &mut ObjectTable,
    from: Oid,
    to: Oid,
    max_weight: u8,
) -> Result<usize> {
    let from_weight = table.get(from)?.weight;
    let candidate = child_weight(from_weight, max_weight);
    let to_rec = table.get(to)?;
    if candidate >= to_rec.weight {
        return Ok(0);
    }
    table.get_mut(to)?.weight = candidate;
    let mut changed = 1usize;
    let mut queue: VecDeque<Oid> = VecDeque::new();
    queue.push_back(to);
    while let Some(o) = queue.pop_front() {
        let cand = child_weight(table.get(o)?.weight, max_weight);
        // By index: the loop body mutates other records of the table.
        let mut next = 0;
        while let Some(slot) = table.get(o)?.slots.get(next).copied() {
            next += 1;
            let Some(target) = slot.get() else { continue };
            // Targets can have died between enqueue and visit only if the
            // caller mutates the table mid-propagation, which it does not;
            // still, skip unknown targets defensively.
            let Ok(rec) = table.get_mut(target) else {
                continue;
            };
            if cand < rec.weight {
                rec.weight = cand;
                changed += 1;
                queue.push_back(target);
            }
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ObjAddr, ObjectRecord, Slots};
    use pgc_types::{Bytes, PartitionId};

    const MAX: u8 = 16;

    /// Builds a table of `n` objects with 3 slots each, all weight `w`.
    fn table(n: u64, w: u8) -> (ObjectTable, Vec<Oid>) {
        let mut t = ObjectTable::new();
        let mut oids = Vec::new();
        for i in 0..n {
            let oid = t.reserve_oid();
            t.register(
                oid,
                ObjectRecord {
                    addr: ObjAddr::new(PartitionId(0), i * 100),
                    size: Bytes(100),
                    slots: Slots::nulls(3),
                    weight: w,
                },
            );
            oids.push(oid);
        }
        (t, oids)
    }

    fn link(t: &mut ObjectTable, from: Oid, slot: usize, to: Oid) {
        t.get_mut(from).unwrap().slots[slot] = Some(to).into();
    }

    #[test]
    fn helpers_cap_at_max() {
        assert_eq!(child_weight(1, MAX), 2);
        assert_eq!(child_weight(15, MAX), 16);
        assert_eq!(child_weight(16, MAX), 16);
        assert_eq!(cap(100, MAX), 16);
    }

    #[test]
    fn edge_from_light_parent_lowers_target() {
        let (mut t, o) = table(2, 10);
        t.get_mut(o[0]).unwrap().weight = ROOT_WEIGHT;
        link(&mut t, o[0], 0, o[1]);
        let changed = note_edge(&mut t, o[0], o[1], MAX).unwrap();
        assert_eq!(changed, 1);
        assert_eq!(t.get(o[1]).unwrap().weight, 2);
    }

    #[test]
    fn edge_from_heavy_parent_changes_nothing() {
        let (mut t, o) = table(2, 3);
        link(&mut t, o[0], 0, o[1]);
        // candidate = 4 >= current 3
        assert_eq!(note_edge(&mut t, o[0], o[1], MAX).unwrap(), 0);
        assert_eq!(t.get(o[1]).unwrap().weight, 3);
    }

    #[test]
    fn decrease_propagates_down_a_chain() {
        // o0(w=1) -> o1(w=9) -> o2(w=10) -> o3(w=11)
        let (mut t, o) = table(4, 0);
        for (i, w) in [1u8, 9, 10, 11].into_iter().enumerate() {
            t.get_mut(o[i]).unwrap().weight = w;
        }
        link(&mut t, o[0], 0, o[1]);
        link(&mut t, o[1], 0, o[2]);
        link(&mut t, o[2], 0, o[3]);
        let changed = note_edge(&mut t, o[0], o[1], MAX).unwrap();
        assert_eq!(changed, 3);
        assert_eq!(t.get(o[1]).unwrap().weight, 2);
        assert_eq!(t.get(o[2]).unwrap().weight, 3);
        assert_eq!(t.get(o[3]).unwrap().weight, 4);
    }

    #[test]
    fn propagation_stops_where_no_improvement() {
        // o0(1) -> o1(9) -> o2(2): o2 already better than 3.
        let (mut t, o) = table(3, 0);
        for (i, w) in [1u8, 9, 2].into_iter().enumerate() {
            t.get_mut(o[i]).unwrap().weight = w;
        }
        link(&mut t, o[0], 0, o[1]);
        link(&mut t, o[1], 0, o[2]);
        let changed = note_edge(&mut t, o[0], o[1], MAX).unwrap();
        assert_eq!(changed, 1);
        assert_eq!(t.get(o[2]).unwrap().weight, 2);
    }

    #[test]
    fn cycles_terminate() {
        // o0(1) -> o1(9) -> o2(9) -> o1 (cycle between 1 and 2).
        let (mut t, o) = table(3, 9);
        t.get_mut(o[0]).unwrap().weight = 1;
        link(&mut t, o[0], 0, o[1]);
        link(&mut t, o[1], 0, o[2]);
        link(&mut t, o[2], 0, o[1]);
        let changed = note_edge(&mut t, o[0], o[1], MAX).unwrap();
        assert_eq!(changed, 2);
        assert_eq!(t.get(o[1]).unwrap().weight, 2);
        assert_eq!(t.get(o[2]).unwrap().weight, 3);
    }

    #[test]
    fn weights_saturate_at_max() {
        let (mut t, o) = table(2, 16);
        t.get_mut(o[0]).unwrap().weight = 16;
        link(&mut t, o[0], 0, o[1]);
        assert_eq!(note_edge(&mut t, o[0], o[1], MAX).unwrap(), 0);
        assert_eq!(t.get(o[1]).unwrap().weight, 16);
    }

    #[test]
    fn paper_figure_3_example() {
        // Figure 3: A(w=1) -> B(w=2) -> C(w=3); A -> E? The figure shows a
        // small DAG; we reproduce the chain part: after linking a root to a
        // fresh subtree, weights are 1, 2, 3 along the path.
        let (mut t, o) = table(3, 16);
        t.get_mut(o[0]).unwrap().weight = ROOT_WEIGHT;
        link(&mut t, o[0], 0, o[1]);
        link(&mut t, o[1], 0, o[2]);
        note_edge(&mut t, o[0], o[1], MAX).unwrap();
        assert_eq!(t.get(o[0]).unwrap().weight, 1);
        assert_eq!(t.get(o[1]).unwrap().weight, 2);
        assert_eq!(t.get(o[2]).unwrap().weight, 3);
        // The exponential score of overwriting the A->B pointer is 2^(16-2).
        let w = t.get(o[1]).unwrap().weight;
        assert_eq!(1u64 << (16 - w as u32), 16384);
    }

    #[test]
    fn unknown_objects_error() {
        let (mut t, o) = table(1, 5);
        assert!(note_edge(&mut t, o[0], Oid(999), MAX).is_err());
        assert!(note_edge(&mut t, Oid(999), o[0], MAX).is_err());
    }
}
