//! An object's pointer slots, held in the record itself.
//!
//! Every object is born a two-slot tree node and 92% stay one (both
//! benchmark workloads: 7.7% later gain a dense edge), so [`Slots`] keeps
//! two slots inline — creating or reclaiming such an object never calls the
//! allocator — and spills to a heap buffer only for objects created wider
//! or grown by `add_slot`. A [`Slot`] is 8 bytes (`u64::MAX` = null: oids
//! count up from 0 and never reach it); the whole set is 24.

use pgc_types::Oid;
use std::ops::{Deref, DerefMut};

const INLINE_SLOTS: usize = 2;

/// One pointer slot: `Option<Oid>` in 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u64);

impl Slot {
    /// The null pointer.
    pub const NULL: Slot = Slot(u64::MAX);

    /// The slot's value.
    pub fn get(self) -> Option<Oid> {
        (self.0 != u64::MAX).then_some(Oid(self.0))
    }
}

impl From<Option<Oid>> for Slot {
    fn from(value: Option<Oid>) -> Self {
        value.map_or(Slot::NULL, |oid| Slot(oid.index()))
    }
}

/// A growable run of [`Slot`]s; derefs to `[Slot]`.
#[derive(Debug, Clone)]
pub struct Slots(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Inline {
        len: u8,
        slots: [Slot; INLINE_SLOTS],
    },
    /// `buf[..len]` are the slots; the rest is spare capacity.
    Spilled { len: u32, buf: Box<[Slot]> },
}

impl Slots {
    /// `count` null slots.
    pub(crate) fn nulls(count: usize) -> Self {
        Slots(if count <= INLINE_SLOTS {
            Repr::Inline {
                len: count as u8,
                slots: [Slot::NULL; INLINE_SLOTS],
            }
        } else {
            Repr::Spilled {
                len: u32::try_from(count).expect("slot count fits u32"),
                buf: vec![Slot::NULL; count].into_boxed_slice(),
            }
        })
    }

    /// Appends one slot.
    pub(crate) fn push(&mut self, slot: Slot) {
        let len = self.len();
        match &mut self.0 {
            Repr::Inline { len: n, slots } if len < INLINE_SLOTS => {
                slots[len] = slot;
                *n += 1;
            }
            Repr::Spilled { len: n, buf } if len < buf.len() => {
                buf[len] = slot;
                *n += 1;
            }
            _ => {
                let mut buf = vec![Slot::NULL; (len * 2).max(2 * INLINE_SLOTS)];
                buf[..len].copy_from_slice(self);
                buf[len] = slot;
                self.0 = Repr::Spilled {
                    len: u32::try_from(len + 1).expect("slot count fits u32"),
                    buf: buf.into_boxed_slice(),
                };
            }
        }
    }

    /// The non-null targets, in slot order.
    pub(crate) fn targets(&self) -> impl Iterator<Item = Oid> + '_ {
        self.iter().filter_map(|slot| slot.get())
    }
}

/// How a restored record gets its slots back.
impl FromIterator<Slot> for Slots {
    fn from_iter<I: IntoIterator<Item = Slot>>(iter: I) -> Self {
        let mut slots = Slots::nulls(0);
        for slot in iter {
            slots.push(slot);
        }
        slots
    }
}

impl Deref for Slots {
    type Target = [Slot];

    fn deref(&self) -> &[Slot] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..usize::from(*len)],
            Repr::Spilled { len, buf } => &buf[..*len as usize],
        }
    }
}

impl DerefMut for Slots {
    fn deref_mut(&mut self) -> &mut [Slot] {
        match &mut self.0 {
            Repr::Inline { len, slots } => &mut slots[..usize::from(*len)],
            Repr::Spilled { len, buf } => &mut buf[..*len as usize],
        }
    }
}
