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
    #[inline]
    pub fn get(self) -> Option<Oid> {
        (self.0 != u64::MAX).then_some(Oid(self.0))
    }
}

impl From<Option<Oid>> for Slot {
    #[inline]
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

    /// `count` slots, each the next `slot` reads, or its first `Err`: how a
    /// restored record gets its slots back, up to two straight inline.
    #[inline(always)]
    pub fn read<E>(count: u32, mut slot: impl FnMut() -> Result<Slot, E>) -> Result<Self, E> {
        if count as usize <= INLINE_SLOTS {
            let mut slots = [Slot::NULL; INLINE_SLOTS];
            for s in &mut slots[..count as usize] {
                *s = slot()?;
            }
            let len = count as u8;
            return Ok(Slots(Repr::Inline { len, slots }));
        }
        let buf = (0..count).map(|_| slot()).collect::<Result<_, E>>()?;
        Ok(Slots(Repr::Spilled { len: count, buf }))
    }

    /// The non-null targets, in slot order.
    pub(crate) fn targets(&self) -> impl Iterator<Item = Oid> + '_ {
        self.iter().filter_map(|slot| slot.get())
    }
}

impl Deref for Slots {
    type Target = [Slot];

    #[inline]
    fn deref(&self) -> &[Slot] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..usize::from(*len)],
            Repr::Spilled { len, buf } => &buf[..*len as usize],
        }
    }
}

impl DerefMut for Slots {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Slot] {
        match &mut self.0 {
            Repr::Inline { len, slots } => &mut slots[..usize::from(*len)],
            Repr::Spilled { len, buf } => &mut buf[..*len as usize],
        }
    }
}
