//! A dense, reusable bit set keyed by small integer ids.
//!
//! The object table's record positions are dense (`0, 1, 2, ...`, one per
//! resident), so any per-object set the simulator maintains — the oracle's
//! live and seen sets, the full collector's mark set, the table's free
//! positions — can be a flat bit vector over them instead of a hashed set.
//! Membership tests become a shift and a mask, and a set that is reused
//! across oracle passes ([`DenseBitSet::clear`] keeps the allocation) costs
//! no per-pass allocation at all.

/// A growable bit set over `u64` indices.
///
/// ```
/// use pgc_types::DenseBitSet;
///
/// let mut s = DenseBitSet::new();
/// assert!(s.insert(3));
/// assert!(!s.insert(3));
/// assert!(s.contains(3));
/// assert!(!s.contains(64));
/// assert_eq!(s.len(), 1);
/// s.clear();
/// assert!(s.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every member, keeping the backing allocation for reuse.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Ensures indices `0..bits` can be stored without reallocating.
    pub fn reserve(&mut self, bits: usize) {
        let need = bits.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    /// Inserts `bit`, growing as needed. Returns true if it was absent.
    #[inline]
    pub fn insert(&mut self, bit: u64) -> bool {
        let word = (bit / 64) as usize;
        let mask = 1u64 << (bit % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let w = &mut self.words[word];
        let absent = *w & mask == 0;
        *w |= mask;
        self.len += absent as usize;
        absent
    }

    /// Removes `bit`. Returns true if it was present.
    #[inline]
    pub fn remove(&mut self, bit: u64) -> bool {
        let word = (bit / 64) as usize;
        let mask = 1u64 << (bit % 64);
        match self.words.get_mut(word) {
            Some(w) if *w & mask != 0 => {
                *w &= !mask;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, bit: u64) -> bool {
        self.words
            .get((bit / 64) as usize)
            .is_some_and(|w| w & (1 << (bit % 64)) != 0)
    }

    /// Members `64 * i .. 64 * i + 64` as the bits of one word, 0 past the
    /// end: for set algebra a word at a time.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// The lowest member at or above `from`.
    pub fn first_from(&self, from: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut i = (from / 64) as usize;
        let mut w = self.word(i) & u64::MAX << (from % 64);
        while w == 0 && i + 1 < self.words.len() {
            i += 1;
            w = self.words[i];
        }
        (w != 0).then(|| i as u64 * 64 + u64::from(w.trailing_zeros()))
    }

    /// Iterates over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = i as u64 * 64;
            BitIter { word: w, base }
        })
    }
}

struct BitIter {
    word: u64,
    base: u64,
}

impl Iterator for BitIter {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + tz as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(members: &[u64]) -> DenseBitSet {
        let mut s = DenseBitSet::default();
        for &m in members {
            s.insert(m);
        }
        s
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = DenseBitSet::new();
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(!s.insert(64), "double insert reports present");
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(1000));
        assert!(!s.contains(1));
        assert!(!s.contains(10_000), "out of range is absent, not a panic");
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert!(!s.remove(5000), "removing out of range is a no-op");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = DenseBitSet::default();
        for i in 0..512 {
            s.insert(i);
        }
        let words_before = s.words.len();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.words.len(), words_before);
        assert!(!s.contains(17));
    }

    #[test]
    fn iter_is_ascending_and_complete() {
        let members = [0u64, 1, 63, 64, 65, 127, 128, 500];
        let s = set_of(&members);
        let got: Vec<u64> = s.iter().collect();
        assert_eq!(got, members);
    }

    #[test]
    fn words_and_first_from_agree_with_membership() {
        let members = [0u64, 5, 63, 64, 130];
        let s = set_of(&members);
        assert_eq!(s.word(0), 1 | 1 << 5 | 1 << 63);
        assert_eq!((s.word(1), s.word(2), s.word(3)), (1, 1 << 2, 0));
        for from in 0..200 {
            let lowest = members.iter().copied().find(|&m| m >= from);
            assert_eq!(s.first_from(from), lowest, "from {from}");
        }
    }

    #[test]
    fn reserve_does_not_change_membership() {
        let mut s = DenseBitSet::new();
        s.insert(10);
        s.reserve(10_000);
        assert_eq!(s.len(), 1);
        assert!(s.contains(10));
        assert!(!s.contains(9_999));
    }

    #[test]
    fn matches_reference_hashset_under_random_ops() {
        use crate::SimRng;
        use std::collections::HashSet;
        let mut rng = SimRng::new(99);
        let mut dense = DenseBitSet::new();
        let mut reference: HashSet<u64> = HashSet::new();
        for _ in 0..5000 {
            let bit = rng.below(700);
            match rng.below(3) {
                0 | 1 => assert_eq!(dense.insert(bit), reference.insert(bit)),
                _ => assert_eq!(dense.remove(bit), reference.remove(&bit)),
            }
            assert_eq!(dense.len(), reference.len());
        }
        let mut sorted: Vec<u64> = reference.into_iter().collect();
        sorted.sort_unstable();
        assert_eq!(dense.iter().collect::<Vec<u64>>(), sorted);
    }
}
