//! A fixed-capacity bitset over small index universes.
//!
//! The failure analysis and the designer both need "is element `i` in this
//! subset?" over link indices, inside O(n²)-per-query loops. A `&[usize]`
//! with `contains` is an O(k) scan per query; [`BitSet`] answers in one word
//! load.

use serde::{Deserialize, Serialize};

const WORD_BITS: usize = 64;

/// A fixed-capacity set of `usize` indices backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty set over the universe `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// The universe size this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Add `index` to the set.
    pub fn insert(&mut self, index: usize) {
        assert!(
            index < self.capacity,
            "index {index} out of capacity {}",
            self.capacity
        );
        self.words[index / WORD_BITS] |= 1 << (index % WORD_BITS);
    }

    /// Remove `index` from the set.
    pub fn remove(&mut self, index: usize) {
        assert!(
            index < self.capacity,
            "index {index} out of capacity {}",
            self.capacity
        );
        self.words[index / WORD_BITS] &= !(1 << (index % WORD_BITS));
    }

    /// Membership test in O(1).
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        index < self.capacity && self.words[index / WORD_BITS] >> (index % WORD_BITS) & 1 == 1
    }

    /// Remove every member, keeping the capacity and allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate member indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.capacity).filter(move |&i| self.contains(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_indices(capacity: usize, indices: &[usize]) -> BitSet {
        let mut set = BitSet::new(capacity);
        for &i in indices {
            set.insert(i);
        }
        set
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(63) && !s.contains(128));
        assert_eq!(s.len(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn from_indices_and_iter() {
        let s = from_indices(70, &[3, 68, 3]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 68]);
        assert_eq!(s.capacity(), 70);
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut s = from_indices(80, &[0, 41, 79]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 80);
        s.insert(79);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn out_of_capacity_query_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1_000_000));
    }

    #[test]
    #[should_panic]
    fn out_of_capacity_insert_panics() {
        BitSet::new(10).insert(10);
    }
}
