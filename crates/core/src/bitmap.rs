//! Fixed-capacity block bit-vectors.
//!
//! A [`BlockBitmap`] covers up to 256 blocks — enough for every block/page
//! configuration of the paper's design-space exploration (the largest is
//! 128 KB pages of 1 KB blocks = 128 blocks).

/// Maximum number of blocks a bitmap can track.
pub const MAX_BLOCKS: u32 = 256;

/// A 256-bit block bitmap (valid/dirty/accessed vectors of a BLE).
///
/// ```
/// use bumblebee_core::BlockBitmap;
/// let mut v = BlockBitmap::new();
/// v.set(3);
/// v.set(200);
/// assert!(v.get(3) && !v.get(4));
/// assert_eq!(v.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BlockBitmap([u64; 4]);

impl BlockBitmap {
    /// An empty bitmap.
    pub fn new() -> BlockBitmap {
        BlockBitmap([0; 4])
    }

    /// A bitmap with bits `0..count` set.
    ///
    /// # Panics
    ///
    /// Panics if `count > 256`.
    pub fn full(count: u32) -> BlockBitmap {
        assert!(count <= MAX_BLOCKS, "bitmap capacity is {MAX_BLOCKS}"); // audit: allow(hot-panic) -- count comes from geometry blocks_per_page, bounded at construction
        let mut b = BlockBitmap::new();
        for i in 0..count {
            b.set(i);
        }
        b
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `i ≥ 256`.
    #[inline]
    pub fn set(&mut self, i: u32) {
        debug_assert!(i < MAX_BLOCKS);
        self.0[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: u32) {
        debug_assert!(i < MAX_BLOCKS);
        self.0[(i / 64) as usize] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < MAX_BLOCKS);
        self.0[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Clears every bit.
    #[inline]
    pub fn clear_all(&mut self) {
        self.0 = [0; 4];
    }

    /// Whether every bit of `other` is also set in `self`.
    pub fn contains_all(&self, other: &BlockBitmap) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a & b == *b)
    }

    /// Iterator over set bit indices, ascending. Walks the four words via
    /// `trailing_zeros` rather than probing all 256 bit positions, so cost
    /// scales with the population count. The bitmap is `Copy`: the iterator
    /// owns a snapshot and does not borrow `self`.
    pub fn iter_set(&self, limit: u32) -> BitIter {
        BitIter::new(self.0, limit.min(MAX_BLOCKS))
    }

    /// Iterator over clear bit indices below `limit`, ascending (same
    /// word-at-a-time walk as [`iter_set`](Self::iter_set), over the
    /// complement).
    pub fn iter_clear(&self, limit: u32) -> BitIter {
        BitIter::new(self.0.map(|w| !w), limit.min(MAX_BLOCKS))
    }
}

/// Word-at-a-time iterator over set bit indices of a bitmap snapshot.
#[derive(Debug, Clone)]
pub struct BitIter {
    words: [u64; 4],
    /// Current word being drained (bits already yielded are cleared).
    cur: u64,
    /// Index of the word in `cur`.
    word: u32,
    limit: u32,
}

impl BitIter {
    fn new(words: [u64; 4], limit: u32) -> BitIter {
        BitIter { words, cur: words[0], word: 0, limit }
    }
}

impl Iterator for BitIter {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            if self.cur != 0 {
                let bit = self.cur.trailing_zeros();
                let i = self.word * 64 + bit;
                if i >= self.limit {
                    return None;
                }
                self.cur &= self.cur - 1;
                return Some(i);
            }
            if self.word >= 3 || (self.word + 1) * 64 >= self.limit {
                return None;
            }
            self.word += 1;
            self.cur = self.words[self.word as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_round_trip() {
        let mut b = BlockBitmap::new();
        assert_eq!(b.count(), 0);
        for i in [0u32, 1, 63, 64, 127, 128, 255] {
            b.set(i);
            assert!(b.get(i), "bit {i}");
        }
        assert_eq!(b.count(), 7);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count(), 6);
        b.clear_all();
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn full_sets_exactly_count_bits() {
        let b = BlockBitmap::full(48);
        assert_eq!(b.count(), 48);
        assert!(b.get(47) && !b.get(48));
        let all = BlockBitmap::full(256);
        assert_eq!(all.count(), 256);
    }

    #[test]
    fn contains_all_is_subset_check() {
        let mut v = BlockBitmap::new();
        let mut d = BlockBitmap::new();
        v.set(1);
        v.set(2);
        d.set(2);
        assert!(v.contains_all(&d));
        d.set(3);
        assert!(!v.contains_all(&d));
    }

    #[test]
    fn iterators_partition_indices() {
        let mut b = BlockBitmap::new();
        b.set(0);
        b.set(5);
        b.set(31);
        let set: Vec<u32> = b.iter_set(32).collect();
        assert_eq!(set, vec![0, 5, 31]);
        let clear: Vec<u32> = b.iter_clear(8).collect();
        assert_eq!(clear, vec![1, 2, 3, 4, 6, 7]);
        assert_eq!(b.iter_set(32).count() + b.iter_clear(32).count(), 32);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn full_over_capacity_panics() {
        BlockBitmap::full(257);
    }

    #[test]
    fn iterators_cross_word_boundaries() {
        let mut b = BlockBitmap::new();
        for i in [0u32, 63, 64, 127, 128, 191, 192, 255] {
            b.set(i);
        }
        let set: Vec<u32> = b.iter_set(256).collect();
        assert_eq!(set, vec![0, 63, 64, 127, 128, 191, 192, 255]);
        // A limit inside a word truncates mid-word…
        assert_eq!(b.iter_set(128).collect::<Vec<_>>(), vec![0, 63, 64, 127]);
        assert_eq!(b.iter_set(127).collect::<Vec<_>>(), vec![0, 63, 64]);
        // …and iter_clear over a full bitmap terminates without probing
        // past the limit.
        assert_eq!(BlockBitmap::full(256).iter_clear(256).count(), 0);
        assert_eq!(BlockBitmap::new().iter_set(0).count(), 0);
        assert_eq!(BlockBitmap::full(256).iter_set(0).count(), 0);
    }
}
