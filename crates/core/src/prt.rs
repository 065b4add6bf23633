//! The PLE remapping table (PRT) of one remapping set (paper Fig. 3a).
//!
//! Slot numbering follows the paper: slots `0..m` are the set's off-chip
//! DRAM page frames, slots `m..m+n` its HBM frames. For every *original*
//! slot id (the page identity the OS sees) the table stores the **new PLE**
//! — the physical slot where the page currently lives, or "unallocated" —
//! and per *physical* slot an **Occup** bit consulted by page allocation.
//!
//! Occup bits are packed into `u64` words with a running occupancy count,
//! so the hot-path queries — `all_occupied`, first-free-slot searches —
//! are O(1) or one `trailing_zeros` word scan instead of a
//! per-slot sweep. First-free searches still return the **lowest** free
//! slot, exactly as the original per-slot scans did.

/// Sentinel for "page not allocated" (the paper's `-1`).
const UNALLOCATED: u16 = u16::MAX;

/// The per-set PLE remapping table.
///
/// Invariant: `new_ple` restricted to allocated pages is injective, and
/// occup bit `p` is set exactly when some page maps to physical slot `p`.
#[derive(Debug, Clone)]
pub struct Prt {
    new_ple: Box<[u16]>,
    /// Packed Occup bits, slot `p` = bit `p % 64` of word `p / 64`.
    occup: Box<[u64]>,
    m: u16,
    /// Number of occupied slots (all kinds).
    n_occupied: u16,
}

#[inline]
fn word_bit(p: u16) -> (usize, u64) {
    (usize::from(p) / 64, 1u64 << (p % 64))
}

impl Prt {
    /// Creates a PRT for a set with `m` off-chip slots and `n` HBM frames,
    /// with every page unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `m + n` overflows the 16-bit slot space (never happens for
    /// realistic geometries; the paper's is 88 slots).
    pub fn new(m: u16, n: u16) -> Prt {
        let total = usize::from(m) + usize::from(n);
        assert!(total < usize::from(UNALLOCATED), "slot space overflow");
        Prt {
            new_ple: vec![UNALLOCATED; total].into_boxed_slice(),
            occup: vec![0u64; total.div_ceil(64)].into_boxed_slice(),
            m,
            n_occupied: 0,
        }
    }

    /// Total slots `m + n`.
    pub fn slots(&self) -> u16 {
        self.new_ple.len() as u16
    }

    /// The set's off-chip slot count `m`.
    pub fn m(&self) -> u16 {
        self.m
    }

    /// Whether original page `o` has been allocated.
    pub fn is_allocated(&self, o: u16) -> bool {
        self.new_ple[usize::from(o)] != UNALLOCATED
    }

    /// Physical slot where original page `o` lives (`None` if unallocated).
    pub fn location(&self, o: u16) -> Option<u16> {
        let p = self.new_ple[usize::from(o)];
        (p != UNALLOCATED).then_some(p)
    }

    /// Whether physical slot `p` is occupied.
    #[inline]
    pub fn occupied(&self, p: u16) -> bool {
        let (w, b) = word_bit(p);
        self.occup[w] & b != 0
    }

    /// Whether physical slot `p` is an HBM frame.
    pub fn is_hbm_slot(&self, p: u16) -> bool {
        p >= self.m
    }

    /// Sets slot `p`'s Occup bit, maintaining the count.
    fn mark(&mut self, p: u16) {
        let (w, b) = word_bit(p);
        self.occup[w] |= b;
        self.n_occupied += 1;
    }

    /// Clears slot `p`'s Occup bit, maintaining the count.
    fn unmark(&mut self, p: u16) {
        let (w, b) = word_bit(p);
        self.occup[w] &= !b;
        self.n_occupied -= 1;
    }

    /// Allocates original page `o` at physical slot `p`.
    ///
    /// # Panics
    ///
    /// Panics if `o` is already allocated or `p` already occupied.
    pub fn allocate(&mut self, o: u16, p: u16) {
        assert!(!self.is_allocated(o), "page {o} already allocated"); // audit: allow(hot-panic) -- PRT corruption guard: double allocation must fail fast
        assert!(!self.occupied(p), "slot {p} already occupied"); // audit: allow(hot-panic) -- PRT corruption guard: slot collision must fail fast
        self.new_ple[usize::from(o)] = p;
        self.mark(p);
    }

    /// Moves original page `o` from its current slot to free slot `p`
    /// (migration / eviction / mode switch).
    ///
    /// # Panics
    ///
    /// Panics if `o` is unallocated or `p` occupied.
    pub fn relocate(&mut self, o: u16, p: u16) {
        let old = self.location(o).expect("relocating unallocated page"); // audit: allow(hot-panic) -- PRT corruption guard: relocating an unallocated page must fail fast
        assert!(!self.occupied(p), "slot {p} already occupied"); // audit: allow(hot-panic) -- PRT corruption guard: slot collision must fail fast
        self.unmark(old);
        self.mark(p);
        self.new_ple[usize::from(o)] = p;
    }

    /// Swaps the physical locations of pages `a` and `b` (the blue-arrow
    /// example of Fig. 3b and the all-memory-used swap rule).
    ///
    /// # Panics
    ///
    /// Panics if either page is unallocated.
    pub fn swap(&mut self, a: u16, b: u16) {
        let pa = self.location(a).expect("swap of unallocated page"); // audit: allow(hot-panic) -- PRT corruption guard: swap of unallocated page must fail fast
        let pb = self.location(b).expect("swap of unallocated page"); // audit: allow(hot-panic) -- PRT corruption guard: swap of unallocated page must fail fast
        self.new_ple[usize::from(a)] = pb;
        self.new_ple[usize::from(b)] = pa;
    }

    /// Frees original page `o` entirely (page-fault victim / deallocation).
    ///
    /// # Panics
    ///
    /// Panics if `o` is unallocated.
    pub fn free(&mut self, o: u16) {
        let p = self.location(o).expect("freeing unallocated page"); // audit: allow(hot-panic) -- PRT corruption guard: double free must fail fast
        self.unmark(p);
        self.new_ple[usize::from(o)] = UNALLOCATED;
    }

    /// First free off-chip physical slot, preferring `prefer` when free.
    pub fn find_free_dram(&self, prefer: u16) -> Option<u16> {
        if prefer < self.m && !self.occupied(prefer) {
            return Some(prefer);
        }
        let m = usize::from(self.m);
        for (w, &word) in self.occup.iter().enumerate() {
            let base = w * 64;
            if base >= m {
                break;
            }
            let mut free = !word;
            if base + 64 > m {
                free &= (1u64 << (m - base)) - 1;
            }
            if free != 0 {
                return Some((base + free.trailing_zeros() as usize) as u16);
            }
        }
        None
    }

    /// Whether every physical slot is occupied (all memory in the set used
    /// by the OS — the paper's swap-mode condition). O(1).
    pub fn all_occupied(&self) -> bool {
        usize::from(self.n_occupied) == self.new_ple.len()
    }
}

/// Checked-build validation (`--features checked`); see [`crate::checked`].
#[cfg(feature = "checked")]
impl Prt {
    /// Verifies the table's structural invariants: `new_ple` restricted to
    /// allocated pages is injective and in range, Occup bits match the
    /// mapping exactly (including the packed words' unused tail bits), and
    /// the incremental occupancy counter agrees with a full recount.
    pub fn validate(&self) -> Result<(), String> {
        let slots = usize::from(self.slots());
        let mut seen = vec![false; slots];
        for o in 0..slots {
            let p = self.new_ple[o];
            if p == UNALLOCATED {
                continue;
            }
            if usize::from(p) >= slots {
                return Err(format!("page {o} maps to out-of-range slot {p}"));
            }
            if seen[usize::from(p)] {
                return Err(format!("two pages map to physical slot {p}"));
            }
            seen[usize::from(p)] = true;
            if !self.occupied(p) {
                return Err(format!("page {o} maps to slot {p} but its Occup bit is clear"));
            }
        }
        let mut occupied = 0u16;
        for p in 0..self.slots() {
            if self.occupied(p) {
                occupied += 1;
                if !seen[usize::from(p)] {
                    return Err(format!("Occup bit {p} set but no page maps there"));
                }
            }
        }
        for (w, &word) in self.occup.iter().enumerate() {
            let live = slots.saturating_sub(w * 64).min(64);
            let tail = if live == 64 { 0 } else { word >> live };
            if tail != 0 {
                return Err(format!("Occup word {w} has bits set beyond slot {slots}"));
            }
        }
        if occupied != self.n_occupied {
            return Err(format!(
                "occupancy counter {} but {occupied} Occup bits set",
                self.n_occupied
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_is_empty() {
        let prt = Prt::new(4, 2);
        assert_eq!(prt.slots(), 6);
        for o in 0..6 {
            assert!(!prt.is_allocated(o));
        }
        for p in 0..6 {
            assert!(!prt.occupied(p));
        }
        assert!(!prt.all_occupied());
    }

    #[test]
    fn allocate_then_locate() {
        let mut prt = Prt::new(4, 2);
        prt.allocate(1, 1);
        prt.allocate(0, 4); // page 0 straight into HBM slot
        assert_eq!(prt.location(1), Some(1));
        assert_eq!(prt.location(0), Some(4));
        assert!(prt.is_hbm_slot(4));
        assert!(prt.occupied(4));
    }

    #[test]
    fn relocate_moves_occupancy() {
        let mut prt = Prt::new(4, 2);
        prt.allocate(2, 2);
        prt.relocate(2, 5);
        assert!(!prt.occupied(2));
        assert!(prt.occupied(5));
        assert_eq!(prt.location(2), Some(5));
    }

    #[test]
    fn swap_matches_fig3_example() {
        let mut prt = Prt::new(4, 2);
        prt.allocate(1, 1);
        prt.allocate(3, 4);
        prt.swap(1, 3);
        assert_eq!(prt.location(1), Some(4));
        assert_eq!(prt.location(3), Some(1));
        // Occupancy unchanged by a swap.
        assert!(prt.occupied(1) && prt.occupied(4));
    }

    #[test]
    fn free_releases_slot() {
        let mut prt = Prt::new(2, 1);
        prt.allocate(0, 0);
        prt.free(0);
        assert!(!prt.is_allocated(0));
        assert!(!prt.occupied(0));
    }

    #[test]
    fn find_free_prefers_own_slot() {
        let mut prt = Prt::new(4, 2);
        assert_eq!(prt.find_free_dram(2), Some(2));
        prt.allocate(3, 2);
        assert_eq!(prt.find_free_dram(2), Some(0));
    }

    #[test]
    fn all_occupied_detects_full_set() {
        let mut prt = Prt::new(2, 1);
        prt.allocate(0, 0);
        prt.allocate(1, 1);
        prt.allocate(2, 2);
        assert!(prt.all_occupied());
    }

    #[test]
    fn find_free_crosses_word_boundaries() {
        // 100 DRAM + 30 HBM slots spans three occupancy words, with m=100
        // splitting word 1 between DRAM and HBM bits.
        let mut prt = Prt::new(100, 30);
        for p in 0..100 {
            prt.allocate(p, p);
        }
        assert_eq!(prt.find_free_dram(0), None, "all DRAM slots taken");
        for p in 100..130 {
            prt.allocate(p, p);
        }
        assert!(prt.all_occupied());
        prt.free(64); // word-1 DRAM bit
        assert_eq!(prt.find_free_dram(3), Some(64));
        prt.free(129); // last HBM slot, word-2 tail
        assert!(!prt.all_occupied());
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocate_panics() {
        let mut prt = Prt::new(2, 1);
        prt.allocate(0, 0);
        prt.allocate(0, 1);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn allocate_into_occupied_panics() {
        let mut prt = Prt::new(2, 1);
        prt.allocate(0, 0);
        prt.allocate(1, 0);
    }

    #[cfg(feature = "checked")]
    #[test]
    fn validate_accepts_legal_histories() {
        let mut prt = Prt::new(4, 2);
        assert_eq!(prt.validate(), Ok(()));
        prt.allocate(0, 0);
        prt.allocate(1, 4);
        prt.relocate(0, 5);
        prt.swap(0, 1);
        prt.free(1);
        assert_eq!(prt.validate(), Ok(()));
    }

    #[cfg(feature = "checked")]
    #[test]
    fn validate_catches_corruption() {
        // A stray Occup bit with no mapped page.
        let mut prt = Prt::new(4, 2);
        prt.occup[0] |= 1 << 3;
        prt.n_occupied += 1;
        assert!(prt.validate().unwrap_err().contains("no page maps there"));

        // Two pages mapped to the same slot.
        let mut prt = Prt::new(4, 2);
        prt.allocate(0, 1);
        prt.new_ple[2] = 1;
        assert!(prt.validate().unwrap_err().contains("two pages"));

        // Counter drift.
        let mut prt = Prt::new(4, 2);
        prt.allocate(0, 4);
        prt.n_occupied = 0;
        assert!(prt.validate().unwrap_err().contains("occupancy counter"));

        // Tail bits beyond the slot space.
        let mut prt = Prt::new(4, 2);
        prt.occup[0] |= 1 << 60;
        assert!(prt.validate().unwrap_err().contains("beyond slot"));
    }
}
