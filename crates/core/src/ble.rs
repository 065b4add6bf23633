//! Block location entries (BLEs) for HBM frames (paper Fig. 3a).
//!
//! One [`Ble`] describes one HBM frame of a remapping set. In **cHBM** mode
//! it records which off-chip page is cached there and which blocks are
//! valid/dirty. In **mHBM** mode the page *lives* in the frame; the valid
//! vector is reused to record which blocks have been accessed, which is
//! exactly the spatial-locality evidence the tracker consumes.

use crate::bitmap::BlockBitmap;

/// Operating mode of one HBM frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrameMode {
    /// Unused frame.
    #[default]
    Free,
    /// Frame caches blocks of an off-chip page (cHBM).
    Chbm,
    /// Frame holds an OS-visible page (mHBM).
    Mhbm,
}

/// One frame's block location entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ble {
    /// Mode of the frame.
    pub mode: FrameMode,
    /// Original slot id of the resident/cached page (meaningful unless
    /// `mode == Free`).
    pub ple: u16,
    /// cHBM: blocks present in the frame. mHBM: blocks accessed (spatial
    /// locality evidence).
    pub valid: BlockBitmap,
    /// Blocks whose HBM copy is newer than off-chip DRAM.
    pub dirty: BlockBitmap,
}

impl Ble {
    /// Resets the frame to [`FrameMode::Free`].
    pub fn reset(&mut self) {
        *self = Ble::default();
    }

    /// Whether, under `blocks_per_page`, "most blocks" of this frame are
    /// set in `valid` — the paper's mode-switch / spatial-strength test.
    /// `fraction` is the configurable majority threshold (paper: most,
    /// i.e. > 1/2).
    pub fn mostly_valid(&self, blocks_per_page: u32, fraction: f64) -> bool {
        f64::from(self.valid.count()) > f64::from(blocks_per_page) * fraction
    }

    /// Starts caching off-chip page `ple` in this frame (no blocks yet).
    pub fn begin_chbm(&mut self, ple: u16) {
        self.mode = FrameMode::Chbm;
        self.ple = ple;
        self.valid.clear_all();
        self.dirty.clear_all();
    }

    /// Installs page `ple` as an mHBM resident. `accessed_block`, when
    /// given, seeds the access-tracking vector (a migration triggered by a
    /// demand touch).
    pub fn begin_mhbm(&mut self, ple: u16, accessed_block: Option<u32>) {
        self.mode = FrameMode::Mhbm;
        self.ple = ple;
        self.valid.clear_all();
        self.dirty.clear_all();
        if let Some(b) = accessed_block {
            self.valid.set(b);
        }
    }

    /// cHBM → mHBM switch: the frame keeps its data; access tracking
    /// restarts from the blocks that were already cached.
    pub fn switch_to_mhbm(&mut self) {
        debug_assert_eq!(self.mode, FrameMode::Chbm);
        self.mode = FrameMode::Mhbm;
        self.dirty.clear_all();
    }

    /// mHBM → cHBM buffered eviction: every block is valid (the whole page
    /// is present) and dirty (off-chip DRAM has no copy yet) — paper
    /// §III-E footprint rule 2.
    pub fn switch_to_chbm(&mut self, blocks_per_page: u32) {
        debug_assert_eq!(self.mode, FrameMode::Mhbm);
        self.mode = FrameMode::Chbm;
        self.valid = BlockBitmap::full(blocks_per_page);
        self.dirty = BlockBitmap::full(blocks_per_page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_free() {
        let b = Ble::default();
        assert_eq!(b.mode, FrameMode::Free);
        assert!(b.valid.count() == 0 && b.dirty.count() == 0);
    }

    #[test]
    fn chbm_lifecycle() {
        let mut b = Ble::default();
        b.begin_chbm(5);
        assert_eq!(b.mode, FrameMode::Chbm);
        assert_eq!(b.ple, 5);
        b.valid.set(0);
        b.valid.set(1);
        b.dirty.set(1);
        assert!(b.valid.contains_all(&b.dirty));
    }

    #[test]
    fn mostly_valid_thresholds() {
        let mut b = Ble::default();
        b.begin_chbm(0);
        for i in 0..16 {
            b.valid.set(i);
        }
        assert!(!b.mostly_valid(32, 0.5), "exactly half is not 'most'");
        b.valid.set(16);
        assert!(b.mostly_valid(32, 0.5));
        assert!(!b.mostly_valid(32, 0.9));
    }

    #[test]
    fn switch_to_mhbm_keeps_valid_clears_dirty() {
        let mut b = Ble::default();
        b.begin_chbm(3);
        b.valid.set(0);
        b.valid.set(7);
        b.dirty.set(7);
        b.switch_to_mhbm();
        assert_eq!(b.mode, FrameMode::Mhbm);
        assert!(b.valid.get(0) && b.valid.get(7));
        assert_eq!(b.dirty.count(), 0);
    }

    #[test]
    fn switch_to_chbm_marks_all_dirty() {
        let mut b = Ble::default();
        b.begin_mhbm(2, Some(4));
        b.switch_to_chbm(32);
        assert_eq!(b.mode, FrameMode::Chbm);
        assert_eq!(b.valid.count(), 32);
        assert_eq!(b.dirty.count(), 32);
    }

    #[test]
    fn mhbm_seeding() {
        let mut b = Ble::default();
        b.begin_mhbm(1, Some(9));
        assert!(b.valid.get(9));
        assert_eq!(b.valid.count(), 1);
        b.begin_mhbm(1, None);
        assert_eq!(b.valid.count(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut b = Ble::default();
        b.begin_chbm(7);
        b.valid.set(3);
        b.reset();
        assert_eq!(b.mode, FrameMode::Free);
        assert_eq!(b.valid.count(), 0);
    }
}
