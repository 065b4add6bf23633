//! Doctored: a fresh vector grown on every access.

/// Demo controller (fixture); `access` is a hot root.
pub struct DemoController {
    occupancy: Vec<bool>,
}

impl DemoController {
    /// The per-access entry point.
    pub fn access(&mut self) -> usize {
        free_frames(&self.occupancy).len()
    }
}

/// Collects the set's free frames into a brand-new vector.
pub fn free_frames(occupancy: &[bool]) -> Vec<u16> {
    let mut out = Vec::new();
    for (f, &occ) in occupancy.iter().enumerate() {
        if !occ {
            out.push(f as u16); //~ hot-alloc
        }
    }
    out
}
