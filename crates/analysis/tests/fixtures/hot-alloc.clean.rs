//! Clean: a caller-owned scratch buffer is reused across calls, so the
//! steady-state access path never allocates.

/// Demo controller (fixture); `access` is a hot root.
pub struct DemoController {
    occupancy: Vec<bool>,
    scratch: Vec<u16>,
}

impl DemoController {
    /// The per-access entry point.
    pub fn access(&mut self) -> usize {
        free_frames(&self.occupancy, &mut self.scratch);
        self.scratch.len()
    }
}

/// Appends the set's free frames into `scratch` (cleared first).
pub fn free_frames(occupancy: &[bool], scratch: &mut Vec<u16>) {
    scratch.clear();
    for (f, &occ) in occupancy.iter().enumerate() {
        if !occ {
            scratch.push(f as u16);
        }
    }
}
