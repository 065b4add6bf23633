//! Clean: the hot path propagates absence instead of panicking.

/// Demo controller (fixture); `access` is a hot root.
pub struct DemoController {
    slots: Vec<u16>,
}

impl DemoController {
    /// The per-access entry point.
    pub fn access(&mut self, i: usize) -> u16 {
        resolve(&self.slots, i).unwrap_or(0)
    }
}

/// Same-file helper on the access flow: hands absence to the caller.
pub fn resolve(slots: &[u16], i: usize) -> Option<u16> {
    slots.get(i).copied()
}
