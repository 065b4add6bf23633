//! Doctored: a same-file helper the controller's access flow reaches
//! panics — no annotation needed, the call graph puts it in the hot set.

/// Demo controller (fixture); `access` is a hot root.
pub struct DemoController {
    slots: Vec<u16>,
}

impl DemoController {
    /// The per-access entry point.
    pub fn access(&mut self, i: usize) -> u16 {
        resolve(&self.slots, i)
    }
}

/// Same-file helper on the access flow: panics when out of range.
pub fn resolve(slots: &[u16], i: usize) -> u16 {
    *slots.get(i).unwrap() //~ hot-panic
}
