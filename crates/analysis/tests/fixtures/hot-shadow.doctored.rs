//! Doctored: `self.push` resolves to this file's `Ring::push`, whose
//! name shadows a std method; the std-name skip list must not hide it
//! from the hot set, so its allocation is caught.

/// Demo controller (fixture); `access` is a hot root.
pub struct DemoController {
    ring: Ring,
}

impl DemoController {
    /// The per-access entry point: records into the ring.
    pub fn access(&mut self, v: usize) {
        self.ring.record(v);
    }
}

/// A growable log whose method names shadow std collections.
pub struct Ring {
    log: Vec<usize>,
}

impl Ring {
    /// Append that copies the whole log on every call.
    pub fn push(&mut self, v: usize) {
        let mut grown = self.log.to_vec(); //~ hot-alloc
        grown.push(v);
        self.log = grown;
    }

    /// Record path: `self.push` resolves to `Ring::push` above.
    pub fn record(&mut self, v: usize) {
        self.push(v);
    }
}
