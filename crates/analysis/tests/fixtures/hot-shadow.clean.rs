//! Clean: a sampler ring whose method names shadow std collections is on
//! the access flow, and its `push` writes into preallocated storage.

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

/// A fixed-capacity ring whose method names shadow std collections.
pub struct Ring {
    buf: Box<[usize]>,
    head: usize,
}

impl Ring {
    /// Evict-oldest append into the preallocated slots.
    pub fn push(&mut self, v: usize) {
        let n = self.buf.len().max(1);
        if let Some(slot) = self.buf.get_mut(self.head % n) {
            *slot = v;
        }
        self.head += 1;
    }

    /// Record path: `self.push` resolves to `Ring::push` above.
    pub fn record(&mut self, v: usize) {
        self.push(v);
    }
}
