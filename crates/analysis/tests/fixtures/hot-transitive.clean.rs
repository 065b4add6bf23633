//! Clean: the epoch rollover allocates, but it runs once per epoch and
//! is declared a cold boundary, so it and its callees leave the hot set.

/// Demo controller (fixture); `access` is a hot root.
pub struct DemoController {
    hits: u64,
    epochs: Vec<u64>,
}

impl DemoController {
    /// The per-access entry point.
    pub fn access(&mut self, addr: u64) -> u64 {
        self.hits += addr & 1;
        if self.hits % 4096 == 0 {
            self.roll();
        }
        self.hits
    }

    /// Epoch rollover: snapshots the counters.
    // audit: allow(hot-transitive) -- runs once per epoch boundary, not per access
    fn roll(&mut self) {
        self.epochs = vec![self.hits];
    }
}
