//! Doctored: the same epoch rollover without its cold boundary is part
//! of the computed hot set, so its allocation is a finding.

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
    fn roll(&mut self) {
        self.epochs = vec![self.hits]; //~ hot-alloc
    }
}
