//! Graph corpus, doctored controller file: `drift` is reached only from
//! the tuner file, so only the workspace call graph puts its panic on
//! the hot path.

/// Relay controller (fixture) — `access` is a hot root.
pub struct RelayController {
    backend: Box<dyn Backend>,
    hits: u64,
}

impl RelayController {
    /// Hot entry point.
    pub fn access(&mut self, addr: u64) -> u64 {
        self.hits += tune(addr);
        self.hits + self.backend.serve()
    }
}

/// Free helper the tuner calls back into — the cycle edge.
pub fn spin(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        tune(v - 1)
    }
}

/// Drift correction applied by the tuner, reached only cross-file.
pub fn drift(addr: u64) -> u64 {
    addr.checked_shr(3).unwrap() //~ hot-panic
}
