//! Graph corpus, tuner file: a cross-file free fn on the hot path plus
//! the `Backend` impl the controller's `dyn` call fans out to.

/// Cross-file tuning step; calls back into the controller file.
pub fn tune(addr: u64) -> u64 {
    spin(addr & 3) + drift(addr)
}

/// Backend impl the controller dispatches to.
pub struct Tuner {
    served: u64,
}

impl Backend for Tuner {
    /// On the access flow via trait fan-out; counts in place.
    fn serve(&mut self) -> u64 {
        self.served += 1;
        self.served
    }
}
