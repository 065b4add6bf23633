//! Graph corpus, doctored tuner file: the `Backend` impl the controller
//! fans out to through `dyn Backend` allocates, and the tuner pulls the
//! controller file's panicking `drift` onto the hot path.

/// Cross-file tuning step; calls back into the controller file.
pub fn tune(addr: u64) -> u64 {
    spin(addr & 3) + drift(addr)
}

/// Backend impl the controller dispatches to.
pub struct Tuner {
    served: Vec<u64>,
}

impl Backend for Tuner {
    /// On the access flow via trait fan-out; boxes every request.
    fn serve(&mut self) -> u64 {
        let req = Box::new(self.served.len() as u64); //~ hot-alloc
        *req
    }
}
