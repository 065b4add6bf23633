//! Doctored: a leftover `hot-path` marker. The hot set is computed from
//! the call graph, so the directive no longer exists and must not sit in
//! the source pretending to mean something.

/// Sums two counters.
// audit: hot-path //~ audit-syntax
pub fn total(a: u64, b: u64) -> u64 {
    a + b
}
