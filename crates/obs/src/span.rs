//! Scoped wall-clock span profiler: where does simulator time go?
//!
//! A zero-dependency phase profiler built on a thread-local span stack.
//! Code marks phases with RAII guards ([`span`]); nested guards build a
//! per-phase call tree aggregated by `(parent, phase)`, so the collected
//! [`SpanTree`] answers "how much wall time went to controller lookup, and
//! how much of that was epoch sampling" directly.
//!
//! The profiler is off by default. A disabled [`span`] call is a single
//! thread-local flag check and constructs nothing — the same discipline as
//! the [`Telemetry`](crate::Telemetry) `Option` fast path, so the
//! instrumentation can live permanently in the hot path. A session is
//! per-thread: [`enable`] arms the current thread, [`collect`] disarms it
//! and returns the aggregated tree. The experiment engine enables a
//! session around each cell it runs, so worker threads never share state.
//!
//! Everything here is wall-clock and therefore nondeterministic; span data
//! belongs in `.metrics.jsonl` / `BENCH_*.json` artifacts, never in the
//! byte-compared deterministic outputs.
//!
//! # Example
//!
//! ```
//! use memsim_obs::span::{self, Phase};
//!
//! span::enable();
//! {
//!     let _cell = span::span(Phase::Cell);
//!     let _lookup = span::span(Phase::CtrlLookup);
//! } // guards drop: times are attributed to cell → ctrl_lookup
//! let tree = span::collect();
//! assert_eq!(tree.get("cell/ctrl_lookup").unwrap().calls, 1);
//! assert!(!span::profiling(), "collect() disarms the thread");
//! ```

use std::cell::{Cell as StdCell, RefCell};
use std::time::Instant;

/// The simulator phases the profiler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One whole experiment cell (the root span of a run).
    Cell,
    /// Synthetic trace generation (workload address stream).
    TraceGen,
    /// Controller lookup: plan construction for one access.
    CtrlLookup,
    /// Data movement: pressure flushes, migrations, end-of-run drain.
    MigrationSwap,
    /// DRAM/HBM device service of the planned operations.
    DramService,
    /// Epoch gauge gathering and snapshot sampling.
    EpochSample,
    /// JSONL serialization and writing.
    JsonlWrite,
}

impl Phase {
    /// Every phase, for iteration and tests.
    pub const ALL: [Phase; 7] = [
        Phase::Cell,
        Phase::TraceGen,
        Phase::CtrlLookup,
        Phase::MigrationSwap,
        Phase::DramService,
        Phase::EpochSample,
        Phase::JsonlWrite,
    ];

    /// Stable snake_case name used in span paths and JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Cell => "cell",
            Phase::TraceGen => "trace_gen",
            Phase::CtrlLookup => "ctrl_lookup",
            Phase::MigrationSwap => "migration_swap",
            Phase::DramService => "dram_service",
            Phase::EpochSample => "epoch_sample",
            Phase::JsonlWrite => "jsonl_write",
        }
    }
}

/// One aggregated node of a [`SpanTree`]: every execution of `phase` under
/// the same parent chain, merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The phase this node aggregates.
    pub phase: Phase,
    /// Index of the parent node, `None` for roots.
    pub parent: Option<usize>,
    /// Guard activations merged into this node.
    pub calls: u64, // audit: unit(accesses)
    /// Total wall time inside the span, children included, in nanoseconds.
    pub total_nanos: u64, // audit: unit(ns)
    /// Wall time attributed to direct children, in nanoseconds.
    pub child_nanos: u64, // audit: unit(ns)
}

impl SpanNode {
    /// Time spent in this phase itself, children excluded.
    pub fn self_nanos(&self) -> u64 {
        self.total_nanos.saturating_sub(self.child_nanos)
    }
}

/// The aggregated per-phase tree of one profiling session.
///
/// Nodes are stored parent-before-child (a child is first created while its
/// parent is on the stack), so iterating [`nodes`](Self::nodes) in order is
/// a preorder walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    nodes: Vec<SpanNode>,
    spans: u64,
    overhead_nanos: u64,
}

impl SpanTree {
    /// The aggregated nodes, parents before children.
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Whether the session recorded no spans at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Guard activations recorded in the session.
    pub fn spans(&self) -> u64 {
        self.spans
    }

    /// Estimated profiler self-cost: two timer reads per recorded span,
    /// calibrated at collection time. An estimate for sanity-checking the
    /// measurement, not a measured quantity.
    pub fn overhead_nanos(&self) -> u64 {
        self.overhead_nanos
    }

    /// Total wall time of the root spans.
    pub fn total_nanos(&self) -> u64 {
        self.nodes.iter().filter(|n| n.parent.is_none()).map(|n| n.total_nanos).sum()
    }

    /// Sum of every node's self time. Equals [`total_nanos`](Self::total_nanos)
    /// up to clock granularity, which is what makes "self times must cover
    /// the measured wall time" a meaningful completeness check.
    pub fn self_nanos_sum(&self) -> u64 {
        self.nodes.iter().map(SpanNode::self_nanos).sum()
    }

    /// The `/`-separated phase path of node `idx`, e.g.
    /// `"cell/ctrl_lookup/epoch_sample"`.
    pub fn path(&self, idx: usize) -> String {
        let mut names = Vec::new();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            names.push(self.nodes[i].phase.name());
            cur = self.nodes[i].parent;
        }
        names.reverse();
        names.join("/")
    }

    /// Every node with its path, in preorder.
    pub fn flatten(&self) -> Vec<(String, &SpanNode)> {
        (0..self.nodes.len()).map(|i| (self.path(i), &self.nodes[i])).collect()
    }

    /// Looks a node up by its `/`-separated path.
    pub fn get(&self, path: &str) -> Option<&SpanNode> {
        (0..self.nodes.len()).find(|&i| self.path(i) == path).map(|i| &self.nodes[i])
    }

    fn find_or_create(&mut self, parent: Option<usize>, phase: Phase) -> usize {
        if let Some(i) =
            self.nodes.iter().position(|n| n.parent == parent && n.phase == phase)
        {
            return i;
        }
        self.nodes.push(SpanNode { phase, parent, calls: 0, total_nanos: 0, child_nanos: 0 });
        self.nodes.len() - 1
    }

    /// Merges `other` into `self`, summing calls and times of matching
    /// paths and adding nodes for paths only `other` has. Used to fold the
    /// per-cell trees of a benchmark suite into one suite-level breakdown.
    // audit: merge
    pub fn merge(&mut self, other: &SpanTree) {
        // Parents precede children in `other`, so the mapping for a node's
        // parent is always resolved before the node itself.
        let mut map = Vec::with_capacity(other.nodes.len());
        for n in &other.nodes {
            let parent = n.parent.map(|p| map[p]);
            let i = self.find_or_create(parent, n.phase);
            self.nodes[i].calls += n.calls;
            self.nodes[i].total_nanos += n.total_nanos;
            self.nodes[i].child_nanos += n.child_nanos;
            map.push(i);
        }
        self.spans += other.spans;
        self.overhead_nanos += other.overhead_nanos;
    }
}

/// Sentinel for an empty [`LiveState`] node-cache slot.
const NO_CACHE: u32 = u32::MAX;

/// Live per-thread session state.
struct LiveState {
    tree: SpanTree,
    stack: Vec<(usize, Instant)>,
    /// Per-phase memo of the last `(parent + 1, node)` resolved by
    /// [`span`], so the steady-state hot loop (the same few phases
    /// re-entered millions of times) skips the linear node scan.
    /// `(parent, phase)` uniquely identifies a node, so a hit needs no
    /// further validation; reset with the rest of the session state.
    cache: [(u32, u32); Phase::ALL.len()],
}

impl Default for LiveState {
    fn default() -> LiveState {
        LiveState {
            tree: SpanTree::default(),
            stack: Vec::new(),
            cache: [(NO_CACHE, NO_CACHE); Phase::ALL.len()],
        }
    }
}

thread_local! {
    static ENABLED: StdCell<bool> = const { StdCell::new(false) };
    static STATE: RefCell<LiveState> = RefCell::new(LiveState::default());
}

/// Whether a profiling session is active on this thread.
pub fn profiling() -> bool {
    ENABLED.with(StdCell::get)
}

/// Starts (or restarts) a profiling session on the current thread,
/// discarding any previous un-collected state.
pub fn enable() {
    STATE.with(|s| *s.borrow_mut() = LiveState::default());
    ENABLED.with(|e| e.set(true));
}

/// Ends the session on the current thread and returns the aggregated tree.
///
/// Open guards at collection time are a caller bug; their in-flight data
/// is discarded and their later drops are ignored. Without a prior
/// [`enable`] this returns an empty tree.
pub fn collect() -> SpanTree {
    ENABLED.with(|e| e.set(false));
    let state = STATE.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let mut tree = state.tree;
    tree.overhead_nanos = estimate_overhead(tree.spans);
    tree
}

/// Grafts a tree collected on another thread into the current session,
/// under the innermost open span.
///
/// Shard workers profile on their own threads (the span state is
/// thread-local) and hand their collected trees back to the spawning
/// thread, which absorbs them while its `Cell` span is still open — so
/// worker phases appear on the same `cell/...` paths a serial run
/// produces. Absorbed root spans contribute their total time to the open
/// parent's child accounting; because workers run concurrently, a
/// parent's child time may exceed its own wall time (self time saturates
/// at zero, and coverage ratios can exceed 1).
///
/// Without an active session, or with `other` empty, this is a no-op.
// audit: merge
pub fn absorb(other: &SpanTree) {
    if !profiling() || other.is_empty() {
        return;
    }
    STATE.with(|s| {
        let state = &mut *s.borrow_mut();
        let parent = state.stack.last().map(|&(i, _)| i);
        let mut map = Vec::with_capacity(other.nodes.len());
        for n in &other.nodes {
            let mapped_parent = match n.parent {
                Some(p) => Some(map[p]),
                None => parent,
            };
            let i = state.tree.find_or_create(mapped_parent, n.phase);
            state.tree.nodes[i].calls += n.calls;
            state.tree.nodes[i].total_nanos += n.total_nanos;
            state.tree.nodes[i].child_nanos += n.child_nanos;
            if n.parent.is_none() {
                if let Some(p) = parent {
                    state.tree.nodes[p].child_nanos += n.total_nanos;
                }
            }
            map.push(i);
        }
        state.tree.spans += other.spans;
        state.tree.overhead_nanos += other.overhead_nanos;
    });
}

/// Calibrates the cost of the two `Instant::now()` reads each span pays.
fn estimate_overhead(spans: u64) -> u64 {
    if spans == 0 {
        return 0;
    }
    const CALIBRATION_CALLS: u64 = 256;
    let start = Instant::now();
    for _ in 0..CALIBRATION_CALLS {
        std::hint::black_box(Instant::now());
    }
    let per_call = start.elapsed().as_nanos() as u64 / CALIBRATION_CALLS;
    spans * 2 * per_call
}

/// An RAII guard for one phase execution; time is recorded when it drops.
///
/// Obtained from [`span`]; bind it (`let _s = span::span(...)`) so it lives
/// for the region being measured.
#[must_use = "binding the guard defines the span's extent"]
#[derive(Debug)]
pub struct SpanGuard {
    armed: bool,
}

/// Enters `phase`. When no session is active this is one thread-local flag
/// check and the returned guard is inert.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    if !profiling() {
        return SpanGuard { armed: false };
    }
    STATE.with(|s| {
        let state = &mut *s.borrow_mut();
        let parent = state.stack.last().map(|&(i, _)| i);
        let pkey = parent.map_or(0, |p| p as u32 + 1);
        let slot = &mut state.cache[phase as usize];
        let idx = if slot.0 == pkey {
            slot.1 as usize
        } else {
            let i = state.tree.find_or_create(parent, phase);
            *slot = (pkey, i as u32);
            i
        };
        state.stack.push((idx, Instant::now()));
        state.tree.spans += 1;
    });
    SpanGuard { armed: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        STATE.with(|s| {
            let state = &mut *s.borrow_mut();
            // A guard can outlive its session (collect() between creation
            // and drop); the fresh stack is empty then — ignore it.
            let Some((idx, start)) = state.stack.pop() else { return };
            let elapsed = start.elapsed().as_nanos() as u64;
            let node = &mut state.tree.nodes[idx];
            node.calls += 1;
            node.total_nanos += elapsed;
            if let Some(p) = node.parent {
                state.tree.nodes[p].child_nanos += elapsed;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(nanos: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < nanos {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_path_records_nothing() {
        // No enable(): guards are inert and collect() is empty.
        {
            let _s = span(Phase::CtrlLookup);
            let _t = span(Phase::DramService);
        }
        assert!(!profiling());
        let tree = collect();
        assert!(tree.is_empty());
        assert_eq!(tree.spans(), 0);
        assert_eq!(tree.overhead_nanos(), 0);
        assert_eq!(tree.total_nanos(), 0);
    }

    #[test]
    fn nesting_builds_a_path_keyed_tree() {
        enable();
        {
            let _cell = span(Phase::Cell);
            for _ in 0..3 {
                let _l = span(Phase::CtrlLookup);
                let _e = span(Phase::EpochSample);
            }
            let _d = span(Phase::DramService);
        }
        let tree = collect();
        assert_eq!(tree.spans(), 5 + 3);
        let cell = tree.get("cell").unwrap();
        assert_eq!(cell.calls, 1);
        assert!(cell.parent.is_none());
        assert_eq!(tree.get("cell/ctrl_lookup").unwrap().calls, 3);
        assert_eq!(tree.get("cell/ctrl_lookup/epoch_sample").unwrap().calls, 3);
        assert_eq!(tree.get("cell/dram_service").unwrap().calls, 1);
        assert!(tree.get("ctrl_lookup").is_none(), "nested phase is not a root");
        // Same phase under different parents stays distinct.
        assert!(tree.get("cell/epoch_sample").is_none());
    }

    #[test]
    fn self_times_cover_the_total() {
        enable();
        {
            let _cell = span(Phase::Cell);
            spin(200_000);
            {
                let _l = span(Phase::CtrlLookup);
                spin(400_000);
            }
            {
                let _d = span(Phase::DramService);
                spin(300_000);
            }
        }
        let tree = collect();
        let cell = tree.get("cell").unwrap();
        assert!(cell.total_nanos >= 900_000);
        assert!(cell.child_nanos >= 700_000);
        assert!(cell.self_nanos() >= 150_000, "self = total - children");
        // Self times sum to the root total exactly (same measurements).
        assert_eq!(tree.self_nanos_sum(), tree.total_nanos());
        assert!(tree.overhead_nanos() > 0);
    }

    #[test]
    fn collect_resets_and_sessions_are_independent() {
        enable();
        {
            let _s = span(Phase::TraceGen);
        }
        let first = collect();
        assert_eq!(first.spans(), 1);
        assert!(!profiling());
        // A second session starts from scratch.
        enable();
        assert!(profiling());
        {
            let _s = span(Phase::JsonlWrite);
        }
        let second = collect();
        assert_eq!(second.spans(), 1);
        assert!(second.get("trace_gen").is_none());
        assert!(second.get("jsonl_write").is_some());
    }

    #[test]
    fn guard_outliving_its_session_is_ignored() {
        enable();
        let outer = span(Phase::Cell);
        let tree = collect();
        // The open span was discarded, not double-counted.
        assert_eq!(tree.get("cell").unwrap().calls, 0);
        drop(outer); // must not panic or corrupt the (empty) state
        assert!(collect().is_empty());
    }

    #[test]
    fn merge_sums_matching_paths_and_adds_new_ones() {
        enable();
        {
            let _c = span(Phase::Cell);
            let _l = span(Phase::CtrlLookup);
        }
        let a = collect();
        enable();
        {
            let _c = span(Phase::Cell);
            {
                let _l = span(Phase::CtrlLookup);
            }
            let _d = span(Phase::DramService);
        }
        let b = collect();
        let mut merged = SpanTree::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.get("cell").unwrap().calls, 2);
        assert_eq!(merged.get("cell/ctrl_lookup").unwrap().calls, 2);
        assert_eq!(merged.get("cell/dram_service").unwrap().calls, 1);
        assert_eq!(merged.spans(), a.spans() + b.spans());
        assert_eq!(merged.total_nanos(), a.total_nanos() + b.total_nanos());
    }

    #[test]
    fn absorb_grafts_a_worker_tree_under_the_open_span() {
        // "Worker" session: roots are the run phases, no Cell span.
        enable();
        {
            let _t = span(Phase::TraceGen);
        }
        {
            let _l = span(Phase::CtrlLookup);
            let _d = span(Phase::DramService);
        }
        let worker = collect();
        assert!(worker.get("trace_gen").is_some(), "worker phases are roots");

        // "Parent" session: absorb while the Cell span is open.
        enable();
        {
            let _cell = span(Phase::Cell);
            absorb(&worker);
            absorb(&worker);
        }
        let tree = collect();
        assert_eq!(tree.get("cell/trace_gen").unwrap().calls, 2);
        assert_eq!(tree.get("cell/ctrl_lookup").unwrap().calls, 2);
        assert_eq!(tree.get("cell/ctrl_lookup/dram_service").unwrap().calls, 2);
        assert!(tree.get("trace_gen").is_none(), "absorbed roots are re-parented");
        let cell = tree.get("cell").unwrap();
        assert_eq!(
            cell.child_nanos,
            2 * (worker.get("trace_gen").unwrap().total_nanos
                + worker.get("ctrl_lookup").unwrap().total_nanos),
            "absorbed root totals count as the parent's child time"
        );
        assert_eq!(tree.spans(), 1 + 2 * worker.spans());
    }

    #[test]
    fn absorb_without_a_session_is_inert() {
        enable();
        {
            let _t = span(Phase::TraceGen);
        }
        let worker = collect();
        assert!(!profiling());
        absorb(&worker); // no session: must not arm or record anything
        assert!(collect().is_empty());
    }

    #[test]
    fn flatten_is_preorder_with_paths() {
        enable();
        {
            let _c = span(Phase::Cell);
            let _l = span(Phase::CtrlLookup);
            let _e = span(Phase::EpochSample);
        }
        let tree = collect();
        let flat = tree.flatten();
        let paths: Vec<&str> = flat.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["cell", "cell/ctrl_lookup", "cell/ctrl_lookup/epoch_sample"]);
    }

    #[test]
    fn phase_names_are_stable_and_unique() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len());
    }
}
