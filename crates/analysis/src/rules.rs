//! The audit rule catalog: stable ids, one-line summaries and the long
//! explanations behind `audit_tool explain <rule>`.
//!
//! Rules come in three families mirroring the failure modes that matter to
//! this workspace (see DESIGN.md "Static analysis & checked builds"):
//!
//! * `det-*` — determinism: anything that could make two runs of the same
//!   experiment matrix produce different JSONL bytes;
//! * `hot-*` — hot-path hygiene: panics and heap allocation in the hot
//!   set the call graph computes from the controller/chunk roots;
//! * `struct-*` — structural conventions every crate must carry.

/// Common std method names that, when the receiver is unknown
/// (`recv.name(…)` / chained calls), resolve only to impls of types the
/// caller's file names: the receiver is usually a std type, so fanning
/// out to every same-named workspace method would flood the hot set.
/// Free-fn calls, `self.`-receiver calls and explicit `Type::name(…)`
/// paths are never affected — they resolve unambiguously.
pub const CALLEE_SKIP: &[&str] = &[
    "new", "len", "is_empty", "push", "pop", "insert", "remove", "get", "get_mut", "clear",
    "iter", "iter_mut", "next", "clone", "min", "max", "clamp", "map", "and_then", "unwrap_or",
    "unwrap_or_else", "take", "replace", "swap", "from", "into", "fmt", "eq", "cmp", "hash",
    "drop", "default", "as_ref", "as_mut", "as_deref_mut", "contains", "count", "sum", "extend",
];

/// One rule in the catalog.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id used in findings, `allow(...)` directives and the CLI.
    pub id: &'static str,
    /// One-line summary for `list-rules`.
    pub summary: &'static str,
    /// Long-form explanation for `explain <rule>`.
    pub explain: &'static str,
}

/// The full catalog, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "det-hashmap",
        summary: "std HashMap/HashSet with the default RandomState hasher",
        explain: "\
std::collections::HashMap and HashSet default to RandomState, which is\n\
seeded from OS entropy per process: iteration order — and therefore any\n\
output derived from it — varies run to run. In a simulator whose tier-1\n\
contract is bit-identical JSONL at any --jobs width, that is a latent\n\
nondeterminism bug even when today's call sites never iterate.\n\
\n\
Flagged: `HashMap::new`, `HashSet::default`, `with_capacity`, and any\n\
`HashMap<K, V>` / `HashSet<T>` type with no explicit hasher parameter.\n\
Not flagged: maps with a named hasher (e.g. `BuildHasherDefault<...>`)\n\
and `with_hasher` / `with_capacity_and_hasher` constructors.\n\
\n\
Fix: use BTreeMap/BTreeSet (deterministic order), a fixed-seed hasher,\n\
or justify with `// audit: allow(det-hashmap) -- <reason>`.",
    },
    Rule {
        id: "det-clock",
        summary: "Instant::now/SystemTime::now (wall-clock reads)",
        explain: "\
Wall-clock reads are inherently nondeterministic. The simulator's only\n\
timing is the engine's wall-time telemetry, which it keeps out of the\n\
deterministic result fields; a clock read anywhere else tends to leak\n\
into output or, worse, into control flow. Wall-clock benchmarking lives\n\
in perfbench, outside the audited workspace.\n\
\n\
Flagged: `Instant::now` and `SystemTime::now` in every audited crate.\n\
Wall-time measurement sites that only feed telemetry fields excluded\n\
from determinism diffs carry `// audit: allow(det-clock) -- <reason>`.",
    },
    Rule {
        id: "det-entropy",
        summary: "ambient entropy sources (thread_rng, RandomState, getrandom)",
        explain: "\
The workspace's only legitimate randomness is the in-repo SplitMix64\n\
stream, seeded deterministically per experiment cell. Ambient entropy —\n\
`thread_rng`, `ThreadRng`, `from_entropy`, `getrandom`, an explicit\n\
`RandomState` — reintroduces run-to-run variation that the engine's\n\
byte-identical contract cannot tolerate.\n\
\n\
Fix: derive randomness from the cell's workload seed (see\n\
crates/trace/src/rng.rs).",
    },
    Rule {
        id: "det-unordered-iter",
        summary: "iteration over a hash-based collection",
        explain: "\
Even with a deterministic hasher, hash-map iteration order is an\n\
implementation detail of capacity and insertion history — it is not a\n\
stable contract, and it changes across std versions. Any loop over a\n\
HashMap/HashSet that feeds JSONL output, stats, or control flow is a\n\
reproducibility hazard.\n\
\n\
Flagged: `.iter()`, `.keys()`, `.values()`, `.drain()`, `.retain()`,\n\
`.into_iter()` and `for … in <binding>` where <binding> was lexically\n\
bound to a HashMap/HashSet in the same file.\n\
\n\
Fix: iterate a BTreeMap, sort the keys first, or — for order-insensitive\n\
reductions like sums — justify with\n\
`// audit: allow(det-unordered-iter) -- <reason>`.",
    },
    Rule {
        id: "det-thread",
        summary: "thread::spawn/std::thread outside the engine and shard (lookup worker) modules",
        explain: "\
All parallelism in this workspace flows through two audited modules:\n\
crates/sim/src/engine.rs (the shared-cursor matrix executor behind\n\
--jobs) and crates/sim/src/shard.rs (the set-range lookup workers behind\n\
--shards). Both were designed so that thread scheduling cannot reach\n\
the output: cells land in a slot-indexed result vector, and range plans\n\
are received per chunk in range order and spliced in stream order. A\n\
thread spawned anywhere else has no such discipline — whatever it\n\
computes reaches the results in completion order, which varies run to\n\
run and silently breaks the byte-identical JSONL contract.\n\
\n\
Flagged outside those two files: `thread::spawn`, any `std::thread`\n\
path (scope, spawn, available_parallelism via the module), and\n\
`rayon`/`crossbeam` idents. Not flagged: `#[cfg(test)]` code.\n\
\n\
Fix: express the parallelism as engine cells or shard workers so the\n\
existing merge discipline applies, or justify with\n\
`// audit: allow(det-thread) -- <reason>`.",
    },
    Rule {
        id: "hot-panic",
        summary: "panic/unwrap/expect/assert in a fn on the computed hot path",
        explain: "\
The hot set is every fn the workspace call graph reaches from the hot\n\
roots: each controller's `access`/`access_batch` (Bumblebee's remap-set\n\
lookup, hotness-based allocation and movement, every baseline) and the\n\
per-chunk entry points the simulator drives around them\n\
(`System::{service, step_batch, plan_and_service}`,\n\
`BumblebeeController::plan_range`, `splice`, `DramDevice::{access,\n\
access_chunk}`, `Channel::schedule`, `Workload::fill_batch`). A panic\n\
there takes down the whole experiment engine mid-matrix, and\n\
`unwrap`/`expect` hide invariant assumptions the checked build mode\n\
should be verifying instead.\n\
\n\
Flagged inside hot fns: `panic!`, `unreachable!`, `todo!`,\n\
`unimplemented!`, `assert!`/`assert_eq!`/`assert_ne!`, `.unwrap()`,\n\
`.expect()`. Not flagged: `debug_assert*` (compiled out in release) and\n\
anything under `#[cfg(test)]`. The finding names the caller the fn was\n\
reached through.\n\
\n\
Fix: restructure so the invariant is a typed impossibility, move the\n\
check into the `checked` feature's invariant sweep, justify the line\n\
with `// audit: allow(hot-panic) -- <reason>`, or — when the fn is not\n\
per-access work at all — declare a cold boundary (see hot-transitive).",
    },
    Rule {
        id: "hot-alloc",
        summary: "heap allocation in a fn on the computed hot path",
        explain: "\
The PR-4 O(1) overhaul made the steady-state access path allocation\n\
free: all per-set metadata lives in fixed boxed slices sized at\n\
construction, and scratch vectors retain capacity across calls. A stray\n\
`format!` or `Box::new` in the access flow quietly costs more than most\n\
algorithmic regressions. The audited fns are the computed hot set (see\n\
hot-panic).\n\
\n\
Flagged inside hot fns: `Box::new`, `vec![…]`, `format!`,\n\
`String::new`/`String::from`, `.to_string()`, `.to_owned()`,\n\
`.to_vec()`, `.collect()`, and `.push(…)`/`.extend(…)` on a local that\n\
was bound to `Vec::new()` in the same fn (pushes to preallocated,\n\
capacity-retaining buffers are fine and are not flagged).\n\
\n\
Fix: preallocate at construction, reuse scratch buffers, or justify\n\
with `// audit: allow(hot-alloc) -- <reason>`.",
    },
    Rule {
        id: "hot-transitive",
        summary: "cold boundary: allow(hot-transitive) prunes the computed hot set",
        explain: "\
The hot-* rules need no annotations: the workspace pass builds a\n\
cross-crate call graph (free calls, `self.` and `Self::` methods,\n\
`Type::name` paths, and receiver-typed method calls resolved against\n\
every impl whose type or trait is named in the caller's file; a\n\
std-named method such as `push` or `get` resolves only to impls of\n\
types the caller's file names) and walks it, cycle-tolerant, from the\n\
hot roots listed under hot-panic. Every non-test fn with a body that\n\
the walk reaches is in the hot set.\n\
\n\
This rule id names the one way out: a fn carrying\n\
`// audit: allow(hot-transitive) -- <reason>` is a declared cold\n\
boundary — it is left out of the hot set and the walk does not descend\n\
into its callees. Use it for genuinely cold exits from the access flow\n\
(epoch rollover, the checked-build invariant sweep, error paths). The\n\
rule reports no findings of its own; the boundaries show up in the\n\
exception report like every other allow.",
    },
    Rule {
        id: "merge-commutative",
        summary: "shard-merge fn uses an order-dependent operation",
        explain: "\
Fns annotated `// audit: merge` fold one partial state into another\n\
(CtrlStats::merge, EpochPartial::absorb, merge_shard_events). The\n\
set-range lookup sums its ranges' counters and epoch partials in range\n\
order, but the byte-identity contract at\n\
any `--shards` width additionally requires every merge step to be\n\
commutative and associative — then the fold's result is independent of\n\
how the sets were split in the first place.\n\
\n\
Flagged inside merge fns: non-commutative compound assigns (`-=`, `*=`,\n\
`/=`, `%=`, `&=`, `^=`, shifts); a plain `=` overwriting a `self` field\n\
(last-writer-wins) unless it is a self-referential fold through\n\
`max`/`min`/`saturating_*`; any reference to shard identity\n\
(`shard_id`, `worker_id`, …); hash-ordered containers\n\
(HashMap/HashSet); and order comparison between operands (`Ordering`,\n\
`.cmp()`, `.partial_cmp()`). Sorting *local* accumulators by a\n\
deterministic key (`sort_by_key(|r| r.seq)`) is fine — it canonicalizes\n\
order rather than depending on it.\n\
\n\
Fix: express the merge as `+=`/`|=` folds and max/min/saturating\n\
updates, or justify with `// audit: allow(merge-commutative) -- <reason>`.",
    },
    Rule {
        id: "unit-mismatch",
        summary: "arithmetic mixes annotated cycle/byte/access/ns domains",
        explain: "\
The simulator keeps four integer domains in bare u64 fields: `cycles`\n\
(simulated DRAM time), `bytes` (traffic), `accesses` (event counts) and\n\
`ns` (wall-clock time). `// audit: unit(<domain>)` annotations\n\
on fields and fns put their *names* in a workspace-wide unit table;\n\
this rule then flags `+`, `-`, compound adds and comparisons whose two\n\
operands resolve to different annotated domains — adding bytes to\n\
cycles, or comparing wall-clock ns against sim cycles — in crates/core,\n\
crates/dram, crates/obs and crates/sim.\n\
\n\
The model is name-keyed and lexical: operands resolve through field\n\
chains (`self.bw.cycles` → `cycles`), calls (`total_bytes()` →\n\
`total_bytes`) and indexing; numeric literals and unannotated names\n\
never flag. A name annotated with *conflicting* units in different\n\
files is dropped from the table entirely. Multiplication, division and\n\
shifts are never checked — they legitimately change units\n\
(bytes/cycle, cycles×width).\n\
\n\
Fix: convert explicitly in a named helper so the result carries the\n\
right annotation, or justify with\n\
`// audit: allow(unit-mismatch) -- <reason>`.",
    },
    Rule {
        id: "obs-counter-reconcile",
        summary: "pub counter in crates/obs outside every reconciliation check",
        explain: "\
The paper's traffic taxonomy (§III-E) is only trustworthy because the\n\
cause-attributed counters are *reconciled*: class-byte sums must equal\n\
device byte totals exactly, latency-component sums must equal total\n\
latency, epoch partials must sum to the sequential run. This rule makes\n\
that a closed system: every pub integer field declared in crates/obs\n\
must be named by at least one reconciliation context — a #[cfg(test)]\n\
region anywhere in the workspace, an integration-test file, or the body\n\
of a fn whose name contains reconcile/invariant/validate/verify/check.\n\
A counter no check ever reads is a counter whose drift nobody notices.\n\
\n\
Fix: extend a reconciliation invariant or test to cover the counter, or\n\
justify with `// audit: allow(obs-counter-reconcile) -- <reason>` on\n\
the field's line.",
    },
    Rule {
        id: "struct-attrs",
        summary: "crate root missing #![forbid(unsafe_code)] / #![deny(missing_docs)]",
        explain: "\
Every crate root (src/lib.rs) must carry `#![forbid(unsafe_code)]` and\n\
`#![deny(missing_docs)]`. The first makes the no-unsafe policy\n\
machine-checked forever; the second makes rustc the one enforcement\n\
point for API docs on every pub item. A crate that genuinely cannot deny\n\
missing_docs may carry `#![allow(missing_docs)]` plus\n\
`// audit: allow(struct-attrs) -- <reason>` at the top of the root.",
    },
    Rule {
        id: "audit-syntax",
        summary: "malformed // audit: directive",
        explain: "\
An `// audit:` comment that does not parse as `merge`, `unit(<u>)` or\n\
`allow(<rule>) -- <reason>` is reported rather than ignored: a typo'd\n\
annotation that silently does nothing is worse than none at all. That\n\
includes a leftover `hot-path` marker — the hot set is computed from\n\
the call graph, so the marker would only mislead. An `allow` of an\n\
unknown rule id is reported too. This rule cannot be allow()ed away —\n\
fix the directive.",
    },
];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// True when `id` names a catalog rule (used to validate `allow(...)`).
pub fn is_known(id: &str) -> bool {
    rule(id).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_lookup_works() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(RULES[i + 1..].iter().all(|o| o.id != r.id), "dup {}", r.id);
            assert_eq!(rule(r.id).unwrap().id, r.id);
            assert!(!r.summary.is_empty() && !r.explain.is_empty());
        }
        assert!(!is_known("no-such-rule"));
    }
}
