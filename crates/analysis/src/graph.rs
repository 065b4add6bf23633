//! The workspace pass: symbol table, cross-crate call graph, and the
//! computed hot set the `hot-*` rules audit.
//!
//! The hot set is the per-access flow of the simulator: Bumblebee's
//! remap-set lookup, hotness-based allocation and movement, the baseline
//! controllers, the DRAM devices and the chunked service loop. It is
//! derived, not declared:
//!
//! 1. **Symbol table** — every non-test `fn` in the workspace, indexed by
//!    name, by `(owner type, name)` and by `(trait, name)`, using the
//!    impl/trait attribution recovered by [`crate::items`];
//! 2. **Call graph** — call sites extracted from each fn body and resolved
//!    by shape: free calls and `crate::`/module-qualified paths resolve to
//!    free fns (same file first), `self.`/`Self::` calls to the caller's
//!    owner type, `Type::name` paths to that type, and `recv.name(…)`
//!    method calls fan out to every type (or trait impl) whose name is
//!    mentioned in the caller's file — the receiver-type heuristic that
//!    makes dyn-trait dispatch (`Box<dyn HybridMemoryController>`) land on
//!    all implementations;
//! 3. **Reachability** — a cycle-tolerant BFS from [`CallGraph::roots`]
//!    that stops at declared cold boundaries
//!    (`// audit: allow(hot-transitive) -- <reason>` on a fn) and yields
//!    [`CallGraph::hot_set`].
//!
//! Everything is deterministic: symbol tables are `BTreeMap`s, edge sets
//! are `BTreeSet`s, and the BFS visits in id order, so findings come out
//! in the same order on every run.

use crate::items::{self, FileStructure};
use crate::lexer::{lex, TokKind, Token};
use crate::rules::CALLEE_SKIP;
use std::collections::{BTreeMap, BTreeSet};

/// One lexed + analyzed source file of the workspace pass.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path (used in findings and for rule scoping).
    pub rel: String,
    /// The flat token stream, comments included.
    pub toks: Vec<Token>,
    /// Recovered item structure.
    pub st: FileStructure,
    /// Every distinct ident in the file (receiver-type heuristic input).
    pub idents: BTreeSet<String>,
}

/// The workspace: every file the audit covers, lexed and analyzed once.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Files in deterministic (sorted-path) order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Builds the workspace from `(repo-relative path, source)` pairs.
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let files = sources
            .into_iter()
            .map(|(rel, src)| {
                let toks = lex(&src);
                let st = items::analyze(&toks);
                let idents = toks
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .collect();
                SourceFile { rel, toks, st, idents }
            })
            .collect();
        Workspace { files }
    }
}

/// Identifies one fn: `(file index, index into that file's fn list)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnId {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's [`FileStructure::fns`].
    pub idx: usize,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CallShape {
    /// `name(…)`, `crate::name(…)`, `module::name(…)` — a free fn.
    Free(String),
    /// `self.name(…)` or `Self::name(…)` — a method on the caller's type.
    OwnMethod(String),
    /// `Type::name(…)` — an explicit path through a type or trait.
    TypePath(String, String),
    /// `recv.name(…)` or `…).name(…)` — receiver of unknown type.
    Method(String),
}

/// The cross-crate call graph plus the symbol tables it was resolved with.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Resolved call edges, caller → set of callees.
    pub edges: BTreeMap<FnId, BTreeSet<FnId>>,
    /// Total resolved edges (for the audit summary line).
    pub edge_count: usize,
    free_by_name: BTreeMap<String, Vec<FnId>>,
    method_by_name: BTreeMap<String, Vec<FnId>>,
    by_owner: BTreeMap<(String, String), Vec<FnId>>,
    by_trait: BTreeMap<(String, String), Vec<FnId>>,
}

impl CallGraph {
    /// Builds the symbol table and resolves every call site.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut g = CallGraph::default();
        for (fi, file) in ws.files.iter().enumerate() {
            for (idx, f) in file.st.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let id = FnId { file: fi, idx };
                match &f.owner {
                    None => g.free_by_name.entry(f.name.clone()).or_default().push(id),
                    Some(owner) => {
                        g.method_by_name.entry(f.name.clone()).or_default().push(id);
                        g.by_owner.entry((owner.clone(), f.name.clone())).or_default().push(id);
                        if let Some(tr) = &f.trait_name {
                            g.by_trait.entry((tr.clone(), f.name.clone())).or_default().push(id);
                        }
                    }
                }
            }
        }
        for (fi, file) in ws.files.iter().enumerate() {
            for (idx, f) in file.st.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let Some((start, end)) = f.body else { continue };
                let caller = FnId { file: fi, idx };
                let mut callees = BTreeSet::new();
                for shape in call_sites(&file.toks, start, end) {
                    for callee in g.resolve(ws, caller, &shape) {
                        if callee != caller {
                            callees.insert(callee);
                        }
                    }
                }
                g.edge_count += callees.len();
                if !callees.is_empty() {
                    g.edges.insert(caller, callees);
                }
            }
        }
        g
    }

    /// Resolves one call shape to candidate fns, conservatively: an
    /// unresolvable call produces no edge rather than a spurious fan-out.
    fn resolve(&self, ws: &Workspace, caller: FnId, shape: &CallShape) -> Vec<FnId> {
        let caller_file = caller.file;
        let same_file = |ids: &[FnId]| -> Vec<FnId> {
            ids.iter().copied().filter(|id| id.file == caller_file).collect()
        };
        match shape {
            CallShape::Free(name) => {
                let Some(ids) = self.free_by_name.get(name) else { return Vec::new() };
                let local = same_file(ids);
                if local.is_empty() { ids.clone() } else { local }
            }
            CallShape::OwnMethod(name) => {
                let owner = ws.files[caller.file].st.fns[caller.idx].owner.clone();
                let Some(owner) = owner else { return Vec::new() };
                let mut out: Vec<FnId> = self
                    .by_owner
                    .get(&(owner.clone(), name.clone()))
                    .cloned()
                    .unwrap_or_default();
                // When the owner is itself a trait (a default method calling
                // self.other()), fan out to every implementation too.
                if let Some(impls) = self.by_trait.get(&(owner, name.clone())) {
                    out.extend(impls.iter().copied());
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            CallShape::TypePath(ty, name) => {
                let mut out: Vec<FnId> =
                    self.by_owner.get(&(ty.clone(), name.clone())).cloned().unwrap_or_default();
                if let Some(impls) = self.by_trait.get(&(ty.clone(), name.clone())) {
                    out.extend(impls.iter().copied());
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            CallShape::Method(name) => {
                let Some(ids) = self.method_by_name.get(name) else { return Vec::new() };
                let idents = &ws.files[caller_file].idents;
                // A std-named method (`push`, `get`, …) resolves only to an
                // impl of a type the caller's file names: its receiver is
                // usually a std collection, but a workspace ring or bitmap
                // that shadows the name must still join the hot set.
                let std_named = CALLEE_SKIP.contains(&name.as_str());
                let mentioned = |id: &FnId| {
                    let f = &ws.files[id.file].st.fns[id.idx];
                    let owner_named = f.owner.as_ref().is_some_and(|o| idents.contains(o));
                    owner_named
                        || !std_named
                            && (id.file == caller_file
                                || f.trait_name.as_ref().is_some_and(|t| idents.contains(t)))
                };
                ids.iter().copied().filter(mentioned).collect()
            }
        }
    }

    /// The hot roots: every `access`/`access_batch` method on a
    /// controller (owner named `*Controller*` or an impl of the
    /// `HybridMemoryController` trait) plus the per-chunk entry points
    /// the simulator drives outside `access` ([`CHUNK_ROOTS`]).
    pub fn roots(&self, ws: &Workspace) -> Vec<FnId> {
        let mut roots = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (idx, f) in file.st.fns.iter().enumerate() {
                if f.in_test || f.body.is_none() {
                    continue;
                }
                let is_ctrl = f.owner.as_ref().is_some_and(|o| o.contains("Controller"))
                    || f.trait_name.as_deref() == Some("HybridMemoryController");
                let hit = (is_ctrl && matches!(f.name.as_str(), "access" | "access_batch"))
                    || CHUNK_ROOTS.contains(&(f.owner.as_deref(), f.name.as_str()));
                if hit {
                    roots.push(FnId { file: fi, idx });
                }
            }
        }
        roots
    }

    /// The computed hot set: every fn with a body reachable from
    /// [`CallGraph::roots`], mapped to the caller it was first reached
    /// from (roots map to themselves). A fn carrying
    /// `// audit: allow(hot-transitive) -- <reason>` is a declared cold
    /// boundary: it is left out and the walk does not descend into it.
    pub fn hot_set(&self, ws: &Workspace) -> BTreeMap<FnId, FnId> {
        let cold = |id: FnId| {
            let st = &ws.files[id.file].st;
            let f = &st.fns[id.idx];
            st.allowed("hot-transitive", f.line, f.body.map_or(usize::MAX, |(s, _)| s))
        };
        let mut reach = self.reachable(&self.roots(ws), |id| !cold(id));
        // Bodiless fns (trait method signatures) have no code to audit —
        // the impls they fan out to are the auditable surface.
        reach.retain(|&id, _| !cold(id) && ws.files[id.file].st.fns[id.idx].body.is_some());
        reach
    }

    /// Cycle-tolerant BFS from `roots`. Returns every reached fn mapped to
    /// the caller it was first reached from (roots map to themselves).
    /// `descend` decides whether the walk expands a node's callees, so a
    /// cold boundary prunes its whole subtree.
    pub fn reachable(
        &self,
        roots: &[FnId],
        mut descend: impl FnMut(FnId) -> bool,
    ) -> BTreeMap<FnId, FnId> {
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<FnId> = roots.iter().copied().collect();
        for r in roots {
            parent.insert(*r, *r);
        }
        while let Some(id) = queue.pop_front() {
            if !descend(id) {
                continue;
            }
            if let Some(callees) = self.edges.get(&id) {
                for &c in callees {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(c) {
                        e.insert(id);
                        queue.push_back(c);
                    }
                }
            }
        }
        parent
    }
}

/// Entry points the simulator drives per chunk outside a controller's
/// `access`, as `(owner type, name)`; a `None` owner is a free fn.
const CHUNK_ROOTS: &[(Option<&str>, &str)] = &[
    (Some("Channel"), "schedule"),
    (Some("System"), "service"),
    (Some("System"), "step_batch"),
    (Some("System"), "plan_and_service"),
    (Some("BumblebeeController"), "plan_range"),
    (None, "splice"),
    (Some("DramDevice"), "access"),
    (Some("DramDevice"), "access_chunk"),
    (Some("Workload"), "fill_batch"),
];

/// Extracts the call shapes in one fn body's token range.
fn call_sites(toks: &[Token], start: usize, end: usize) -> Vec<CallShape> {
    let mut out = Vec::new();
    let end = end.min(toks.len().saturating_sub(1));
    for i in start..=end {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !next_code_is(toks, i + 1, '(') {
            continue;
        }
        let Some((j, prev)) = prev_code(toks, i) else {
            out.push(CallShape::Free(t.text.clone()));
            continue;
        };
        if prev.is_ident("fn") {
            continue; // a nested fn's own signature
        }
        if prev.is_punct('.') {
            match prev_code(toks, j) {
                Some((_, r)) if r.is_ident("self") => out.push(CallShape::OwnMethod(t.text.clone())),
                _ => out.push(CallShape::Method(t.text.clone())),
            }
        } else if prev.is_punct(':') {
            // `qual::name(` — walk back over the `::`.
            let seg = prev_code(toks, j)
                .filter(|(_, c)| c.is_punct(':'))
                .and_then(|(k, _)| prev_code(toks, k));
            match seg {
                Some((_, q)) if q.is_ident("Self") => out.push(CallShape::OwnMethod(t.text.clone())),
                Some((_, q)) if q.kind == TokKind::Ident => {
                    let first = q.text.chars().next().unwrap_or('_');
                    if first.is_ascii_uppercase() {
                        out.push(CallShape::TypePath(q.text.clone(), t.text.clone()));
                    } else {
                        // `crate::name`, `self::name`, `module::name` — a
                        // path to a free fn.
                        out.push(CallShape::Free(t.text.clone()));
                    }
                }
                _ => {}
            }
        } else {
            out.push(CallShape::Free(t.text.clone()));
        }
    }
    out
}

/// Next non-comment token at `i` is the punct `c`.
fn next_code_is(toks: &[Token], i: usize, c: char) -> bool {
    toks.iter().skip(i).find(|t| !t.is_comment()).is_some_and(|t| t.is_punct(c))
}

/// Previous non-comment token strictly before `i`.
fn prev_code(toks: &[Token], i: usize) -> Option<(usize, &Token)> {
    toks[..i].iter().enumerate().rev().find(|(_, t)| !t.is_comment())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files.iter().map(|(r, s)| (r.to_string(), s.to_string())).collect(),
        )
    }

    fn find(w: &Workspace, name: &str) -> FnId {
        for (fi, f) in w.files.iter().enumerate() {
            if let Some(idx) = f.st.fns.iter().position(|f| f.name == name) {
                return FnId { file: fi, idx };
            }
        }
        panic!("fn {name} not found");
    }

    #[test]
    fn cross_file_free_and_type_calls_resolve() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "fn top() { helper(); Dev::serve(1); }\nstruct Dev;"),
            ("crates/b/src/lib.rs", "pub fn helper() {}\nimpl Dev { pub fn serve(_x: u32) {} }"),
        ]);
        let g = CallGraph::build(&w);
        let edges = g.edges.get(&find(&w, "top")).unwrap();
        assert!(edges.contains(&find(&w, "helper")));
        assert!(edges.contains(&find(&w, "serve")));
    }

    #[test]
    fn same_file_free_fn_shadows_cross_file() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "fn top() { helper(); }\nfn helper() {}"),
            ("crates/b/src/lib.rs", "pub fn helper() {}"),
        ]);
        let g = CallGraph::build(&w);
        let edges = g.edges.get(&find(&w, "top")).unwrap();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges.iter().next().unwrap().file, 0);
    }

    #[test]
    fn trait_method_call_fans_out_to_mentioned_impls() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn drive(c: &mut Box<dyn Ctl>) { c.step(); }\ntrait Ctl { fn step(&mut self); }",
            ),
            ("crates/b/src/lib.rs", "impl Ctl for Fast { fn step(&mut self) {} }\nstruct Fast;"),
            ("crates/c/src/lib.rs", "impl Other { fn step(&mut self) {} }\nstruct Other;"),
        ]);
        let g = CallGraph::build(&w);
        let edges = g.edges.get(&find(&w, "drive")).unwrap();
        // Fans out to the trait impl (trait named in caller's file) but not
        // to the unrelated type never mentioned there.
        assert!(edges.iter().any(|id| id.file == 1));
        assert!(!edges.iter().any(|id| id.file == 2));
    }

    #[test]
    fn reachability_tolerates_cycles() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() { a(); }",
        )]);
        let g = CallGraph::build(&w);
        let reach = g.reachable(&[find(&w, "a")], |_| true);
        assert_eq!(reach.len(), 3);
    }

    #[test]
    fn descend_false_prunes_subtree() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn a() { cold(); }\nfn cold() { deep(); }\nfn deep() {}",
        )]);
        let g = CallGraph::build(&w);
        let cold = find(&w, "cold");
        let reach = g.reachable(&[find(&w, "a")], |id| id != cold);
        assert!(reach.contains_key(&cold));
        assert!(!reach.contains_key(&find(&w, "deep")));
    }

    #[test]
    fn roots_cover_controllers_and_chunk_entry_points() {
        let w = ws(&[
            (
                "crates/core/src/lib.rs",
                "impl HybridMemoryController for Bee { fn access(&mut self) {} }\nstruct Bee;\n\
                 pub fn splice() {}",
            ),
            ("crates/dram/src/lib.rs", "impl Channel { pub fn schedule(&mut self) {} }"),
            ("crates/x/src/lib.rs", "impl FooController { fn access_batch(&mut self) {} }"),
            ("crates/trace/src/lib.rs", "impl Workload { fn fill_batch(&mut self) {} fn seed(&self) {} }"),
        ]);
        let g = CallGraph::build(&w);
        let roots = g.roots(&w);
        assert_eq!(roots.len(), 5, "{roots:?}");
        assert!(!roots.contains(&find(&w, "seed")));
    }

    #[test]
    fn std_named_methods_resolve_only_to_named_types() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "fn hot(r: &mut Ring, v: &mut Vec<u8>) { r.push(1); v.len(); }"),
            ("crates/b/src/lib.rs", "impl Ring { fn push(&mut self, _x: u8) {} }\nimpl Bag { fn len(&self) {} }"),
        ]);
        let g = CallGraph::build(&w);
        let edges = g.edges.get(&find(&w, "hot")).unwrap();
        // `Ring` is named in the caller's file, `Bag` is not.
        assert_eq!(edges.iter().copied().collect::<Vec<_>>(), vec![find(&w, "push")]);
    }

    #[test]
    fn hot_set_stops_at_cold_boundaries() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl DemoController { fn access(&mut self) { warm(); cold(); } }\nfn warm() {}\n\
             // audit: allow(hot-transitive) -- once per epoch\nfn cold() { deep(); }\nfn deep() {}",
        )]);
        let g = CallGraph::build(&w);
        let hot = g.hot_set(&w);
        let names: Vec<&str> =
            hot.keys().map(|id| w.files[id.file].st.fns[id.idx].name.as_str()).collect();
        assert_eq!(names, vec!["access", "warm"]);
    }
}
