//! Fixture corpus: clean and doctored files per rule.
//!
//! Each doctored fixture (`<stem>.doctored.rs`) marks its violating line
//! with a trailing `//~ <rule>` comment; the test asserts the auditor
//! reports exactly that rule on exactly that line. Every clean fixture
//! (`<stem>.clean.rs`) must produce no findings at all. The hot-* pairs
//! carry no annotations: each doctored body is reached only through the
//! call graph from a `DemoController::access` root. Fixtures live under
//! `tests/fixtures/` — a directory the workspace sweep deliberately
//! skips — so they document each rule without ever tripping the real
//! audit gate.

use memsim_analysis::check::check_ws;
use memsim_analysis::check_source;
use memsim_analysis::graph::Workspace;
use std::collections::BTreeSet;

/// The repo-relative path a fixture is audited *as*: struct-attrs needs a
/// crate root, obs-counter-reconcile a crates/obs path, everything else
/// a plain simulation-crate path.
fn rel_for(stem: &str) -> &'static str {
    match stem {
        "struct-attrs" => "crates/demo/src/lib.rs",
        "obs-counter-reconcile" => "crates/obs/src/fixture.rs",
        _ => "crates/sim/src/fixture.rs",
    }
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The stems of every top-level fixture with the given suffix.
fn stems(suffix: &str) -> Vec<String> {
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mut out: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("listing {dir}: {e}"))
        .filter_map(|e| e.ok()?.file_name().to_str()?.strip_suffix(suffix).map(String::from))
        .collect();
    out.sort();
    out
}

/// Line number (1-based) and rule of the `//~ <rule>` marker, if any.
fn marker(src: &str) -> Option<(u32, String)> {
    src.lines().enumerate().find_map(|(i, l)| {
        let rule = l.split("//~").nth(1)?.trim();
        Some(((i + 1) as u32, rule.to_string()))
    })
}

#[test]
fn clean_fixtures_produce_no_findings() {
    let clean = stems(".clean.rs");
    assert!(clean.len() >= 14, "fixture corpus shrank: {clean:?}");
    for stem in clean {
        let (findings, _) = check_source(rel_for(&stem), &fixture(&format!("{stem}.clean.rs")));
        assert!(findings.is_empty(), "{stem}.clean.rs should be clean, got: {findings:?}");
    }
}

#[test]
fn doctored_fixtures_trip_their_rule_at_the_marked_line() {
    let doctored = stems(".doctored.rs");
    assert!(doctored.len() >= 15, "fixture corpus shrank: {doctored:?}");
    for stem in doctored {
        let src = fixture(&format!("{stem}.doctored.rs"));
        let (findings, _) = check_source(rel_for(&stem), &src);
        // struct-attrs reports against line 1 of the crate root and carries
        // no marker; every other doctored fixture marks its line.
        let (line, rule) = marker(&src).unwrap_or((1, "struct-attrs".into()));
        assert!(!findings.is_empty(), "{stem}.doctored.rs produced no findings");
        assert!(
            findings.iter().all(|f| f.rule == rule),
            "{stem}.doctored.rs tripped rules other than {rule}: {findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.line == line),
            "{stem}.doctored.rs: expected a finding on line {line}, got {findings:?}"
        );
    }
}

/// Loads the multi-file call-graph corpus (`clean` or `doctored`) as a
/// workspace of sim-crate files, returning it with each file's `//~`
/// marker (if any) as `(repo-relative path, line, rule)`.
fn graph_corpus(kind: &str) -> (Workspace, BTreeSet<(String, u32, String)>) {
    let mut sources = Vec::new();
    let mut markers = BTreeSet::new();
    for name in ["iface.rs", "ctrl.rs", "tuner.rs"] {
        let src = fixture(&format!("graph/{kind}/{name}"));
        let rel = format!("crates/sim/src/{name}");
        if let Some((line, rule)) = marker(&src) {
            markers.insert((rel.clone(), line, rule));
        }
        sources.push((rel, src));
    }
    (Workspace::from_sources(sources), markers)
}

#[test]
fn graph_corpus_clean_resolves_cross_file_and_cycles_quietly() {
    let (ws, markers) = graph_corpus("clean");
    assert!(markers.is_empty(), "clean corpus must not carry markers");
    let report = check_ws(&ws, &BTreeSet::new());
    assert!(report.clean(), "clean graph corpus flagged: {:?}", report.findings);
    // The corpus resolves cross-file free calls, a trait fan-out, and a
    // cross-file cycle — the walk must see real edges, not an empty graph.
    assert!(report.call_edges >= 5, "suspiciously few edges: {}", report.call_edges);
    // access, tune, spin, drift and the Backend impl's serve.
    assert_eq!(report.hot_fns, 5);
}

#[test]
fn graph_corpus_doctored_flags_exactly_the_cross_file_escapes() {
    let (ws, markers) = graph_corpus("doctored");
    let report = check_ws(&ws, &BTreeSet::new());
    let got: BTreeSet<(String, u32, String)> =
        report.findings.iter().map(|f| (f.path.clone(), f.line, f.rule.to_string())).collect();
    assert_eq!(markers.len(), 2, "corpus should mark one escape per file");
    assert_eq!(got, markers, "findings must match the `//~` markers exactly");
    // `drift` is pulled onto the hot path only by the tuner file; the
    // finding must name that cross-file route.
    let drift = report.findings.iter().find(|f| f.msg.contains("`drift`")).expect("drift finding");
    assert!(drift.msg.contains("reached via `tune`"), "expected the route in: {}", drift.msg);
}

#[test]
fn audited_exception_grammar_round_trips() {
    // The audit-syntax clean fixture uses a real allow directive: the
    // suppressed rule must surface as an audited exception, not a finding.
    let src = fixture("audit-syntax.clean.rs");
    let (findings, st) = check_source(rel_for("audit-syntax"), &src);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(st.allows.len(), 1);
    assert_eq!(st.allows[0].rule, "det-hashmap");
    assert!(st.allows[0].reason.contains("iteration order"));
}
