#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Zero-dependency determinism & hot-path static analysis for the
//! Bumblebee workspace.
//!
//! The evaluation substrate rests on two properties `cargo clippy` cannot
//! check: **bit-identical simulation output** at any `--jobs` width, and an
//! **allocation/panic-free controller hot path**. This crate enforces both
//! offline, with no syntax-tree dependency — a hand-rolled lexer
//! ([`lexer`]), a thin item-structure recovery pass ([`items`]), and a
//! rule engine ([`check`]) driven by the catalog in [`rules`]:
//!
//! * `det-*` — bans `HashMap`/`HashSet` with the default `RandomState`,
//!   wall-clock reads outside `crates/obs`, ambient entropy, and iteration
//!   over unordered maps;
//! * `hot-*` — bans panics and heap allocation in the hot set: every fn
//!   the cross-crate call graph ([`graph`]) reaches from the controller
//!   and per-chunk roots, minus declared cold boundaries;
//! * `struct-attrs` — crate roots must `#![forbid(unsafe_code)]` and
//!   `#![deny(missing_docs)]`, so rustc documents every pub item.
//!
//! Audited exceptions use `// audit: allow(<rule>) -- <reason>`; the tool
//! counts and reports them (see [`items`] for the grammar). The CLI lives
//! in `bin/audit_tool` (`check` / `list-rules` / `explain <rule>`) and is
//! a hard gate in `scripts/verify.sh`.
//!
//! The dynamic complement — cross-structure invariant sweeps behind
//! `--features checked` in `bumblebee-core` — is documented in DESIGN.md
//! ("Static analysis & checked builds").

pub mod check;
pub mod graph;
pub mod items;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod units;

pub use check::{check_source, check_workspace, AuditReport, Finding};

/// Process exit-code conventions shared by every workspace CLI tool
/// (`audit_tool`, `trace_tool` and the figure binaries).
///
/// * [`OK`](exitcode::OK) — clean run, nothing to report;
/// * [`FINDINGS`](exitcode::FINDINGS) — the tool ran correctly and found
///   real problems (lint findings, regressions, diffs);
/// * [`USAGE`](exitcode::USAGE) — bad arguments or unreadable/invalid
///   input; the check itself never ran.
pub mod exitcode {
    /// Clean run.
    pub const OK: i32 = 0;
    /// The tool ran and found problems (findings, regressions, diffs).
    pub const FINDINGS: i32 = 1;
    /// Usage or I/O error — the check never ran.
    pub const USAGE: i32 = 2;
}
