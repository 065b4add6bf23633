//! Sensitivity sweeps over Bumblebee's design choices (§IV-A parameters).
//!
//! Positional argument selects the sweep: `hot-queue`, `switch-fraction`,
//! `ways`, `zombie`, or `all` (default).

use bumblebee_bench::usage_exit;
use memsim_sim::figures::sensitivity::{self, SweepPoint};
use memsim_sim::{Engine, RunConfig};
use memsim_trace::SpecProfile;
use memsim_types::GeometryError;

type Sweep = fn(&Engine, &RunConfig, &[SpecProfile]) -> Result<Vec<SweepPoint>, GeometryError>;

/// Every sweep by its selector name, in output order.
const SWEEPS: [(&str, Sweep); 4] = [
    ("hot-queue", sensitivity::sweep_hot_queue_with),
    ("switch-fraction", sensitivity::sweep_switch_fraction_with),
    ("ways", sensitivity::sweep_ways_with),
    ("zombie", sensitivity::sweep_zombie_window_with),
];

/// Exits 2: a swept geometry does not fit at `--scale scale`.
fn bad_scale<T>(scale: u64, e: GeometryError) -> T {
    usage_exit(&format!("--scale {scale}: swept geometry: {e}"))
}

fn main() {
    let names: Vec<&str> = SWEEPS
        .iter()
        .map(|&(name, _)| name)
        .chain(["all"])
        .collect();
    let (opts, which) = bumblebee_bench::parse_env_selecting(&names);
    let which = which.as_deref().unwrap_or("all");
    let scale = opts.cfg.scale;
    sensitivity::validate(&opts.cfg).unwrap_or_else(|e| bad_scale(scale, e));
    let engine = opts.engine();
    if opts.metrics {
        eprintln!(
            "note: --metrics has no per-cell telemetry here; sweeps aggregate over many matrices"
        );
    }
    println!(
        "Sensitivity sweeps over {} workloads (scale 1/{}, {} jobs)",
        opts.profiles.len(),
        opts.cfg.scale,
        engine.jobs()
    );
    let mut points = Vec::new();
    for (name, sweep) in SWEEPS {
        if which == name || which == "all" {
            points.extend(
                sweep(&engine, &opts.cfg, &opts.profiles).unwrap_or_else(|e| bad_scale(scale, e)),
            );
        }
    }
    opts.write_jsonl("sensitivity", &sensitivity::jsonl_lines(&points));
    println!("{}", sensitivity::render(&points));
}
