//! Sensitivity sweeps over Bumblebee's design choices (§IV-A parameters).
//!
//! Positional argument selects the sweep: `hot-queue`, `switch-fraction`,
//! `ways`, `zombie`, or `all` (default).

use bumblebee_bench::usage_exit;
use memsim_sim::figures::sensitivity;
use memsim_types::GeometryError;

fn main() {
    let opts = bumblebee_bench::parse_env();
    let bad_scale = |e: GeometryError| -> Vec<sensitivity::SweepPoint> {
        usage_exit(&format!("--scale {}: swept geometry: {e}", opts.cfg.scale))
    };
    let which = opts.rest.first().map(String::as_str).unwrap_or("all");
    let engine = opts.engine();
    if opts.metrics {
        eprintln!("note: --metrics has no per-cell telemetry here; sweeps aggregate over many matrices");
    }
    println!(
        "Sensitivity sweeps over {} workloads (scale 1/{}, {} jobs)",
        opts.profiles.len(),
        opts.cfg.scale,
        engine.jobs()
    );
    let mut points = Vec::new();
    if which == "hot-queue" || which == "all" {
        points.extend(
            sensitivity::sweep_hot_queue_with(&engine, &opts.cfg, &opts.profiles).unwrap_or_else(bad_scale),
        );
    }
    if which == "switch-fraction" || which == "all" {
        points.extend(
            sensitivity::sweep_switch_fraction_with(&engine, &opts.cfg, &opts.profiles)
                .unwrap_or_else(bad_scale),
        );
    }
    if which == "ways" || which == "all" {
        points.extend(
            sensitivity::sweep_ways_with(&engine, &opts.cfg, &opts.profiles).unwrap_or_else(bad_scale),
        );
    }
    if which == "zombie" || which == "all" {
        points.extend(
            sensitivity::sweep_zombie_window_with(&engine, &opts.cfg, &opts.profiles)
                .unwrap_or_else(bad_scale),
        );
    }
    opts.write_jsonl("sensitivity", &sensitivity::jsonl_lines(&points));
    println!("{}", sensitivity::render(&points));
}
