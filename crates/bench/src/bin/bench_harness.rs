//! The canonical performance harness: runs a pinned suite (Bumblebee +
//! all six baselines over a fixed scale / access volume / workload set)
//! with warm-up and median-of-N repeats, and writes a schema-versioned
//! `BENCH_<git-short-sha>.json` with per-case wall time, throughput,
//! cycle-domain invariants, and the span-profiler phase breakdown.
//!
//! ```text
//! bench_harness [--quick] [--repeats N] [--jobs N] [--shards N]
//!               [--batch N] [--out DIR] [--sha SHA] [--name NAME]
//! ```
//!
//! * `--quick` — the CI smoke suite (tiny scale, 1 repeat) instead of the
//!   canonical one;
//! * `--repeats N` — override the suite's timed repeat count;
//! * `--jobs N` — engine width (default 1: serial timing is the most
//!   stable);
//! * `--shards N` — set-range lookup workers inside every Bumblebee cell
//!   (the baselines keep their lookup on the cell's thread). The width is
//!   recorded in the BENCH header so `bench_tool compare` between
//!   `--shards 1` and `--shards N` turns the intra-run speedup into a
//!   diffable artifact; the cycle-domain invariants are identical at any
//!   width;
//! * `--batch N` — access-pipeline chunk width (recorded in the BENCH
//!   header; outputs are byte-identical at any width, so this is purely a
//!   throughput knob — compare `--batch 1` against the default to measure
//!   the batching speedup);
//! * `--sha SHA` — override the `git rev-parse --short HEAD` stamp;
//! * `--name NAME` — output file stem (default `BENCH_<sha>`), e.g.
//!   `--name bench_baseline` for the committed baseline;
//! * `--out DIR` — artifact directory (default `BUMBLEBEE_RESULTS_DIR` or
//!   `./results`).
//!
//! Compare two outputs with `bench_tool compare BASE.json NEW.json`.

use memsim_analysis::exitcode;
use bumblebee_bench::perf::{BenchCase, BenchReport, Suite, BENCH_SCHEMA};
use bumblebee_bench::{positive_flag, usage_exit};
use memsim_dram::presets;
use memsim_obs::LatCollector;
use memsim_sim::{Engine, ExperimentMatrix, MetricsConfig, ResultSet};
use memsim_types::{AccessPath, TrafficDevice};
use std::path::PathBuf;

/// Sampling rate of the untimed latency-attribution pass: coarse enough
/// to stay cheap, fine enough that every suite volume (the quick suite
/// runs 20 k accesses per cell) still lands hundreds of records.
const LAT_SAMPLE_RATE: u64 = 64;

struct Args {
    quick: bool,
    repeats: Option<usize>,
    jobs: usize,
    shards: Option<usize>,
    batch: Option<usize>,
    out: PathBuf,
    sha: Option<String>,
    name: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        repeats: None,
        jobs: 1,
        shards: None,
        batch: None,
        out: memsim_sim::results_dir(),
        sha: None,
        name: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(exitcode::USAGE);
            })
        };
        match a.as_str() {
            "--quick" => args.quick = true,
            "--repeats" => {
                args.repeats = Some(value("--repeats").parse().unwrap_or_else(|_| {
                    eprintln!("error: --repeats needs a positive number");
                    std::process::exit(exitcode::USAGE);
                }));
            }
            "--jobs" | "--shards" | "--batch" => {
                let n = positive_flag(&a, it.next()).unwrap_or_else(|e| usage_exit(&e));
                match a.as_str() {
                    "--jobs" => args.jobs = n,
                    "--shards" => args.shards = Some(n),
                    _ => args.batch = Some(n),
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")),
            "--sha" => args.sha = Some(value("--sha")),
            "--name" => args.name = Some(value("--name")),
            other => {
                eprintln!(
                    "error: unknown argument {other}\n\
                     usage: bench_harness [--quick] [--repeats N] [--jobs N] [--shards N] \
                     [--batch N] [--out DIR] [--sha SHA] [--name NAME]"
                );
                std::process::exit(exitcode::USAGE);
            }
        }
    }
    args
}

/// The repo's short git SHA, or `"nogit"` when git is unavailable (the
/// harness must work from a bare source export too).
fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "nogit".to_string())
}

/// Median of the timed repeats (mean of the two middles for even counts).
fn median_nanos(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2] as f64
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) as f64 / 2.0
    }
}

fn main() {
    let args = parse_args();
    let mut suite = if args.quick { Suite::quick() } else { Suite::canonical() };
    if let Some(r) = args.repeats {
        suite.repeats = r.max(1);
    }
    let matrix =
        ExperimentMatrix::cross("bench", &suite.designs, &suite.profiles, &suite.cfg);
    let mut engine = Engine::new(args.jobs)
        .with_shards(args.shards)
        .with_progress(true)
        .with_spans(true);
    if let Some(b) = args.batch {
        engine = engine.with_batch(b);
    }
    eprintln!(
        "[bench] suite {}: {} cells, {} warm-up run(s), median of {} repeat(s), jobs {}, {}",
        suite.name,
        matrix.len(),
        suite.warmup_runs,
        suite.repeats,
        args.jobs,
        args.shards.map_or("serial cells".to_string(), |s| format!("{s} shard(s) per cell")),
    );

    for w in 0..suite.warmup_runs {
        eprintln!("[bench] warm-up run {}/{}", w + 1, suite.warmup_runs);
        if let Err(e) = engine.run(&matrix) {
            eprintln!("error: warm-up run failed: {e}");
            std::process::exit(exitcode::USAGE);
        }
    }

    let mut per_cell: Vec<Vec<u64>> = vec![Vec::with_capacity(suite.repeats); matrix.len()];
    let mut trees = Vec::new();
    let mut busy_nanos = 0u64;
    let mut first: Option<ResultSet> = None;
    for r in 0..suite.repeats {
        eprintln!("[bench] timed repeat {}/{}", r + 1, suite.repeats);
        let rs = match engine.run(&matrix) {
            Ok(rs) => rs,
            Err(e) => {
                eprintln!("error: timed repeat failed: {e}");
                std::process::exit(exitcode::USAGE);
            }
        };
        for (i, &nanos) in rs.engine_telemetry().cell_nanos.iter().enumerate() {
            per_cell[i].push(nanos);
            busy_nanos += nanos;
        }
        trees.extend(rs.engine_telemetry().cell_spans.clone().expect("spans enabled"));
        first.get_or_insert(rs);
    }
    let first = first.expect("at least one repeat");

    // One extra UNTIMED instrumented run harvests the per-path tail
    // latencies and the cause-attributed traffic invariants: the timed
    // repeats above stay instrumentation-free, so the disabled-accounting
    // wall-time baseline is unaffected. A failure here only costs the
    // optional fields, never the BENCH report.
    eprintln!("[bench] untimed instrumented pass (sample rate {LAT_SAMPLE_RATE})");
    let mut lat_engine = Engine::new(args.jobs).with_shards(args.shards).with_metrics(
        MetricsConfig { sample_rate: LAT_SAMPLE_RATE, ..MetricsConfig::default() },
    );
    if let Some(b) = args.batch {
        lat_engine = lat_engine.with_batch(b);
    }
    let accesses_per_cell = suite.cfg.warmup + suite.cfg.accesses;
    struct CellHarvest {
        p95: [Option<u64>; 5],
        p99: [Option<u64>; 5],
        traffic_pa: Option<f64>,
        peak_util_pct: Option<f64>,
    }
    let harvest: Option<Vec<CellHarvest>> = match lat_engine.run(&matrix) {
        Ok(rs) => rs.observations().map(|all| {
            all.iter()
                .zip(rs.cells())
                .map(|(obs, cell)| {
                    let mut coll = LatCollector::new(MetricsConfig::default().epoch_interval);
                    for r in &obs.records {
                        coll.push(r);
                    }
                    let mut p95 = [None; 5];
                    let mut p99 = [None; 5];
                    for (i, path) in AccessPath::ALL.iter().enumerate() {
                        let p = coll.path(*path);
                        if p.count > 0 {
                            p95[i] = Some(p.hist.percentile(0.95));
                            p99[i] = Some(p.hist.percentile(0.99));
                        }
                    }
                    let traffic_pa = obs.traffic.matrix.total_bytes() as f64
                        / accesses_per_cell.max(1) as f64;
                    // Worst per-epoch utilization of either device against
                    // its Table I theoretical peak.
                    let hbm_peak = presets::hbm2(cell.cfg.geometry.hbm_bytes())
                        .peak_bytes_per_cpu_cycle();
                    let dram_peak = presets::ddr4_3200(cell.cfg.geometry.dram_bytes())
                        .peak_bytes_per_cpu_cycle();
                    let (mhbm, chbm, off) = (
                        TrafficDevice::MHbm.index(),
                        TrafficDevice::CHbm.index(),
                        TrafficDevice::OffChip.index(),
                    );
                    let mut peak = 0.0f64;
                    let mut prev_bytes = [0u64; 3];
                    let mut prev_cycles = 0u64;
                    for p in &obs.bw_points {
                        let cycles = p.cycles - prev_cycles;
                        if cycles > 0 {
                            let hbm = (p.class_bytes[mhbm] + p.class_bytes[chbm])
                                - (prev_bytes[mhbm] + prev_bytes[chbm]);
                            let dram = p.class_bytes[off] - prev_bytes[off];
                            peak = peak.max(100.0 * (hbm as f64 / cycles as f64) / hbm_peak);
                            peak = peak.max(100.0 * (dram as f64 / cycles as f64) / dram_peak);
                        }
                        prev_bytes = p.class_bytes;
                        prev_cycles = p.cycles;
                    }
                    CellHarvest {
                        p95,
                        p99,
                        traffic_pa: Some(traffic_pa),
                        peak_util_pct: Some(peak),
                    }
                })
                .collect()
        }),
        Err(e) => {
            eprintln!(
                "warning: instrumented pass failed ({e}); BENCH file omits tail and \
                 traffic fields"
            );
            None
        }
    };

    let mut cases: Vec<BenchCase> = matrix
        .cells()
        .iter()
        .zip(&mut per_cell)
        .zip(first.reports())
        .map(|((cell, samples), report)| {
            let wall = median_nanos(samples);
            BenchCase {
                design: cell.design.label().to_string(),
                workload: cell.profile.name.to_string(),
                wall_ms: wall / 1e6,
                accesses_per_sec: if wall > 0.0 {
                    accesses_per_cell as f64 / (wall / 1e9)
                } else {
                    0.0
                },
                cycles: report.cycles,
                ipc: report.ipc,
                hit_rate: report.stats.hbm_hit_rate(),
                migrations: report.stats.page_migrations,
                overfetch: report.overfetch,
                lat_p95: [None; 5],
                lat_p99: [None; 5],
                traffic_pa: None,
                peak_util_pct: None,
            }
        })
        .collect();
    if let Some(harvest) = harvest {
        for (c, h) in cases.iter_mut().zip(harvest) {
            c.lat_p95 = h.p95;
            c.lat_p99 = h.p99;
            c.traffic_pa = h.traffic_pa;
            c.peak_util_pct = h.peak_util_pct;
        }
    }
    let (phases, self_coverage) = BenchReport::fold_phases(&trees, busy_nanos);

    let sha = args.sha.unwrap_or_else(git_short_sha);
    let report = BenchReport {
        schema: BENCH_SCHEMA,
        sha: sha.clone(),
        suite: suite.name.to_string(),
        repeats: suite.repeats as u64,
        jobs: args.jobs as u64,
        shards: args.shards.map(|s| s as u64),
        batch: args.batch.map(|b| b as u64),
        scale: suite.cfg.scale,
        accesses: suite.cfg.accesses,
        workloads: suite
            .profiles
            .iter()
            .map(|p| p.name)
            .collect::<Vec<_>>()
            .join(","),
        busy_ms: busy_nanos as f64 / 1e6,
        self_coverage,
        cases,
        phases,
    };

    println!("{}", report.case_table());
    println!("{}", report.phase_table());
    println!(
        "phase self-times cover {:.1}% of {:.0} ms measured cell wall time",
        report.self_coverage * 100.0,
        report.busy_ms
    );
    println!(
        "suite wall {:.1} ms at {} — {:.0} accesses/sec aggregate",
        report.suite_wall_ms(),
        report.shards_label(),
        report.suite_accesses_per_sec()
    );

    let name = args.name.unwrap_or_else(|| format!("BENCH_{sha}"));
    let path = args.out.join(format!("{name}.json"));
    let body = report.to_lines().join("\n") + "\n";
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(exitcode::USAGE);
    }
    eprintln!("wrote {}", path.display());
}
