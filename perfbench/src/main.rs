//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <bumblebee-paper|fig8-observed|bumblebee-sharded>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it times whole passes of the workload (engine run plus
//! artifact writes) with nothing timed inside them and prints the
//! end-to-end metrics. With `--trace 1` it additionally drives every cell
//! through the traced decomposition loop (`decompose.rs`) and prints the
//! per-layer metrics and the reconciliation line. Either way every cell's
//! outputs are checked, and the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod checks;
mod decompose;
mod layers;
mod suite;

use checks::Tally;
use memsim_sim::{geomean, run_design_sharded, Design, ExperimentMatrix, SimReport, DEFAULT_BATCH};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use suite::{Kind, Pass, SetupSample};

/// Fewest timed passes per run, whatever `--seconds` says: a median needs
/// more than one sample.
const MIN_PASSES: usize = 2;
/// Fewest set-up repetitions, and the least host time they must span.
const MIN_SETUP_REPS: usize = 9;
const MIN_SETUP_SECONDS: f64 = 1.0;
/// The warm pass runs the workload's cells at this fraction of their
/// accesses.
const WARM_DIVISOR: u64 = 8;
/// Bytes per reported MB.
const MB: f64 = (1u64 << 20) as f64;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, suite::DEFAULT_SEED, 20.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!(
                        "unknown workload {v:?} (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench-out");
    let dir = root.join(format!("{}-{}", args.kind.name(), std::process::id()));
    let outcome = run(&args, &dir);
    // Artifacts are only measured, never kept.
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&root);
    match outcome {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What every mode shares: the cells, the set-up samples, the warm pass.
struct Prepared {
    kind: Kind,
    matrix: ExperimentMatrix,
    accesses: u64,
    setup: Vec<SetupSample>,
    setup_s: f64,
}

fn prepare(args: &Args, dir: &Path) -> std::io::Result<Prepared> {
    let cfg = args.kind.config(args.seed);
    let matrix = args.kind.matrix(&cfg);
    // Set-up: repeated constructions of every cell, median reported.
    let mut setup = Vec::new();
    let start = Instant::now();
    while setup.len() < MIN_SETUP_REPS || start.elapsed().as_secs_f64() < MIN_SETUP_SECONDS {
        setup.push(suite::setup_once(&matrix));
    }
    let setup_s = median(setup.iter().map(SetupSample::total_s).collect());
    // Untimed warm pass over every cell at reduced volume.
    let mut warm_cfg = cfg.clone();
    warm_cfg.accesses /= WARM_DIVISOR;
    warm_cfg.warmup /= WARM_DIVISOR;
    suite::e2e_pass(
        args.kind,
        &args.kind.engine(),
        &args.kind.matrix(&warm_cfg),
        dir,
    )?;
    let accesses = suite::total_accesses(&matrix);
    Ok(Prepared {
        kind: args.kind,
        matrix,
        accesses,
        setup,
        setup_s,
    })
}

/// What the timed passes leave behind: the first pass's reports and
/// artifact sizes, and every pass's wall time.
struct Timed {
    reports: Vec<SimReport>,
    bytes: u64,
    lat_records: u64,
    dropped_records: u64,
    walls: Vec<f64>,
}

/// Timed passes until `seconds` have elapsed (at least [`MIN_PASSES`]).
/// The first pass is checked as soon as it ends and only its reports are
/// kept, so the process never holds two passes' results; every later pass
/// must reproduce those reports.
fn timed_passes(
    args: &Args,
    p: &Prepared,
    dir: &Path,
    tally: &mut Tally,
) -> std::io::Result<Timed> {
    let engine = args.kind.engine();
    let start = Instant::now();
    let mut first: Option<Timed> = None;
    let mut walls = Vec::new();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let pass = suite::e2e_pass(args.kind, &engine, &p.matrix, dir)?;
        walls.push(pass.wall_s);
        match &first {
            None => first = Some(check_first(p, &pass, tally)),
            Some(f) => {
                for (id, r) in pass.results.reports().iter().enumerate() {
                    tally.record(id, checks::same_report("repeat pass", r, &f.reports[id]));
                }
            }
        }
    }
    let mut timed = first.expect("at least one pass");
    timed.walls = walls;
    Ok(timed)
}

/// Checks the first timed pass: every cell measured its accesses, and on
/// the observed workload its path counts and traffic matrix reconcile.
fn check_first(p: &Prepared, pass: &Pass, tally: &mut Tally) -> Timed {
    let obs = pass.results.observations().unwrap_or(&[]);
    for (id, cell) in p.matrix.cells().iter().enumerate() {
        let r = pass.results.report(id);
        let counted = match obs.get(id) {
            Some(o) => o.path_counts.iter().sum::<u64>() - cell.cfg.warmup,
            None => r.accesses,
        };
        tally.record(id, checks::measured(r, cell.cfg.accesses, counted));
        if let Some(o) = obs.get(id) {
            tally.record(id, checks::observations(r, o));
        }
    }
    Timed {
        reports: pass.results.reports().to_vec(),
        bytes: pass.bytes,
        lat_records: obs.iter().map(|o| o.records.len() as u64).sum(),
        dropped_records: obs.iter().map(|o| o.dropped_records).sum(),
        walls: Vec::new(),
    }
}

/// On the sharded workload, shard widths 1 and 2 must give identical
/// reports.
fn check_shard_widths(args: &Args, p: &Prepared, reports: &[SimReport], tally: &mut Tally) {
    if args.kind.shards().is_none() {
        return;
    }
    for (id, cell) in p
        .matrix
        .cells()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.design.supports_sharding())
    {
        let one = run_design_sharded(
            cell.design,
            &cell.cfg,
            &cell.profile,
            None,
            1,
            DEFAULT_BATCH,
        );
        let outcome = match one {
            Ok((one, _)) => checks::same_report("--shards 1 vs 2", &one, &reports[id]),
            Err(e) => Err(e.to_string()),
        };
        tally.record(id, outcome);
    }
}

fn run(args: &Args, dir: &Path) -> std::io::Result<String> {
    let p = prepare(args, dir)?;
    let mut tally = Tally::new(p.matrix.cells().iter().map(|c| c.label()));
    let timed = timed_passes(args, &p, dir, &mut tally)?;
    let rss_mb = peak_rss_mb()?;
    check_shard_widths(args, &p, &timed.reports, &mut tally);
    let per_pass: Vec<f64> = timed
        .walls
        .iter()
        .map(|w| p.accesses as f64 / (w - p.setup_s) / 1e6)
        .collect();
    let mut metrics = Metrics::default();
    let mut text = String::new();
    if args.trace {
        layers::traced(&p, &timed, dir, &mut tally, &mut metrics, &mut text)?;
    } else {
        metrics.put("maccess_per_s", median(per_pass.clone()), "M/s");
        metrics.put("setup_s", p.setup_s, "s");
        metrics.put("peak_rss_mb", rss_mb, "MB");
        metrics.put("artifact_mb", timed.bytes as f64 / MB, "MB");
        metrics.put("bb_speedup", bb_speedup(&p.matrix, &timed.reports), "ratio");
    }
    let _ = writeln!(
        text,
        "{}: seed {:#x}, {} cells, {} accesses/pass, {} timed passes {:?} M/s, set-up {:.4} s (median of {})",
        args.kind.name(),
        args.seed,
        p.matrix.len(),
        p.accesses,
        per_pass.len(),
        per_pass.iter().map(|v| (v * 1000.0).round() / 1000.0).collect::<Vec<_>>(),
        p.setup_s,
        p.setup.len()
    );
    for f in tally.failures() {
        let _ = writeln!(text, "FAILED {f}");
    }
    Ok(format!(
        "{text}{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed() == 0,
        tally.attempted(),
        tally.failed(),
        metrics.json()?
    ))
}

/// Geomean over profiles of Bumblebee IPC over No-HBM IPC.
fn bb_speedup(matrix: &ExperimentMatrix, reports: &[SimReport]) -> f64 {
    design_speedup(matrix, reports, Design::Bumblebee)
}

fn design_speedup(matrix: &ExperimentMatrix, reports: &[SimReport], design: Design) -> f64 {
    let cells = matrix.cells();
    let ratios: Vec<f64> = cells
        .iter()
        .filter(|c| c.design == design)
        .map(|c| {
            let base = cells
                .iter()
                .find(|b| b.design == Design::NoHbm && b.profile.name == c.profile.name)
                .expect("every workload runs No-HBM on each profile");
            reports[c.id].normalized_ipc(&reports[base.id])
        })
        .collect();
    geomean(&ratios)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median (mean of the middle two for an even count).
fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / MB)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Named metrics in insertion order, rendered as the result's JSON map.
#[derive(Debug, Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The JSON map, or an error naming the first metric that is not a
    /// finite number (JSON cannot carry one, and it would mean a bug).
    fn json(&self) -> std::io::Result<String> {
        if let Some((n, v, _)) = self.0.iter().find(|(_, v, _)| !v.is_finite()) {
            return Err(std::io::Error::other(format!("metric {n} is {v}")));
        }
        Ok(self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect::<Vec<_>>()
            .join(", "))
    }
}
