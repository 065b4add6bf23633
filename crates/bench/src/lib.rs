#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Shared harness plumbing for the figure/table binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--full` — paper-scale geometry (1 GB HBM / 10 GB DRAM; slow);
//! * `--scale N` — capacity divisor (default 16);
//! * `--accesses N` — LLC-miss requests per run;
//! * `--workloads a,b,c` — subset of Table II benchmarks (default: all 14);
//! * `--jobs N` — parallel experiment cells (default: `BUMBLEBEE_JOBS`
//!   or the machine's available parallelism; `1` = serial);
//! * `--shards N` — set-range lookup workers *within* each cell for the
//!   Bumblebee designs (default: `BUMBLEBEE_SHARDS` or lookup on the
//!   cell's own thread); composes multiplicatively with `--jobs`;
//! * `--batch N` — access-pipeline chunk width (default: `BUMBLEBEE_BATCH`
//!   or 4096);
//!
//! `--jobs`, `--shards` and `--batch` are pure performance knobs: every
//! output is byte-identical at any value.
//!
//! Bad input never starts a run: a zero or non-numeric number (of any
//! flag above, `--trace-sample` or a `BUMBLEBEE_*` variable), an unknown
//! workload, a scale whose geometry is invalid, a missing flag value, or
//! an argument the binary does not take (an unknown flag, or a panel or
//! sweep name it does not know) exits 2 with one `error:` line.
//!
//! * `--metrics` — record per-run observability (epoch time-series, event
//!   trace, device histograms) and write `<figure>.epochs.jsonl`,
//!   `<figure>.trace.jsonl` and `<figure>.metrics.jsonl` alongside the
//!   results;
//! * `--trace-sample N` — deterministically sample one in ~N accesses for
//!   full-lifecycle latency attribution (implies `--metrics`) and write the
//!   path-tagged records to `<figure>.lat.jsonl`; defaults to
//!   `BUMBLEBEE_TRACE_SAMPLE` when the flag is absent (the variable obeys
//!   the same strict positive-integer contract as `BUMBLEBEE_JOBS` /
//!   `BUMBLEBEE_SHARDS` — empty, zero or non-numeric values are hard
//!   configuration errors);
//! * `--out DIR` — directory for `*.jsonl` artifacts (default:
//!   `BUMBLEBEE_RESULTS_DIR` or `./results`).

use memsim_analysis::exitcode;
use memsim_sim::{Engine, MetricsConfig, ResultSet, RunConfig};
use memsim_trace::SpecProfile;
use memsim_types::Geometry;
use std::path::PathBuf;

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// The run configuration (scale, geometry, volume).
    pub cfg: RunConfig,
    /// Workloads to evaluate.
    pub profiles: Vec<SpecProfile>,
    /// Explicit `--jobs` width, if given.
    pub jobs: Option<usize>,
    /// Explicit `--shards` width, if given (set-sharded workers per cell).
    pub shards: Option<usize>,
    /// Explicit `--batch` chunk width, if given (access-pipeline SoA
    /// chunking; outputs are byte-identical at any width).
    pub batch: Option<usize>,
    /// Whether `--metrics` observability recording is on.
    pub metrics: bool,
    /// `--trace-sample N`: sampled latency attribution at rate one in ~N
    /// accesses (implies `--metrics`); `None` disables the record stream.
    pub trace_sample: Option<u64>,
    /// Directory for JSONL artifacts.
    pub out: PathBuf,
    /// Arguments no flag consumed, in order (see [`parse_env_selecting`]).
    pub rest: Vec<String>,
}

impl HarnessOpts {
    /// The experiment engine these options select: `--jobs`, `--shards`
    /// and `--batch` where given, `BUMBLEBEE_JOBS` / `BUMBLEBEE_SHARDS` /
    /// `BUMBLEBEE_BATCH` otherwise, with progress lines enabled and
    /// metrics recording when `--metrics` was passed. Without either,
    /// cells use every core, plan on their own thread, and chunk at the
    /// default width. A malformed variable exits 2 with one line (see
    /// [`usage_exit`]), even where a flag overrides it.
    pub fn engine(&self) -> Engine {
        let env = Engine::from_env().unwrap_or_else(|e| usage_exit(&e));
        let mut engine = match self.jobs {
            Some(j) => Engine::new(j).with_shards(env.shards()).with_batch(env.batch()),
            None => env,
        }
        .with_progress(true);
        if self.shards.is_some() {
            engine = engine.with_shards(self.shards);
        }
        if let Some(b) = self.batch {
            engine = engine.with_batch(b);
        }
        if self.metrics {
            engine.with_metrics(MetricsConfig {
                sample_rate: self.trace_sample.unwrap_or(0),
                ..MetricsConfig::default()
            })
        } else {
            engine
        }
    }

    /// Writes the observability artifacts of `results`: with `--metrics`,
    /// `<figure>.epochs.jsonl`, `<figure>.trace.jsonl` and
    /// `<figure>.bw.jsonl` (deterministic, cycle-domain — the bw stream
    /// carries the cause-attributed traffic matrix and per-epoch
    /// bandwidth-utilization gauges); with `--trace-sample`,
    /// `<figure>.lat.jsonl` (sampled latency-attribution records, also
    /// deterministic); with `--metrics`, also `<figure>.metrics.jsonl`
    /// (wall-clock engine telemetry).
    pub fn write_telemetry(&self, figure: &str, results: &ResultSet) {
        if self.metrics {
            self.write_jsonl(&format!("{figure}.epochs"), &results.epochs_jsonl_lines());
            self.write_jsonl(&format!("{figure}.trace"), &results.trace_jsonl_lines());
            self.write_jsonl(&format!("{figure}.bw"), &results.bw_jsonl_lines());
            self.write_jsonl(&format!("{figure}.metrics"), &results.metrics_jsonl_lines());
        }
        if self.trace_sample.is_some() {
            self.write_jsonl(&format!("{figure}.lat"), &results.lat_jsonl_lines());
        }
    }

    /// Writes `lines` to `<out>/<figure>.jsonl` and reports the path on
    /// stderr; exits the process on I/O failure (these are leaf binaries).
    pub fn write_jsonl(&self, figure: &str, lines: &[String]) {
        match memsim_sim::write_jsonl(&self.out, figure, lines) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {figure}.jsonl under {}: {e}", self.out.display());
                std::process::exit(1);
            }
        }
    }
}

/// Parses command-line style arguments.
///
/// # Errors
///
/// A one-line error naming the flag or variable: a missing value, a
/// zero or non-numeric number, an unknown `--workloads` name, or a
/// `--scale` whose paper geometry is invalid.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<HarnessOpts, String> {
    let mut scale = 16u64;
    let mut accesses: Option<u64> = None;
    let mut names: Option<Vec<String>> = None;
    let mut jobs: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut batch: Option<usize> = None;
    let mut metrics = false;
    let mut trace_sample: Option<u64> = None;
    let mut out: Option<PathBuf> = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => scale = 1,
            "--scale" => scale = positive_flag("--scale", it.next())? as u64,
            "--accesses" => accesses = Some(positive_flag("--accesses", it.next())? as u64),
            "--workloads" => {
                let list = it.next().ok_or("--workloads needs a comma-separated list")?;
                names = Some(list.split(',').map(str::to_string).collect());
            }
            "--jobs" => jobs = Some(positive_flag("--jobs", it.next())?),
            "--shards" => shards = Some(positive_flag("--shards", it.next())?),
            "--batch" => batch = Some(positive_flag("--batch", it.next())?),
            "--metrics" => metrics = true,
            "--trace-sample" => {
                trace_sample = Some(positive_flag("--trace-sample", it.next())? as u64);
                metrics = true; // records ride on the metrics pipeline
            }
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?)),
            other => rest.push(other.to_string()),
        }
    }
    if trace_sample.is_none() {
        trace_sample = trace_sample_env(std::env::var("BUMBLEBEE_TRACE_SAMPLE").ok().as_deref())?;
        if trace_sample.is_some() {
            metrics = true; // same implication as the --trace-sample flag
        }
    }
    Geometry::try_paper(scale).map_err(|e| format!("--scale {scale}: {e}"))?;
    let default_accesses = if scale == 1 { 2_000_000 } else { 400_000 };
    let cfg = RunConfig::at_scale(scale, accesses.unwrap_or(default_accesses));
    let table2 = SpecProfile::table2();
    let profiles = match names {
        Some(ns) => ns
            .iter()
            .map(|n| {
                table2.iter().find(|p| p.name == n).cloned().ok_or_else(|| {
                    format!("--workloads: unknown Table II benchmark `{n}`")
                })
            })
            .collect::<Result<_, _>>()?,
        None => table2,
    };
    Ok(HarnessOpts {
        cfg,
        profiles,
        jobs,
        shards,
        batch,
        metrics,
        trace_sample,
        out: out.unwrap_or_else(memsim_sim::results_dir),
        rest,
    })
}

/// The positive integer value of a numeric flag (`--jobs`, `--shards`,
/// `--batch`, `--scale`, `--accesses`, `--trace-sample`).
///
/// # Errors
///
/// A missing, zero or non-numeric value.
pub fn positive_flag(flag: &str, value: Option<String>) -> Result<usize, String> {
    value
        .as_deref()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive number, got {:?}", value.unwrap_or_default()))
}

/// Prints `error: <msg>` on one line and exits with the usage status
/// ([`exitcode::USAGE`]): the run never started.
pub fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(exitcode::USAGE)
}

/// Strict `BUMBLEBEE_TRACE_SAMPLE` parsing: unset defers to the
/// `--trace-sample` flag (`None`); anything else must be a positive
/// integer. Empty, zero or non-numeric values are hard configuration
/// errors, the same contract `BUMBLEBEE_JOBS` / `BUMBLEBEE_SHARDS`
/// enforce — a silently ignored typo would silently disable tracing.
///
/// # Errors
///
/// The offending value on empty, zero or non-numeric input.
fn trace_sample_env(value: Option<&str>) -> Result<Option<u64>, String> {
    let Some(v) = value else { return Ok(None) };
    match v.trim().parse::<u64>() {
        Ok(r) if r > 0 => Ok(Some(r)),
        _ => Err(format!("BUMBLEBEE_TRACE_SAMPLE={v:?}: expected a positive integer sampling rate")),
    }
}

/// The one optional positional argument in `rest`, which must be one of
/// `choices` (a binary with no `choices` takes none).
///
/// # Errors
///
/// The first argument that is not one of `choices`, or a second one.
fn select(rest: &[String], choices: &[&str]) -> Result<Option<String>, String> {
    let first = rest.first();
    let bad = match first {
        Some(a) if !choices.contains(&a.as_str()) => Some(a),
        _ => rest.get(1),
    };
    match bad {
        None => Ok(first.cloned()),
        Some(a) if choices.is_empty() => Err(format!("unexpected argument `{a}`")),
        Some(a) => Err(format!("unexpected argument `{a}` (expected at most one of: {})", choices.join(", "))),
    }
}

/// Parses `std::env::args()` (skipping the binary name) for a binary that
/// takes no positional argument; bad input, an unknown flag included,
/// exits 2 with one line ([`usage_exit`]).
pub fn parse_env() -> HarnessOpts {
    parse_env_selecting(&[]).0
}

/// [`parse_env`] for a binary whose one optional positional argument is
/// one of `choices`; returns it alongside the options.
pub fn parse_env_selecting(choices: &[&str]) -> (HarnessOpts, Option<String>) {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e));
    let selected = select(&opts.rest, choices).unwrap_or_else(|e| usage_exit(&e));
    (opts, selected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> HarnessOpts {
        try_opts(args).unwrap()
    }

    fn try_opts(args: &[&str]) -> Result<HarnessOpts, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = opts(&[]);
        assert_eq!(o.cfg.scale, 16);
        assert_eq!(o.cfg.accesses, 400_000);
        assert_eq!(o.profiles.len(), 14);
        assert_eq!(o.jobs, None);
        assert_eq!(o.shards, None);
        assert_eq!(o.batch, None);
        assert!(!o.metrics);
        assert_eq!(o.trace_sample, None);
        assert!(o.rest.is_empty());
    }

    #[test]
    fn trace_sample_implies_metrics() {
        let o = opts(&["--trace-sample", "64"]);
        assert_eq!(o.trace_sample, Some(64));
        assert!(o.metrics, "--trace-sample rides on the metrics pipeline");
    }

    #[test]
    fn zero_trace_sample_is_an_error() {
        assert_eq!(
            try_opts(&["--trace-sample", "0"]).unwrap_err(),
            "--trace-sample needs a positive number, got \"0\""
        );
    }

    #[test]
    fn trace_sample_env_parses_strictly() {
        assert_eq!(trace_sample_env(None), Ok(None), "unset defers to the flag");
        assert_eq!(trace_sample_env(Some("64")), Ok(Some(64)));
        assert_eq!(trace_sample_env(Some(" 8 ")), Ok(Some(8)), "whitespace tolerated");
    }

    #[test]
    fn trace_sample_env_rejects_zero_empty_and_non_numeric() {
        for v in ["0", "", "often"] {
            assert_eq!(
                trace_sample_env(Some(v)).unwrap_err(),
                format!("BUMBLEBEE_TRACE_SAMPLE={v:?}: expected a positive integer sampling rate")
            );
        }
    }

    #[test]
    fn metrics_flag_enables_recording() {
        let o = opts(&["--metrics", "--jobs", "2"]);
        assert!(o.metrics);
        assert_eq!(o.engine().jobs(), 2);
    }

    #[test]
    fn full_flag_switches_to_paper_scale() {
        let o = opts(&["--full"]);
        assert_eq!(o.cfg.scale, 1);
        assert_eq!(o.cfg.accesses, 2_000_000);
    }

    #[test]
    fn explicit_scale_accesses_workloads() {
        let o = opts(&["--scale", "64", "--accesses", "1234", "--workloads", "mcf,xz", "ipc"]);
        assert_eq!(o.cfg.scale, 64);
        assert_eq!(o.cfg.accesses, 1234);
        assert_eq!(o.profiles.len(), 2);
        assert_eq!(o.rest, vec!["ipc".to_string()]);
    }

    #[test]
    fn select_accepts_one_listed_argument() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(select(&args(&[]), &[]), Ok(None));
        assert_eq!(select(&args(&[]), &["ipc", "all"]), Ok(None));
        assert_eq!(select(&args(&["ipc"]), &["ipc", "all"]), Ok(Some("ipc".to_string())));
        assert_eq!(select(&args(&["--spans"]), &[]).unwrap_err(), "unexpected argument `--spans`");
        assert_eq!(
            select(&args(&["ipcc"]), &["ipc", "all"]).unwrap_err(),
            "unexpected argument `ipcc` (expected at most one of: ipc, all)"
        );
        assert_eq!(
            select(&args(&["ipc", "all"]), &["ipc", "all"]).unwrap_err(),
            "unexpected argument `all` (expected at most one of: ipc, all)"
        );
    }

    #[test]
    fn jobs_and_out_flags() {
        let o = opts(&["--jobs", "4", "--out", "/tmp/r"]);
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.engine().jobs(), 4);
        assert_eq!(o.out, PathBuf::from("/tmp/r"));
    }

    #[test]
    fn bad_scale_is_an_error() {
        assert_eq!(try_opts(&["--scale", "abc"]).unwrap_err(), "--scale needs a positive number, got \"abc\"");
        assert_eq!(try_opts(&["--scale", "0"]).unwrap_err(), "--scale needs a positive number, got \"0\"");
        let too_small = try_opts(&["--scale", "100000"]).unwrap_err();
        assert!(too_small.starts_with("--scale 100000: "), "{too_small}");
    }

    #[test]
    fn bad_accesses_and_workloads_are_errors() {
        assert_eq!(try_opts(&["--accesses", "0"]).unwrap_err(), "--accesses needs a positive number, got \"0\"");
        assert_eq!(
            try_opts(&["--workloads", "mcf,nope"]).unwrap_err(),
            "--workloads: unknown Table II benchmark `nope`"
        );
        assert_eq!(try_opts(&["--out"]).unwrap_err(), "--out needs a directory");
    }

    #[test]
    fn bad_jobs_is_an_error() {
        assert_eq!(try_opts(&["--jobs", "0"]).unwrap_err(), "--jobs needs a positive number, got \"0\"");
        assert_eq!(try_opts(&["--jobs"]).unwrap_err(), "--jobs needs a positive number, got \"\"");
    }

    #[test]
    fn shards_flag_reaches_the_engine() {
        let o = opts(&["--shards", "4", "--jobs", "2"]);
        assert_eq!(o.shards, Some(4));
        assert_eq!(o.engine().shards(), Some(4));
        assert_eq!(o.engine().jobs(), 2);
    }

    #[test]
    fn bad_shards_is_an_error() {
        assert_eq!(try_opts(&["--shards", "0"]).unwrap_err(), "--shards needs a positive number, got \"0\"");
        assert_eq!(
            try_opts(&["--shards", "abc"]).unwrap_err(),
            "--shards needs a positive number, got \"abc\""
        );
    }

    #[test]
    fn batch_flag_reaches_the_engine() {
        let o = opts(&["--batch", "64", "--jobs", "2"]);
        assert_eq!(o.batch, Some(64));
        assert_eq!(o.engine().batch(), 64);
        let default = opts(&["--jobs", "2"]);
        assert_eq!(default.engine().batch(), memsim_sim::DEFAULT_BATCH);
    }

    #[test]
    fn bad_batch_is_an_error() {
        assert_eq!(try_opts(&["--batch", "0"]).unwrap_err(), "--batch needs a positive number, got \"0\"");
    }
}
