//! The three benchmark workloads and the untraced end-to-end pass.
//!
//! Every workload is an [`ExperimentMatrix`] run by one [`Engine`] in this
//! process, followed by the JSONL encode and write of its artifacts — the
//! same calls a figure binary makes, so the pass is what a user waits for.

use memsim_sim::figures::fig8;
use memsim_sim::{Design, Engine, ExperimentMatrix, MetricsConfig, ResultSet, RunConfig, System};
use memsim_trace::SpecProfile;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The repository's default workload seed (`RunConfig::at_scale`).
pub const DEFAULT_SEED: u64 = 0xB0B1_BEE5;

/// The four Table II profiles every workload runs: High (roms, wrf),
/// Medium (mcf) and Low (xz) MPKI, covering all three Fig. 1 locality
/// classes; roms's footprint exceeds off-chip capacity.
pub const PROFILES: [&str; 4] = ["roms", "wrf", "mcf", "xz"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Bumblebee and No-HBM at Table I geometry (`--full`), serial.
    Paper,
    /// All six Fig. 8 designs plus No-HBM at scale 1/16 with every
    /// observability stream on (`fig8 --trace-sample 64`).
    Observed,
    /// `Paper` with `--shards 2`.
    Sharded,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Paper, Kind::Observed, Kind::Sharded];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "bumblebee-paper",
            Kind::Observed => "fig8-observed",
            Kind::Sharded => "bumblebee-sharded",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The run configuration at workload seed `seed`.
    pub fn config(self, seed: u64) -> RunConfig {
        let mut cfg = match self {
            Kind::Paper | Kind::Sharded => RunConfig::full(),
            Kind::Observed => RunConfig::scaled(),
        };
        cfg.seed = seed;
        cfg
    }

    /// Intra-run shard count (`--shards`), if any.
    pub fn shards(self) -> Option<usize> {
        (self == Kind::Sharded).then_some(2)
    }

    /// The observability configuration (`fig8 --trace-sample 64`), if any.
    pub fn metrics(self) -> Option<MetricsConfig> {
        (self == Kind::Observed).then(|| MetricsConfig {
            sample_rate: 64,
            ..MetricsConfig::default()
        })
    }

    /// The cells of this workload under `cfg`.
    pub fn matrix(self, cfg: &RunConfig) -> ExperimentMatrix {
        let profiles = profiles();
        match self {
            Kind::Observed => fig8::matrix(cfg, &profiles),
            Kind::Paper | Kind::Sharded => ExperimentMatrix::cross(
                self.name(),
                &[Design::NoHbm, Design::Bumblebee],
                &profiles,
                cfg,
            ),
        }
    }

    /// The engine the timed pass uses: one cell at a time (`--jobs 1`),
    /// default `--batch`, two shard workers on `Sharded`.
    pub fn engine(self) -> Engine {
        let engine = Engine::new(1).with_shards(self.shards());
        match self.metrics() {
            Some(m) => engine.with_metrics(m),
            None => engine,
        }
    }
}

/// The four profiles, in [`PROFILES`] order.
pub fn profiles() -> Vec<SpecProfile> {
    PROFILES.iter().map(|n| SpecProfile::named(n)).collect()
}

/// Simulated accesses of a matrix, warm-up included.
pub fn total_accesses(matrix: &ExperimentMatrix) -> u64 {
    matrix
        .cells()
        .iter()
        .map(|c| c.cfg.warmup + c.cfg.accesses)
        .sum()
}

/// Every JSONL stream a workload can write: the results stream always; the
/// epochs, trace, lat, bw and metrics streams only with observability on
/// (`fig8-observed`).
pub const STREAMS: [&str; 6] = ["results", "epochs", "trace", "lat", "bw", "metrics"];

/// Encodes stream `name` of `results`.
pub fn encode(results: &ResultSet, name: &str) -> Vec<String> {
    match name {
        "results" => results.jsonl_lines(),
        "epochs" => results.epochs_jsonl_lines(),
        "trace" => results.trace_jsonl_lines(),
        "lat" => results.lat_jsonl_lines(),
        "bw" => results.bw_jsonl_lines(),
        "metrics" => results.metrics_jsonl_lines(),
        other => unreachable!("unknown stream {other}"),
    }
}

/// The streams `kind` writes.
pub fn streams(kind: Kind) -> &'static [&'static str] {
    if kind.metrics().is_some() {
        &STREAMS
    } else {
        &STREAMS[..1]
    }
}

/// One end-to-end pass: the engine run plus every artifact written.
pub struct Pass {
    /// The engine's results.
    pub results: ResultSet,
    /// Wall seconds from the engine call to the last artifact byte.
    pub wall_s: f64,
    /// Bytes written, over every stream.
    pub bytes: u64,
}

/// Runs `matrix` on `engine` and writes `kind`'s streams under `dir`,
/// timing the whole pass and nothing inside it.
///
/// # Errors
///
/// A configuration error from the engine or an I/O error from a write.
pub fn e2e_pass(
    kind: Kind,
    engine: &Engine,
    matrix: &ExperimentMatrix,
    dir: &Path,
) -> io::Result<Pass> {
    let start = Instant::now();
    let results = engine.run(matrix).map_err(io::Error::other)?;
    let mut paths = Vec::new();
    for name in streams(kind) {
        paths.push(memsim_sim::write_jsonl(
            dir,
            &stem(kind, name),
            &encode(&results, name),
        )?);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let bytes = paths
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()))
        .sum::<io::Result<u64>>()?;
    Ok(Pass {
        results,
        wall_s,
        bytes,
    })
}

/// The file stem of stream `name` (`<workload>.jsonl`, `<workload>.lat.jsonl`, …).
pub fn stem(kind: Kind, name: &str) -> String {
    if name == "results" {
        kind.name().to_string()
    } else {
        format!("{}.{name}", kind.name())
    }
}

/// Host time of one construction of every cell.
#[derive(Debug, Clone, Default)]
pub struct SetupSample {
    /// `Design::build` + `System::new` seconds, per design label.
    pub build_s: Vec<(&'static str, f64)>,
    /// `RunConfig::workload` seconds, summed over cells.
    pub workload_s: f64,
}

impl SetupSample {
    /// Seconds for the whole matrix.
    pub fn total_s(&self) -> f64 {
        self.build_s.iter().map(|(_, s)| s).sum::<f64>() + self.workload_s
    }
}

/// Constructs every cell's controller, `System` and generator once,
/// timing each; each cell's objects are dropped (untimed) before the next
/// cell is built, so memory stays at one cell's worth.
pub fn setup_once(matrix: &ExperimentMatrix) -> SetupSample {
    let mut sample = SetupSample::default();
    for cell in matrix.cells() {
        let cfg = &cell.cfg;
        let t = Instant::now();
        let controller = cell.design.build(cfg.geometry, cfg.sram_budget);
        let system = System::new(
            controller,
            &cfg.geometry,
            cfg.params,
            cell.design.uses_hbm(),
        );
        let build = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let workload = cfg.workload(&cell.profile);
        sample.workload_s += t.elapsed().as_secs_f64();
        black_box((&system, &workload));
        let label = cell.design.label();
        match sample.build_s.iter_mut().find(|(l, _)| *l == label) {
            Some((_, s)) => *s += build,
            None => sample.build_s.push((label, build)),
        }
        drop((system, workload));
    }
    sample
}
