//! Run configuration and the single-run loop.
//!
//! Every run goes through one staged pipeline: the calling thread
//! generates a chunk of accesses, a lookup stage plans it, and the
//! [`System`] services the plans in stream order against the one shared
//! HBM/DDR4 device pair ([`System::service`]). The lookup stage is either
//! the cell's controller on the calling thread (`run_controller`) or,
//! under `--shards`, set-range controllers on worker threads
//! ([`run_design_sharded`](crate::shard::run_design_sharded)); both plan
//! exactly the same operations.

use crate::designs::{AnyController, Design};
use crate::engine::DEFAULT_BATCH;
use crate::report::SimReport;
use crate::system::{SimParams, System, SystemCounters};
use memsim_obs::{
    AccessRecord, BwPoint, DeviceHistograms, EpochSnapshot, LatRing, MetricsConfig, RunRecorder,
    TimedEvent, TrafficAccum,
};
use memsim_trace::{SpecProfile, Workload};
use memsim_types::{
    AccessBatch, CtrlStats, Geometry, GeometryError, HybridMemoryController, PlanBuffer,
};

/// Scale, geometry, SRAM budget and access volume of one experiment.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Capacity divisor relative to Table I (1 = paper scale).
    pub scale: u64,
    /// Memory geometry (Table I scaled, possibly with Fig. 6 block/page
    /// overrides).
    pub geometry: Geometry,
    /// SRAM metadata budget (the paper's 512 KB, scaled with capacity).
    pub sram_budget: u64,
    /// LLC-miss accesses simulated per run.
    pub accesses: u64,
    /// Accesses before measurement starts (cache warm-up).
    pub warmup: u64,
    /// Core timing parameters.
    pub params: SimParams,
    /// Workload RNG seed.
    pub seed: u64,
}

impl RunConfig {
    /// A configuration at capacity divisor `scale` with `accesses`
    /// measured requests.
    ///
    /// # Panics
    ///
    /// Panics if the scaled geometry is invalid (power-of-two scales up to
    /// 1024 are always fine).
    pub fn at_scale(scale: u64, accesses: u64) -> RunConfig {
        RunConfig {
            scale,
            geometry: Geometry::paper(scale),
            sram_budget: (512 << 10) / scale,
            accesses,
            warmup: accesses / 5,
            params: SimParams::default(),
            seed: 0xB0B1_BEE5,
        }
    }

    /// Tiny scale for unit/integration tests (fast, still exercises every
    /// mechanism).
    pub fn tiny() -> RunConfig {
        RunConfig::at_scale(256, 20_000)
    }

    /// The default experiment scale (1/16 of Table I, as DESIGN.md
    /// documents).
    pub fn scaled() -> RunConfig {
        RunConfig::at_scale(16, 400_000)
    }

    /// Paper-scale geometry (slow; for `--full` runs).
    pub fn full() -> RunConfig {
        RunConfig::at_scale(1, 2_000_000)
    }

    /// The geometry in use.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Replaces block/page sizes (Fig. 6 design-space points).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`GeometryError`] if the combination is
    /// invalid.
    pub fn with_block_page(mut self, block_bytes: u64, page_bytes: u64) -> Result<RunConfig, GeometryError> {
        self.geometry = Geometry::builder()
            .block_bytes(block_bytes)
            .page_bytes(page_bytes)
            .hbm_bytes(self.geometry.hbm_bytes())
            .dram_bytes(self.geometry.dram_bytes())
            .hbm_ways(self.geometry.hbm_ways())
            .build()?;
        Ok(self)
    }

    /// Builds the workload stream for `profile` under this configuration
    /// (footprint scaled with the geometry, addresses bounded by the flat
    /// space).
    pub fn workload(&self, profile: &SpecProfile) -> Workload {
        let spec = profile.spec(self.scale);
        Workload::new(spec, self.geometry.flat_bytes(), self.seed)
    }
}

/// The deterministic observability harvest of one instrumented run: the
/// controller's epoch time-series and trace events plus the per-device
/// latency / queue-wait histograms. Everything here lives in the simulated
/// cycle domain, so it is byte-identical across `--jobs` widths — wall-clock
/// telemetry deliberately lives elsewhere (the engine).
#[derive(Debug, Clone)]
pub struct RunObservations {
    /// Epoch snapshots, in epoch order (warm-up accesses included).
    pub epochs: Vec<EpochSnapshot>,
    /// Newest trace events, oldest first.
    pub events: Vec<TimedEvent>,
    /// Events dropped because the ring was full.
    pub dropped_events: u64,
    /// Sampled per-access latency records, seq order (empty when
    /// `sample_rate` is 0).
    pub records: Vec<AccessRecord>,
    /// Sampled records dropped because the latency ring was full.
    pub dropped_records: u64,
    /// The sampling rate the records were taken at (0 = tracing disabled).
    pub sample_rate: u64,
    /// Full (unsampled) per-path access counts over the whole run
    /// (warm-up included), indexed by `AccessPath::index` — these
    /// reconcile exactly against `CtrlStats` hit/off-chip counters.
    pub path_counts: [u64; 5],
    /// HBM device distributions.
    pub hbm: DeviceHistograms,
    /// Off-chip DRAM device distributions.
    pub dram: DeviceHistograms,
    /// Cause-attributed traffic accounting over the whole run (warm-up,
    /// measurement and end-of-run drain): the per-device-class per-cause
    /// matrix plus op-size / MLP histograms. Reconciles exactly against
    /// the report's `hbm_bytes` / `dram_bytes` device totals.
    pub traffic: TrafficAccum,
    /// Cumulative bandwidth snapshots at each epoch boundary, epoch
    /// order (the `bw_epoch` utilization series source).
    pub bw_points: Vec<BwPoint>,
}

/// Runs `design` on `profile` under `cfg` and reports.
///
/// # Errors
///
/// Currently infallible in practice; the `Result` guards future
/// configuration validation.
pub fn run_design(
    design: Design,
    cfg: &RunConfig,
    profile: &SpecProfile,
) -> Result<SimReport, GeometryError> {
    run_design_batched(design, cfg, profile, None, DEFAULT_BATCH).map(|(report, _)| report)
}

/// Like [`run_design`], in chunks of up to `batch` accesses, installing
/// a [`RunRecorder`] when `metrics` is given and returning the harvested
/// [`RunObservations`] alongside the report. The recorder counts from
/// access 0, so warm-up epochs appear in the time-series (useful: that is
/// where the cache fills). Chunks are cut at epoch boundaries and the
/// warm-up snapshot point, so every output is byte-identical at any
/// `batch ≥ 1` (enforced by `tests/batch_differential.rs`).
///
/// The one-range case of
/// [`run_design_sharded`](crate::shard::run_design_sharded).
///
/// # Errors
///
/// See [`run_design`].
pub fn run_design_batched(
    design: Design,
    cfg: &RunConfig,
    profile: &SpecProfile,
    metrics: Option<&MetricsConfig>,
    batch: usize,
) -> Result<(SimReport, Option<RunObservations>), GeometryError> {
    crate::shard::run_design_sharded(design, cfg, profile, metrics, 1, batch)
}

/// Runs an already-built `controller` of `design` (label and HBM use)
/// through the pipeline with the lookup stage on the calling thread:
/// the workload generates each chunk straight into a flat
/// [`AccessBatch`], and [`System::step_batch`] plans and services it.
///
/// # Errors
///
/// See [`run_design`].
pub(crate) fn run_controller(
    design: Design,
    mut controller: AnyController,
    cfg: &RunConfig,
    profile: &SpecProfile,
    metrics: Option<&MetricsConfig>,
    batch: usize,
) -> Result<(SimReport, Option<RunObservations>), GeometryError> {
    if let Some(m) = metrics {
        controller.install_recorder(Box::new(RunRecorder::new(m)));
    }
    let mut system = System::new(controller, &cfg.geometry, cfg.params, design.uses_hbm());
    if metrics.is_some() {
        system.enable_traffic_accounting();
    }
    let mut timeline = Timeline::new(cfg, metrics, batch);
    let mut lat_ring = timeline.lat_ring();
    let mut workload = cfg.workload(profile);
    let mut soa = AccessBatch::with_capacity(batch.max(1));
    let mut plans = PlanBuffer::new();
    let mut seq = 0u64;
    while seq < timeline.cuts.total {
        timeline.before_chunk(seq, &system);
        let end = timeline.cuts.chunk_end(seq);
        workload.fill_batch(&mut soa, (end - seq) as usize);
        system.step_batch(&soa, &mut plans, seq, lat_ring.as_mut(), timeline.sample_rate);
        seq = end;
    }
    timeline.before_chunk(seq, &system);
    system.finish();
    let controller = system.controller_mut();
    let lookup = LookupSummary {
        recorded: controller.take_recorder().and_then(|rec| Some(rec.into_run()?.into_parts())),
        overfetch: controller.overfetch_ratio(),
        metadata_bytes: controller.metadata_bytes(),
        os_visible_bytes: controller.os_visible_bytes(),
        mode_switch_bytes: controller.mode_switch_bytes(),
        page_faults: controller.page_faults(),
        stats: controller.stats().clone(),
    };
    Ok(harvest(&mut system, design, cfg, profile, timeline, lat_ring, lookup))
}

/// Where one run's chunks are cut: at most the batch width, and never
/// across an epoch boundary or (during warm-up) the warm-up point, so the
/// observations taken at those points fall between chunks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cuts {
    /// Accesses in the run, warm-up included.
    pub(crate) total: u64,
    warmup: u64,
    width: u64,
    /// Epoch length in accesses (0: no epochs).
    interval: u64,
}

impl Cuts {
    /// End of the chunk starting at `seq`.
    pub(crate) fn chunk_end(&self, seq: u64) -> u64 {
        let mut end = (seq + self.width).min(self.total);
        if let Some(epoch) = seq.checked_div(self.interval) {
            end = end.min((epoch + 1) * self.interval);
        }
        if seq < self.warmup {
            end = end.min(self.warmup);
        }
        end
    }

    /// Whether the chunk ending at `end` closes an epoch.
    pub(crate) fn is_boundary(&self, end: u64) -> bool {
        self.interval > 0 && end.is_multiple_of(self.interval)
    }
}

/// The chunk cuts of one run and the observations taken between chunks:
/// epoch-boundary bandwidth snapshots and the warm-up snapshot.
#[derive(Debug)]
pub(crate) struct Timeline {
    pub(crate) cuts: Cuts,
    /// Latency-sampling rate (0: off).
    pub(crate) sample_rate: u64,
    record_capacity: usize,
    next_boundary: u64,
    warm: Option<(SystemCounters, u64)>,
    bw_points: Vec<BwPoint>,
}

impl Timeline {
    pub(crate) fn new(cfg: &RunConfig, metrics: Option<&MetricsConfig>, batch: usize) -> Timeline {
        let interval = metrics.map_or(0, |m| m.epoch_interval);
        Timeline {
            cuts: Cuts {
                total: cfg.warmup + cfg.accesses,
                warmup: cfg.warmup,
                width: batch.max(1) as u64,
                interval,
            },
            sample_rate: metrics.map_or(0, |m| m.sample_rate),
            record_capacity: metrics.map_or(0, |m| m.record_capacity),
            next_boundary: if interval > 0 { interval } else { u64::MAX },
            warm: None,
            bw_points: Vec::new(),
        }
    }

    /// The ring sampled latency records go to, when sampling is on.
    pub(crate) fn lat_ring(&self) -> Option<LatRing> {
        (self.sample_rate > 0).then(|| LatRing::new(self.record_capacity))
    }

    /// Takes the observations due before the chunk starting at `seq`, or
    /// at the end of the stream: boundary `B` captures the state after
    /// accesses `0..B`.
    pub(crate) fn before_chunk<C>(&mut self, seq: u64, system: &System<C>) {
        while self.next_boundary <= seq {
            self.bw_points.push(system.bw_point());
            self.next_boundary += self.cuts.interval;
        }
        if self.warm.is_none() && seq >= self.cuts.warmup {
            self.warm = Some((*system.counters(), system.now()));
        }
    }
}

/// What the report needs from the lookup stage once it has drained.
#[derive(Debug)]
pub(crate) struct LookupSummary {
    /// `(epochs, events, dropped events)`, when a recorder was installed.
    pub(crate) recorded: Option<(Vec<EpochSnapshot>, Vec<TimedEvent>, u64)>,
    pub(crate) stats: CtrlStats,
    pub(crate) overfetch: Option<f64>,
    pub(crate) metadata_bytes: u64,
    pub(crate) os_visible_bytes: u64,
    pub(crate) mode_switch_bytes: Option<u64>,
    pub(crate) page_faults: Option<u64>,
}

// End-of-run harvest shared by both lookup stages: measured deltas
// against the warm snapshot, observability assembly and the report. The
// timeline must have taken its observations at the end of the stream, and
// the system's drain must have run after them.
pub(crate) fn harvest<C>(
    system: &mut System<C>,
    design: Design,
    cfg: &RunConfig,
    profile: &SpecProfile,
    timeline: Timeline,
    lat_ring: Option<LatRing>,
    lookup: LookupSummary,
) -> (SimReport, Option<RunObservations>) {
    let (warm, warm_cycles) = timeline.warm.unwrap_or((*system.counters(), system.now()));
    let instructions = system.counters().instructions - warm.instructions;
    let cycles = system.now() - warm_cycles;
    let mal_cycles = system.counters().mal_cycles - warm.mal_cycles;
    let stall_cycles = system.counters().stall_cycles - warm.stall_cycles;
    let (hbm_counters, dram_counters) = (*system.hbm().counters(), *system.dram().counters());
    let hbm_hist: DeviceHistograms = system.hbm().histograms().clone();
    let dram_hist: DeviceHistograms = system.dram().histograms().clone();
    let path_counts = *system.path_counts();
    let traffic = system.take_traffic();

    let observations = lookup.recorded.map(|(epochs, events, dropped_events)| {
        let (records, dropped_records): (Vec<AccessRecord>, u64) = match lat_ring {
            Some(ring) => {
                let dropped = ring.dropped();
                (ring.into_vec(), dropped)
            }
            None => (Vec::new(), 0),
        };
        RunObservations {
            epochs,
            events,
            dropped_events,
            records,
            dropped_records,
            sample_rate: timeline.sample_rate,
            path_counts,
            hbm: hbm_hist,
            dram: dram_hist,
            traffic: traffic.expect("metrics on, so traffic accounting was enabled"),
            bw_points: timeline.bw_points,
        }
    });

    let report = SimReport {
        design: design.label().to_string(),
        workload: profile.name.to_string(),
        instructions,
        cycles: cycles.max(1),
        ipc: instructions as f64 / cycles.max(1) as f64,
        accesses: cfg.accesses,
        hbm_bytes: hbm_counters.total_bytes(),
        dram_bytes: dram_counters.total_bytes(),
        dynamic_energy_pj: system.dynamic_energy_pj(),
        background_energy_pj: system.background_energy_pj(),
        mal_cycles,
        stall_cycles,
        overfetch: lookup.overfetch,
        metadata_bytes: lookup.metadata_bytes,
        os_visible_bytes: lookup.os_visible_bytes,
        mode_switch_bytes: lookup.mode_switch_bytes,
        page_faults: lookup.page_faults,
        stats: lookup.stats,
    };
    (report, observations)
}

/// Runs the no-HBM reference on `profile` (the normalization denominator).
///
/// # Errors
///
/// See [`run_design`].
pub fn run_reference(cfg: &RunConfig, profile: &SpecProfile) -> Result<SimReport, GeometryError> {
    run_design(Design::NoHbm, cfg, profile)
}

/// A geometric mean together with how many inputs had to be clamped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geomean {
    /// The mean (0 for an empty slice).
    pub value: f64,
    /// Inputs that were non-positive or NaN and got clamped to the epsilon.
    /// Anything above zero means a run produced a degenerate metric and the
    /// figure is quietly misleading — surface it.
    pub clamped: usize,
}

/// Geometric mean with clamp diagnostics: non-positive (or NaN) entries are
/// clamped to a tiny epsilon so a single broken run cannot zero the whole
/// figure, and the number of such entries is reported.
pub fn geomean_diag(values: &[f64]) -> Geomean {
    if values.is_empty() {
        return Geomean { value: 0.0, clamped: 0 };
    }
    let mut clamped = 0usize;
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            if v >= 1e-12 {
                v.ln()
            } else {
                clamped += 1;
                1e-12f64.ln()
            }
        })
        .sum();
    Geomean { value: (log_sum / values.len() as f64).exp(), clamped }
}

/// Geometric mean (0 for an empty slice). In debug builds, panics if any
/// entry had to be clamped — use [`geomean_diag`] where degenerate inputs
/// are expected and must be reported instead.
pub fn geomean(values: &[f64]) -> f64 {
    let g = geomean_diag(values);
    debug_assert_eq!(
        g.clamped, 0,
        "geomean clamped {} non-positive entr{} in {values:?}",
        g.clamped,
        if g.clamped == 1 { "y" } else { "ies" }
    );
    g.value
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_obs::MetricsConfig;

    #[test]
    fn tiny_run_produces_consistent_report() {
        let cfg = RunConfig::tiny();
        let r = run_design(Design::Bumblebee, &cfg, &SpecProfile::mcf()).unwrap();
        assert_eq!(r.design, "Bumblebee");
        assert_eq!(r.workload, "mcf");
        assert!(r.cycles > 0 && r.instructions > 0);
        assert!(r.ipc > 0.0);
        assert!(r.hbm_bytes > 0, "Bumblebee must use HBM");
    }

    #[test]
    fn bumblebee_beats_no_hbm_on_mcf() {
        let cfg = RunConfig::tiny();
        let base = run_reference(&cfg, &SpecProfile::mcf()).unwrap();
        let bee = run_design(Design::Bumblebee, &cfg, &SpecProfile::mcf()).unwrap();
        assert!(
            bee.normalized_ipc(&base) > 1.0,
            "bumblebee {:.3} vs baseline 1.0",
            bee.normalized_ipc(&base)
        );
    }

    #[test]
    fn geomean_math() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_diag_counts_clamped_entries() {
        let clean = geomean_diag(&[2.0, 8.0]);
        assert_eq!(clean.clamped, 0);
        assert!((clean.value - 4.0).abs() < 1e-12);
        // Non-positive entries are clamped, not fatal, and counted.
        let dirty = geomean_diag(&[0.0, 4.0, -1.0, f64::NAN]);
        assert_eq!(dirty.clamped, 3);
        assert!(dirty.value >= 0.0);
        assert_eq!(geomean_diag(&[]).clamped, 0);
    }

    #[test]
    fn fig6_block_page_override() {
        let cfg = RunConfig::tiny().with_block_page(1 << 10, 96 << 10).unwrap();
        assert_eq!(cfg.geometry().block_bytes(), 1 << 10);
        assert_eq!(cfg.geometry().page_bytes(), 96 << 10);
        assert!(RunConfig::tiny().with_block_page(3000, 96 << 10).is_err());
    }

    #[test]
    fn instrumented_run_harvests_observations() {
        let cfg = RunConfig::tiny();
        let metrics =
            MetricsConfig { epoch_interval: 1000, event_capacity: 128, ..MetricsConfig::default() };
        let (report, obs) =
            run_design_batched(Design::Bumblebee, &cfg, &SpecProfile::mcf(), Some(&metrics), 64).unwrap();
        let obs = obs.expect("metrics requested");
        // Epochs cover warm-up + measured accesses.
        assert_eq!(obs.epochs.len() as u64, (cfg.warmup + cfg.accesses) / 1000);
        assert!(!obs.events.is_empty());
        assert!(obs.records.is_empty(), "sampling off by default");
        assert_eq!(obs.sample_rate, 0);
        assert_eq!(obs.path_counts.iter().sum::<u64>(), cfg.warmup + cfg.accesses);
        assert!(obs.hbm.latency.total() > 0, "HBM saw traffic");
        assert!(obs.dram.latency.total() > 0, "DRAM saw traffic");
        // Instrumentation does not perturb the simulation itself.
        let plain = run_design(Design::Bumblebee, &cfg, &SpecProfile::mcf()).unwrap();
        assert_eq!(report.cycles, plain.cycles);
        assert_eq!(report.hbm_bytes, plain.hbm_bytes);
        // And without metrics there is nothing to harvest.
        let (_, none) =
            run_design_batched(Design::Bumblebee, &cfg, &SpecProfile::mcf(), None, 64).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn sampled_tracing_records_and_reconciles() {
        let cfg = RunConfig::tiny();
        let metrics = MetricsConfig {
            epoch_interval: 1000,
            event_capacity: 128,
            sample_rate: 64,
            record_capacity: 65536,
        };
        let (report, obs) =
            run_design_batched(Design::Bumblebee, &cfg, &SpecProfile::mcf(), Some(&metrics), 64).unwrap();
        let obs = obs.expect("metrics requested");
        assert_eq!(obs.sample_rate, 64);
        assert!(!obs.records.is_empty(), "rate 64 over 24k accesses must sample");
        assert_eq!(obs.dropped_records, 0, "capacity covers the whole run");
        // Records are seq-sorted, components partition the total, and the
        // full path counts reconcile against the controller's counters.
        for w in obs.records.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        for r in &obs.records {
            assert_eq!(r.lookup + r.queue + r.service + r.stall, r.total);
        }
        assert_eq!(obs.path_counts[0] + obs.path_counts[1], report.stats.hbm_hits);
        assert_eq!(
            obs.path_counts[2] + obs.path_counts[3] + obs.path_counts[4],
            report.stats.offchip_serves
        );
        // Probing on sampled accesses never perturbs the cycle domain.
        let plain = run_design(Design::Bumblebee, &cfg, &SpecProfile::mcf()).unwrap();
        assert_eq!(report.cycles, plain.cycles);
        assert_eq!(report.hbm_bytes, plain.hbm_bytes);
    }

    #[test]
    fn deterministic_reports() {
        let cfg = RunConfig::tiny();
        let a = run_design(Design::Alloy, &cfg, &SpecProfile::xz()).unwrap();
        let b = run_design(Design::Alloy, &cfg, &SpecProfile::xz()).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.hbm_bytes, b.hbm_bytes);
    }
}
