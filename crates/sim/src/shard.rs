//! Set-sharded lookup: `--shards N` as a pure performance transform.
//!
//! [`run_design_sharded`] splits only the *lookup stage* of a run. N
//! set-range [`BumblebeeController`]s, one per contiguous range of a
//! [`ShardPlan`], plan every chunk on worker threads while the calling
//! thread generates chunks ahead and services the planned ones against
//! the run's single shared device pair ([`System::service`]). Every range
//! controller walks the whole chunk, so all of them derive the same
//! global pressure-flush schedule and each flushes the window sets it
//! owns; [`splice`] reassembles each access's operations in serial order.
//! The run is therefore the serial run, byte for byte, at any shard
//! count — DESIGN.md §11 makes the overlap legal: a controller never
//! reads the clock or the devices.

use crate::designs::Design;
use crate::report::SimReport;
use crate::run::{harvest, run_controller, LookupSummary, RunConfig, RunObservations, Timeline};
use crate::system::System;
use bumblebee_core::{splice, BumblebeeConfig, BumblebeeController, EpochPartial, RangePlans};
use memsim_obs::{merge_shard_events, EpochSnapshot, MetricsConfig, RunRecorder, TimedEvent};
use memsim_trace::SpecProfile;
use memsim_types::{
    AccessBatch, AccessPlan, CtrlStats, GeometryError, HybridMemoryController, PlanBuffer,
};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;

/// A partition of the remapping sets into contiguous, balanced,
/// gap-free ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<(u64, u64)>,
}

impl ShardPlan {
    /// Partitions `num_sets` sets into `shards` contiguous ranges
    /// (clamped to `[1, num_sets]`); the first `num_sets % shards` ranges
    /// are one set longer, so sizes differ by at most one.
    pub fn new(num_sets: u64, shards: usize) -> ShardPlan {
        let n = (shards.max(1) as u64).min(num_sets.max(1));
        let base = num_sets / n;
        let rem = num_sets % n;
        let mut ranges = Vec::with_capacity(n as usize);
        let mut lo = 0;
        for i in 0..n {
            let len = base + u64::from(i < rem);
            ranges.push((lo, lo + len));
            lo += len;
        }
        ShardPlan { ranges }
    }

    /// The `[lo, hi)` set ranges, ascending and adjacent.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the plan is empty (never: at least one shard).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Runs `design` on `profile` in chunks of up to `batch` accesses with
/// its lookup stage on `shards` worker threads, each owning one contiguous
/// set range of a [`ShardPlan`], while the calling thread generates each
/// chunk and services the planned ones. Output is
/// byte-identical to [`run_design_batched`](crate::run::run_design_batched)
/// at any `shards` and `batch`. Designs without set-range lookup
/// ([`Design::supports_sharding`]) and `shards <= 1` keep the lookup on
/// the calling thread.
///
/// # Errors
///
/// Currently infallible in practice; see
/// [`run_design`](crate::run::run_design).
pub fn run_design_sharded(
    design: Design,
    cfg: &RunConfig,
    profile: &SpecProfile,
    metrics: Option<&MetricsConfig>,
    shards: usize,
    batch: usize,
) -> Result<(SimReport, Option<RunObservations>), GeometryError> {
    match design.bumblebee_config(cfg.sram_budget) {
        Some(bee) if shards > 1 => {
            let plan = ShardPlan::new(cfg.geometry.num_sets(), shards);
            Ok(run_ranged(design, bee, &plan, cfg, profile, metrics, batch))
        }
        _ => {
            let controller = design.build(cfg.geometry, cfg.sram_budget);
            run_controller(design, controller, cfg, profile, metrics, batch)
        }
    }
}

/// Accesses the ranges may plan ahead of the chunk being serviced: slack
/// enough that a descheduled worker catches up without stalling the
/// calling thread, and the other way round, when the host has fewer cores
/// than the cell has threads.
const LOOKAHEAD_ACCESSES: usize = 8 * crate::engine::DEFAULT_BATCH;

/// One chunk for a range worker: the accesses, shared read-only, whether
/// the chunk closes an epoch, and the buffers to plan into.
struct Job {
    batch: Arc<AccessBatch>,
    closes_epoch: bool,
    out: RangePlans,
}

/// What a range worker hands back at the end of the run.
struct Finished {
    controller: BumblebeeController,
    /// The range's epoch partial at every boundary, in order.
    partials: Vec<EpochPartial>,
    /// The range's end-of-run drain.
    drain: AccessPlan,
}

/// A range worker: plans every chunk it is sent, in order, then drains
/// its sets.
fn range_worker(
    mut controller: BumblebeeController,
    jobs: &mpsc::Receiver<Job>,
    done: &mpsc::Sender<RangePlans>,
) -> Finished {
    let mut partials = Vec::new();
    while let Ok(Job { batch, closes_epoch, mut out }) = jobs.recv() {
        controller.plan_range(&batch, &mut out);
        if closes_epoch {
            partials.push(controller.epoch_partial());
        }
        // Release the chunk before reporting: once every range has
        // reported, the calling thread owns the buffer again.
        drop(batch);
        if done.send(out).is_err() {
            break;
        }
    }
    let mut drain = AccessPlan::new();
    controller.finish(&mut drain);
    Finished { controller, partials, drain }
}

/// A range worker as the calling thread sees it.
struct Worker {
    jobs: mpsc::Sender<Job>,
    done: mpsc::Receiver<RangePlans>,
    /// Plan buffers not currently out with a job.
    pool: Vec<RangePlans>,
}

fn run_ranged(
    design: Design,
    bee: BumblebeeConfig,
    plan: &ShardPlan,
    cfg: &RunConfig,
    profile: &SpecProfile,
    metrics: Option<&MetricsConfig>,
    batch: usize,
) -> (SimReport, Option<RunObservations>) {
    let geometry = cfg.geometry;
    let mut system = System::new((), &geometry, cfg.params, design.uses_hbm());
    if metrics.is_some() {
        system.enable_traffic_accounting();
    }
    let mut timeline = Timeline::new(cfg, metrics, batch);
    let cuts = timeline.cuts;
    let mut lat_ring = timeline.lat_ring();
    let mut workload = cfg.workload(profile);
    // Chunks in flight: at least one, at most eight.
    let lookahead = (LOOKAHEAD_ACCESSES / batch.max(1)).clamp(1, 8);
    let finished: Vec<Finished> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(plan.len());
        let mut workers: Vec<Worker> = Vec::with_capacity(plan.len());
        for &(lo, hi) in plan.ranges() {
            let mut controller = BumblebeeController::with_range(geometry, bee.clone(), lo, hi);
            if let Some(m) = metrics {
                controller.telemetry_mut().install(Box::new(RunRecorder::new(m)));
            }
            let (jobs, jobs_rx) = mpsc::channel();
            let (done_tx, done) = mpsc::channel();
            handles.push(scope.spawn(move || range_worker(controller, &jobs_rx, &done_tx)));
            let pool = (0..=lookahead).map(|_| RangePlans::new()).collect();
            workers.push(Worker { jobs, done, pool });
        }
        // Chunks generated and sent to the ranges but not yet serviced,
        // in stream order; the calling thread generates and services
        // while the ranges plan up to `lookahead` chunks ahead.
        let mut queue: VecDeque<(u64, Arc<AccessBatch>)> = VecDeque::with_capacity(lookahead);
        let mut free: Vec<Arc<AccessBatch>> =
            (0..=lookahead).map(|_| Arc::new(AccessBatch::with_capacity(batch.max(1)))).collect();
        let mut generated = 0u64;
        let mut refill = |queue: &mut VecDeque<(u64, Arc<AccessBatch>)>,
                          free: &mut Vec<Arc<AccessBatch>>,
                          workers: &mut [Worker]| {
            while queue.len() < lookahead && generated < cuts.total {
                let end = cuts.chunk_end(generated);
                let mut chunk = free.pop().expect("a free chunk buffer");
                let soa = Arc::get_mut(&mut chunk).expect("every range released the chunk");
                workload.fill_batch(soa, (end - generated) as usize);
                for w in workers.iter_mut() {
                    let out = w.pool.pop().expect("a free plan buffer");
                    let closes_epoch = cuts.is_boundary(end);
                    let job = Job { batch: Arc::clone(&chunk), closes_epoch, out };
                    w.jobs.send(job).expect("range worker alive");
                }
                queue.push_back((generated, chunk));
                generated = end;
            }
        };
        let mut parts: Vec<RangePlans> = Vec::with_capacity(workers.len());
        let mut plans = PlanBuffer::new();
        refill(&mut queue, &mut free, &mut workers);
        while let Some((seq, chunk)) = queue.pop_front() {
            parts.extend(workers.iter().map(|w| w.done.recv().expect("range worker alive")));
            splice(&mut parts, chunk.len(), &mut plans);
            for (w, part) in workers.iter_mut().zip(parts.drain(..)) {
                w.pool.push(part);
            }
            timeline.before_chunk(seq, &system);
            system.service(&chunk, &plans, seq, lat_ring.as_mut(), timeline.sample_rate);
            free.push(chunk);
            refill(&mut queue, &mut free, &mut workers);
        }
        timeline.before_chunk(cuts.total, &system);
        drop(workers);
        handles.into_iter().map(|h| h.join().expect("range worker panicked")).collect()
    });
    // The ranges are ascending, so their drains in range order are the
    // serial drain.
    let mut controllers: Vec<BumblebeeController> = Vec::with_capacity(finished.len());
    let mut partials: Vec<Vec<EpochPartial>> = Vec::with_capacity(finished.len());
    let mut drain = AccessPlan::new();
    for f in finished {
        drain.critical.extend_from_slice(&f.drain.critical);
        drain.background.extend_from_slice(&f.drain.background);
        controllers.push(f.controller);
        partials.push(f.partials);
    }
    system.drain(&drain);
    let lookup = summarize(&mut controllers, &partials, metrics, &geometry);
    harvest(&mut system, design, cfg, profile, timeline, lat_ring, lookup)
}

/// The report's view of the drained range controllers: their summed
/// final partials and counters, and the epochs rebuilt from the summed
/// partials at each boundary.
fn summarize(
    controllers: &mut [BumblebeeController],
    partials: &[Vec<EpochPartial>],
    metrics: Option<&MetricsConfig>,
    geometry: &memsim_types::Geometry,
) -> LookupSummary {
    let mut end = EpochPartial::default();
    let (mut mode_switch, mut faults) = (0, 0);
    for c in controllers.iter() {
        end.absorb(&c.epoch_partial());
        mode_switch += c.mode_switch_bytes();
        faults += c.page_faults();
    }
    let recorded = metrics.map(|m| {
        let mut epochs = Vec::with_capacity(partials[0].len());
        let mut prev = CtrlStats::new();
        for b in 0..partials[0].len() {
            let mut sum = EpochPartial::default();
            for p in partials {
                sum.absorb(&p[b]);
            }
            let accesses = (b as u64 + 1) * m.epoch_interval;
            let gauges = sum.gauges(geometry);
            epochs.push(EpochSnapshot::from_delta(b as u64, accesses, &sum.ctrl, &prev, gauges));
            prev = sum.ctrl;
        }
        let parts: Vec<(Vec<TimedEvent>, u64)> = controllers
            .iter_mut()
            .map(|c| {
                let rec = c.telemetry_mut().take().and_then(|r| r.into_run());
                let rec = rec.expect("metrics on, so every range records");
                let (_, events, dropped) = rec.into_parts();
                (events, dropped)
            })
            .collect();
        let (events, dropped) = merge_shard_events(parts, m.event_capacity);
        (epochs, events, dropped)
    });
    let first = &controllers[0];
    LookupSummary {
        recorded,
        overfetch: first.config().track_overfetch.then(|| end.gauges(geometry).overfetch_ratio),
        metadata_bytes: first.metadata_bytes(),
        os_visible_bytes: geometry.dram_bytes() + end.mhbm * geometry.page_bytes(),
        mode_switch_bytes: Some(mode_switch),
        page_faults: Some(faults),
        stats: end.ctrl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_partitions_without_gaps_or_overlap() {
        // Non-divisible counts: sizes differ by at most one, union is exact.
        for (sets, shards) in [(7u64, 3usize), (5, 8), (1, 4), (16, 5), (512, 7)] {
            let plan = ShardPlan::new(sets, shards);
            assert!(plan.len() <= shards.max(1));
            assert!(plan.len() as u64 <= sets);
            let mut expected_lo = 0;
            let mut sizes = Vec::new();
            for &(lo, hi) in plan.ranges() {
                assert_eq!(lo, expected_lo, "ranges adjacent, {sets} sets / {shards} shards");
                assert!(hi > lo, "no empty shard");
                sizes.push(hi - lo);
                expected_lo = hi;
            }
            assert_eq!(expected_lo, sets, "ranges cover every set");
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    fn shard_plan_clamps_width() {
        assert_eq!(ShardPlan::new(4, 0).len(), 1);
        assert_eq!(ShardPlan::new(4, 100).len(), 4);
    }

    #[test]
    fn sharded_run_reproduces_the_serial_run_at_widths_two_three_eight() {
        let cfg = RunConfig::tiny();
        let metrics = MetricsConfig {
            epoch_interval: 1000,
            event_capacity: 128,
            sample_rate: 16,
            ..MetricsConfig::default()
        };
        let profile = SpecProfile::mcf();
        let (r1, o1) =
            crate::run::run_design_batched(Design::Bumblebee, &cfg, &profile, Some(&metrics), 1).unwrap();
        let o1 = o1.unwrap();
        assert_eq!(o1.epochs.len() as u64, (cfg.warmup + cfg.accesses) / 1000);
        assert!(r1.cycles > 1 && r1.instructions > 0 && r1.hbm_bytes > 0);
        assert!(!o1.records.is_empty(), "sample_rate 16 must select some accesses");
        assert!(!o1.events.is_empty());
        for shards in [2usize, 3, 8] {
            let (r, o) =
                run_design_sharded(Design::Bumblebee, &cfg, &profile, Some(&metrics), shards, 4096)
                    .unwrap();
            let o = o.unwrap();
            assert_eq!(r1.to_jsonl(), r.to_jsonl(), "report at {shards} shards");
            assert_eq!(o1.epochs, o.epochs, "epochs at {shards} shards");
            assert_eq!(o1.events, o.events, "events at {shards} shards");
            assert_eq!(o1.dropped_events, o.dropped_events);
            assert_eq!(o1.records, o.records, "lat records at {shards} shards");
            assert_eq!(o1.dropped_records, o.dropped_records);
            assert_eq!(o1.path_counts, o.path_counts, "path counts at {shards} shards");
            assert_eq!(o1.hbm, o.hbm, "hbm histograms at {shards} shards");
            assert_eq!(o1.dram, o.dram, "dram histograms at {shards} shards");
            assert_eq!(o1.traffic, o.traffic, "traffic at {shards} shards");
            assert_eq!(o1.bw_points, o.bw_points, "bandwidth at {shards} shards");
        }
    }

    #[test]
    fn ablations_shard_too() {
        let cfg = RunConfig::tiny();
        let profile = SpecProfile::xz();
        let d = Design::Ablation("M-Only");
        assert!(d.supports_sharding());
        let (a, _) = crate::run::run_design_batched(d, &cfg, &profile, None, 4096).unwrap();
        let (b, _) = run_design_sharded(d, &cfg, &profile, None, 3, 7).unwrap();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn baselines_keep_serial_lookup() {
        assert!(!Design::NoHbm.supports_sharding());
        assert!(!Design::Alloy.supports_sharding());
        assert!(!Design::Hybrid2.supports_sharding());
        assert!(Design::Bumblebee.supports_sharding());
        let cfg = RunConfig::tiny();
        let (a, _) = crate::run::run_design_batched(Design::Banshee, &cfg, &SpecProfile::mcf(), None, 64)
            .unwrap();
        let (b, _) =
            run_design_sharded(Design::Banshee, &cfg, &SpecProfile::mcf(), None, 4, 64).unwrap();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }
}
