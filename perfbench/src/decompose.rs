//! The traced pass: one cell driven chunk by chunk through public
//! functions only, with each layer timed from outside.
//!
//! Per chunk of up to [`DEFAULT_BATCH`] accesses the loop
//!
//! 1. generates the chunk (`Workload::fill_batch`, the `trace` layer);
//! 2. runs it through the real system (`System::step_batch`, which plans
//!    and services the chunk);
//! 3. plans the same chunk again on a *twin* controller of the same design
//!    (`access_batch`, the lookup layer — legal because a controller never
//!    reads the clock or the devices, DESIGN.md §11);
//! 4. replays the twin's plans against the benchmark's own device pair with
//!    the system's clock rules, recording every `DramDevice::access` call
//!    (untimed), then times the recorded calls on a third device pair that
//!    has seen exactly the same calls (the `dram` layer).
//!
//! The system's service loop is what remains of step 2 after steps 3
//! and 4. Both the system and the replay yield a full [`SimReport`]; the
//! checks require both to equal `run_design_batched`'s.

use memsim_dram::{presets, DramDevice};
use memsim_sim::designs::AnyController;
use memsim_sim::{Cell, SimReport, System, DEFAULT_BATCH};
use memsim_types::{
    AccessBatch, AccessKind, Addr, DeviceOp, HybridMemoryController, Mem, OpKind, PlanBuffer,
    PlanView, TrafficCause,
};
use std::time::Instant;

/// Host time and counts of one traced cell.
#[derive(Debug, Clone)]
pub struct CellTrace {
    /// The report the traced system produced.
    pub report: SimReport,
    /// The report the twin controller plus device replay produced.
    pub replay_report: SimReport,
    /// Whether the timed device pair ended in the same state as the pair
    /// that scheduled the calls (it saw exactly the same calls).
    pub timed_replay_matches: bool,
    /// Accesses the system counted after the warm-up snapshot.
    pub measured_accesses: u64,
    /// Accesses simulated, warm-up included.
    pub accesses: u64,
    /// `fill_batch` nanoseconds.
    pub fill_ns: u64,
    /// `System::step_batch` nanoseconds.
    pub step_ns: u64,
    /// Twin `access_batch` nanoseconds.
    pub lookup_ns: u64,
    /// Replayed HBM `DramDevice::access` nanoseconds.
    pub hbm_ns: u64,
    /// Replayed off-chip `DramDevice::access` nanoseconds.
    pub offchip_ns: u64,
    /// HBM `DramDevice::access` calls.
    pub hbm_ops: u64,
    /// Off-chip `DramDevice::access` calls.
    pub offchip_ops: u64,
    /// Device operations in the plans (critical + background).
    pub plan_ops: u64,
    /// Per-path access counts of the system, warm-up included.
    pub path_counts: [u64; 5],
    /// Per-channel busy cycles of the system's HBM device at the end.
    pub hbm_busy: Vec<u64>,
    /// Per-channel busy cycles of the system's off-chip device at the end.
    pub offchip_busy: Vec<u64>,
    /// The system clock at the end.
    pub end_cycles: u64,
    /// Wall nanoseconds of the whole traced cell, side work included.
    pub wall_ns: u64,
}

/// One recorded device call.
#[derive(Debug, Clone, Copy)]
struct Call {
    addr: u64,
    bytes: u32,
    kind: OpKind,
    now: u64,
}

/// The benchmark's own copy of the system's clock and devices, fed the
/// twin controller's plans.
struct Replay {
    hbm: DramDevice,
    offchip: DramDevice,
    timed_hbm: DramDevice,
    timed_offchip: DramDevice,
    hbm_calls: Vec<Call>,
    offchip_calls: Vec<Call>,
    cpi_base: f64,
    mlp: f64,
    clock: Clock,
}

/// The replay's clock and core counters (the `System` keeps the same).
#[derive(Debug, Clone, Copy, Default)]
struct Clock {
    now: u64,
    instructions: u64,
    mal: u64,
    stall: u64,
}

impl Replay {
    fn new(cell: &Cell) -> Replay {
        let g = &cell.cfg.geometry;
        let hbm = DramDevice::new(presets::hbm2(g.hbm_bytes()));
        let offchip = DramDevice::new(presets::ddr4_3200(g.dram_bytes()));
        Replay {
            timed_hbm: hbm.clone(),
            timed_offchip: offchip.clone(),
            hbm,
            offchip,
            hbm_calls: Vec::new(),
            offchip_calls: Vec::new(),
            cpi_base: cell.cfg.params.cpi_base,
            mlp: cell.cfg.params.mlp,
            clock: Clock::default(),
        }
    }

    /// Issues one op at `at` on the schedule devices, recording the call.
    fn issue(&mut self, op: &DeviceOp, at: u64) -> u64 {
        let call = Call {
            addr: op.addr.0,
            bytes: op.bytes,
            kind: op.kind,
            now: at,
        };
        match op.mem {
            Mem::Hbm => {
                self.hbm_calls.push(call);
                self.hbm.access(op.addr, op.bytes, op.kind, at)
            }
            Mem::OffChip => {
                self.offchip_calls.push(call);
                self.offchip.access(op.addr, op.bytes, op.kind, at)
            }
        }
    }

    /// Services one planned access with `System::step_batch`'s clock rules.
    fn service(&mut self, view: &PlanView<'_>, insts: u32, kind: AccessKind) {
        let now = self.clock.now;
        let mut t = now + u64::from(view.metadata_cycles);
        let mut mal = u64::from(view.metadata_cycles);
        for op in view.critical {
            let start = t;
            t = self.issue(op, t);
            if op.cause == TrafficCause::Metadata {
                mal += t - start;
            }
        }
        let raw = t - now;
        for op in view.background {
            self.issue(op, now);
        }
        let compute = (f64::from(insts) * self.cpi_base).ceil() as u64;
        let exposed = if kind == AccessKind::Read {
            (raw as f64 / self.mlp).ceil() as u64
        } else {
            0
        };
        let c = &mut self.clock;
        c.instructions += u64::from(insts);
        c.mal += mal;
        c.stall += view.stall_cycles;
        c.now += compute + exposed + view.stall_cycles;
    }

    /// Replays the recorded calls on the timed device pair; returns
    /// `(hbm ns, off-chip ns)`.
    fn timed_replay(&mut self) -> (u64, u64) {
        let t = Instant::now();
        for c in &self.hbm_calls {
            self.timed_hbm.access(Addr(c.addr), c.bytes, c.kind, c.now);
        }
        let hbm = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        for c in &self.offchip_calls {
            self.timed_offchip
                .access(Addr(c.addr), c.bytes, c.kind, c.now);
        }
        let offchip = t.elapsed().as_nanos() as u64;
        self.hbm_calls.clear();
        self.offchip_calls.clear();
        (hbm, offchip)
    }
}

/// Drives `cell` through the traced pass.
pub fn trace_cell(cell: &Cell) -> CellTrace {
    let wall = Instant::now();
    let cfg = &cell.cfg;
    let design = cell.design;
    let mut system = System::new(
        design.build(cfg.geometry, cfg.sram_budget),
        &cfg.geometry,
        cfg.params,
        design.uses_hbm(),
    );
    let mut twin = design.build(cfg.geometry, cfg.sram_budget);
    let mut replay = Replay::new(cell);
    let mut workload = cfg.workload(&cell.profile);

    let total = cfg.warmup + cfg.accesses;
    let mut soa = AccessBatch::with_capacity(DEFAULT_BATCH);
    let mut plans = PlanBuffer::new();
    let mut twin_plans = PlanBuffer::new();
    let (mut fill_ns, mut step_ns, mut lookup_ns, mut hbm_ns, mut offchip_ns) = (0, 0, 0, 0, 0);
    let (mut hbm_ops, mut offchip_ops, mut plan_ops) = (0u64, 0u64, 0u64);
    let mut warm = None;
    let mut seq = 0u64;
    while seq < total {
        if warm.is_none() && seq >= cfg.warmup {
            warm = Some((*system.counters(), system.now(), replay.clock));
        }
        let mut end = (seq + DEFAULT_BATCH as u64).min(total);
        if seq < cfg.warmup {
            end = end.min(cfg.warmup);
        }
        let n = (end - seq) as usize;

        let t = Instant::now();
        workload.fill_batch(&mut soa, n);
        fill_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        system.step_batch(&soa, &mut plans, seq, None, 0);
        step_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        twin.access_batch(&soa, &mut twin_plans);
        lookup_ns += t.elapsed().as_nanos() as u64;

        for i in 0..n {
            let view = twin_plans.entry(i);
            plan_ops += (view.critical.len() + view.background.len()) as u64;
            replay.service(&view, soa.insts[i], soa.kinds[i]);
        }
        hbm_ops += replay.hbm_calls.len() as u64;
        offchip_ops += replay.offchip_calls.len() as u64;
        let (h, o) = replay.timed_replay();
        hbm_ns += h;
        offchip_ns += o;
        seq = end;
    }
    let (warm_counters, warm_cycles, replay_warm) =
        warm.unwrap_or((*system.counters(), system.now(), replay.clock));
    let measured_accesses = system.counters().accesses - warm_counters.accesses;
    let path_counts = *system.path_counts();

    // The system's report, assembled as `run_design_batched`'s harvest does.
    let instructions = system.counters().instructions - warm_counters.instructions;
    let cycles = system.now() - warm_cycles;
    let mal_cycles = system.counters().mal_cycles - warm_counters.mal_cycles;
    let stall_cycles = system.counters().stall_cycles - warm_counters.stall_cycles;
    let (hbm, dram) = system.finish();
    let (hbm_bytes, dram_bytes) = (hbm.counters().total_bytes(), dram.counters().total_bytes());
    let (hbm_busy, offchip_busy) = (hbm.channel_busy_cycles(), dram.channel_busy_cycles());
    let end_cycles = system.now();
    let report = assemble(
        cell,
        system.controller(),
        Totals {
            instructions,
            cycles,
            mal_cycles,
            stall_cycles,
            hbm_bytes,
            dram_bytes,
            dynamic_energy_pj: system.dynamic_energy_pj(),
            background_energy_pj: system.background_energy_pj(),
        },
    );

    // The replay's report: the twin drains like the system's controller,
    // and the drain is issued at the replay clock.
    let mut drain = memsim_types::AccessPlan::new();
    twin.finish(&mut drain);
    let end = replay.clock;
    for op in &drain.background {
        replay.issue(op, end.now);
    }
    replay.timed_replay();
    let hbm_pj = |pj: f64| if design.uses_hbm() { pj } else { 0.0 };
    let replay_report = assemble(
        cell,
        &twin,
        Totals {
            instructions: end.instructions - replay_warm.instructions,
            cycles: end.now - replay_warm.now,
            mal_cycles: end.mal - replay_warm.mal,
            stall_cycles: end.stall - replay_warm.stall,
            hbm_bytes: replay.hbm.counters().total_bytes(),
            dram_bytes: replay.offchip.counters().total_bytes(),
            dynamic_energy_pj: hbm_pj(replay.hbm.dynamic_energy_pj())
                + replay.offchip.dynamic_energy_pj(),
            background_energy_pj: hbm_pj(replay.hbm.background_energy_pj(end.now))
                + replay.offchip.background_energy_pj(end.now),
        },
    );
    let timed_replay_matches = replay.timed_hbm.counters() == replay.hbm.counters()
        && replay.timed_offchip.counters() == replay.offchip.counters();

    CellTrace {
        report,
        replay_report,
        timed_replay_matches,
        measured_accesses,
        accesses: total,
        fill_ns,
        step_ns,
        lookup_ns,
        hbm_ns,
        offchip_ns,
        hbm_ops,
        offchip_ops,
        plan_ops,
        path_counts,
        hbm_busy,
        offchip_busy,
        end_cycles,
        wall_ns: wall.elapsed().as_nanos() as u64,
    }
}

/// Cycle-domain totals of one run.
struct Totals {
    instructions: u64,
    cycles: u64,
    mal_cycles: u64,
    stall_cycles: u64,
    hbm_bytes: u64,
    dram_bytes: u64,
    dynamic_energy_pj: f64,
    background_energy_pj: f64,
}

/// A [`SimReport`] from run totals plus the controller's own counters.
fn assemble(cell: &Cell, controller: &AnyController, t: Totals) -> SimReport {
    SimReport {
        design: cell.design.label().to_string(),
        workload: cell.profile.name.to_string(),
        instructions: t.instructions,
        cycles: t.cycles.max(1),
        ipc: t.instructions as f64 / t.cycles.max(1) as f64,
        accesses: cell.cfg.accesses,
        hbm_bytes: t.hbm_bytes,
        dram_bytes: t.dram_bytes,
        dynamic_energy_pj: t.dynamic_energy_pj,
        background_energy_pj: t.background_energy_pj,
        mal_cycles: t.mal_cycles,
        stall_cycles: t.stall_cycles,
        overfetch: controller.overfetch_ratio(),
        metadata_bytes: controller.metadata_bytes(),
        os_visible_bytes: controller.os_visible_bytes(),
        mode_switch_bytes: controller.mode_switch_bytes(),
        page_faults: controller.page_faults(),
        stats: controller.stats().clone(),
    }
}
