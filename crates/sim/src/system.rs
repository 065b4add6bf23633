//! Plan execution: the clock, the devices, and cycle/traffic/energy
//! accounting.

use memsim_dram::{presets, DramDevice};
use memsim_obs::{sampled, AccessRecord, BwPoint, LatRing, TrafficAccum};
use memsim_types::{
    Access, AccessBatch, AccessKind, AccessPlan, Geometry, HybridMemoryController, Mem,
    PlanBuffer, TrafficCause,
};

/// Core-side timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Cycles per non-miss instruction (an ARM A72 sustains ~2 IPC on
    /// cache-resident code).
    pub cpi_base: f64,
    /// Memory-level parallelism: concurrent outstanding demand misses the
    /// core overlaps (divides exposed demand latency).
    pub mlp: f64,
}

impl Default for SimParams {
    fn default() -> Self {
        // An ARM A72-class core: ~2 IPC on cache-resident code and a
        // modest out-of-order window that overlaps about two outstanding
        // demand misses.
        SimParams { cpi_base: 0.5, mlp: 2.0 }
    }
}

/// Per-run traffic/latency aggregates maintained by the [`System`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemCounters {
    /// Demand accesses executed.
    pub accesses: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Total exposed demand latency (cycles, after MLP division).
    pub demand_cycles: u64,
    /// Metadata access latency: SRAM cycles plus in-memory metadata op
    /// latency on the critical path (the paper's MAL).
    pub mal_cycles: u64,
    /// OS stall cycles (page faults).
    pub stall_cycles: u64,
}

/// Executes [`AccessPlan`]s against the HBM2/DDR4 device models; see the
/// [crate documentation](crate).
///
/// The controller `C` plans ([`step_batch`](Self::step_batch)); a
/// `System<()>` services chunks some other lookup stage planned
/// ([`service`](Self::service)), as `--shards` runs do.
#[derive(Debug)]
pub struct System<C> {
    controller: C,
    hbm: DramDevice,
    dram: DramDevice,
    params: SimParams,
    /// Scratch of [`step`](Self::step) and [`finish`](Self::finish).
    plan: AccessPlan,
    one: AccessBatch,
    one_plan: PlanBuffer,
    now: u64,
    counters: SystemCounters,
    path_counts: [u64; 5],
    uses_hbm: bool,
    traffic: Option<Box<TrafficAccum>>,
}

impl<C> System<C> {
    /// Builds a system around `controller` with Table I devices sized by
    /// `geometry`. `uses_hbm` excludes HBM background energy for the no-HBM
    /// reference.
    pub fn new(controller: C, geometry: &Geometry, params: SimParams, uses_hbm: bool) -> System<C> {
        System {
            controller,
            hbm: DramDevice::new(presets::hbm2(geometry.hbm_bytes())),
            dram: DramDevice::new(presets::ddr4_3200(geometry.dram_bytes())),
            params,
            plan: AccessPlan::new(),
            one: AccessBatch::with_capacity(1),
            one_plan: PlanBuffer::new(),
            now: 0,
            counters: SystemCounters::default(),
            path_counts: [0; 5],
            uses_hbm,
            traffic: None,
        }
    }

    /// Turns on cause-attributed traffic accounting: every subsequent
    /// device transaction is folded into a [`TrafficAccum`]. Off by
    /// default — the disabled path costs one `Option` discriminant check
    /// per access.
    pub fn enable_traffic_accounting(&mut self) {
        self.traffic = Some(Box::default());
    }

    /// The traffic accumulator, when accounting is enabled.
    pub fn traffic(&self) -> Option<&TrafficAccum> {
        self.traffic.as_deref()
    }

    /// Takes the traffic accumulator out (end-of-run harvest).
    pub fn take_traffic(&mut self) -> Option<TrafficAccum> {
        self.traffic.take().map(|b| *b)
    }

    /// The cumulative bandwidth snapshot right now: attributed class
    /// bytes, the clock, and per-channel data-bus busy cycles. Epoch
    /// boundaries sample this to build the `bw_epoch` series.
    pub fn bw_point(&self) -> BwPoint {
        BwPoint {
            class_bytes: self.traffic.as_deref().map_or([0; 3], |t| {
                let mut bytes = [0u64; 3];
                for d in memsim_types::TrafficDevice::ALL {
                    bytes[d.index()] = t.matrix.device_bytes(d);
                }
                bytes
            }),
            cycles: self.now,
            hbm_busy: self.hbm.channel_busy_cycles(),
            dram_busy: self.dram.channel_busy_cycles(),
        }
    }

    /// The wrapped controller.
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// The wrapped controller, mutably (recorder install/harvest).
    pub fn controller_mut(&mut self) -> &mut C {
        &mut self.controller
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Aggregates so far.
    pub fn counters(&self) -> &SystemCounters {
        &self.counters
    }

    /// Full (unsampled) per-path access counts, indexed by
    /// [`AccessPath::index`](memsim_types::AccessPath::index) — every
    /// access is counted, so these reconcile exactly against the
    /// controller's hit/off-chip counters at any sampling rate.
    pub fn path_counts(&self) -> &[u64; 5] {
        &self.path_counts
    }

    /// Services one planned chunk: entry `i` of `plans` is the plan of
    /// access `i` of `batch`, and each is executed against the devices in
    /// strict stream order. This is the simulator's one service loop.
    ///
    /// `base_seq` is the global index of `batch`'s first access; the
    /// deterministic sampler records the cycle-domain decomposition of
    /// the selected accesses (metadata lookup, bus-queue wait, service,
    /// stall) into `ring` at `rate`. Returns the raw critical-path latency
    /// of the chunk's last access.
    ///
    /// Planning a whole chunk before servicing it is legal because the
    /// controller never reads the clock or the devices, and servicing
    /// never mutates controller state — see DESIGN.md §11. The caller
    /// must cut chunks so no epoch boundary or warm-up snapshot point
    /// falls strictly inside one.
    pub fn service(
        &mut self,
        batch: &AccessBatch,
        plans: &PlanBuffer,
        base_seq: u64,
        mut ring: Option<&mut LatRing>,
        rate: u64,
    ) -> u64 {
        let mut raw_latency = 0;
        for i in 0..batch.len() {
            let view = plans.entry(i);
            self.counters.accesses += 1;
            self.counters.instructions += u64::from(batch.insts[i]);
            self.path_counts[view.path.index()] += 1;
            if let Some(acc) = self.traffic.as_deref_mut() {
                acc.record_view(view.critical, view.background);
            }
            let seq = base_seq + i as u64;
            let probing = ring.is_some() && sampled(seq, rate);
            // Critical path: metadata, then each op in order.
            let mut t = self.now + u64::from(view.metadata_cycles);
            let mut mal = u64::from(view.metadata_cycles);
            // Bus-queue wait of non-metadata critical ops, measured only
            // for sampled accesses by snapshotting the device's exact
            // running queue-wait sum around each op.
            let mut queue = 0u64;
            for k in 0..view.critical.len() {
                let op = view.critical[k];
                let start = t;
                let q0 = if probing && op.cause != TrafficCause::Metadata {
                    self.device(op.mem).histograms().queue_wait.sum()
                } else {
                    0
                };
                t = self.device(op.mem).access(op.addr, op.bytes, op.kind, t);
                if op.cause == TrafficCause::Metadata {
                    mal += t - start;
                } else if probing {
                    queue += self.device(op.mem).histograms().queue_wait.sum() - q0;
                }
            }
            raw_latency = t - self.now;
            if probing {
                if let Some(r) = ring.as_deref_mut() {
                    r.push(AccessRecord {
                        seq,
                        path: view.path,
                        lookup: mal,
                        queue,
                        service: raw_latency - mal - queue,
                        stall: view.stall_cycles,
                        total: raw_latency + view.stall_cycles,
                    });
                }
            }
            // Background movement consumes bandwidth/energy but does not
            // stall this request. It is issued at the current clock (not
            // at the raw completion time): the clock advances by the
            // MLP-overlapped exposed latency, so issuing background work
            // further in the future would let device cursors drift
            // unboundedly ahead of sim time and charge every later demand
            // for queueing that never happens in a real (reordering,
            // demand-first) memory controller.
            let background_at = self.now;
            for k in 0..view.background.len() {
                let op = view.background[k];
                self.device(op.mem).access(op.addr, op.bytes, op.kind, background_at);
            }
            // Core model: base CPI on the instruction gap plus the exposed
            // (MLP-overlapped) miss latency plus OS stalls.
            let compute = (f64::from(batch.insts[i]) * self.params.cpi_base).ceil() as u64;
            let exposed = if batch.kinds[i] == AccessKind::Read {
                (raw_latency as f64 / self.params.mlp).ceil() as u64
            } else {
                0
            };
            self.counters.demand_cycles += exposed;
            self.counters.mal_cycles += mal;
            self.counters.stall_cycles += view.stall_cycles;
            self.now += compute + exposed + view.stall_cycles;
        }
        raw_latency
    }

    /// Issues an end-of-run drain plan's background ops at the current
    /// clock.
    pub(crate) fn drain(&mut self, plan: &AccessPlan) {
        if let Some(acc) = self.traffic.as_deref_mut() {
            acc.record_drain(plan);
        }
        let t = self.now;
        for op in &plan.background {
            self.device(op.mem).access(op.addr, op.bytes, op.kind, t);
        }
    }

    fn device(&mut self, mem: Mem) -> &mut DramDevice {
        match mem {
            Mem::Hbm => &mut self.hbm,
            Mem::OffChip => &mut self.dram,
        }
    }

    /// Memory dynamic energy in pJ (both devices).
    pub fn dynamic_energy_pj(&self) -> f64 {
        let hbm = if self.uses_hbm { self.hbm.dynamic_energy_pj() } else { 0.0 };
        hbm + self.dram.dynamic_energy_pj()
    }

    /// Memory background (static + refresh) energy in pJ over the run.
    pub fn background_energy_pj(&self) -> f64 {
        let hbm = if self.uses_hbm { self.hbm.background_energy_pj(self.now) } else { 0.0 };
        hbm + self.dram.background_energy_pj(self.now)
    }

    /// HBM device counters.
    pub fn hbm(&self) -> &DramDevice {
        &self.hbm
    }

    /// Off-chip device counters.
    pub fn dram(&self) -> &DramDevice {
        &self.dram
    }
}

impl<C: HybridMemoryController> System<C> {
    /// Runs one LLC-miss access through the controller and the devices
    /// (a one-access [`step_batch`](Self::step_batch)), returning its raw
    /// critical-path latency in cycles.
    pub fn step(&mut self, access: Access) -> u64 {
        let mut one = std::mem::take(&mut self.one);
        let mut plans = std::mem::take(&mut self.one_plan);
        one.clear();
        one.push(access.addr.0, access.kind, access.insts);
        let raw = self.plan_and_service(&one, &mut plans, self.counters.accesses, None, 0);
        self.one = one;
        self.one_plan = plans;
        raw
    }

    /// Runs one chunk of accesses through the staged pipeline: the
    /// controller plans every access of `batch` into `plans`
    /// (CtrlLookup), then [`service`](Self::service) executes them in
    /// strict stream order (DramService) — cycles and every observability
    /// stream are byte-identical at any chunk width.
    pub fn step_batch(
        &mut self,
        batch: &AccessBatch,
        plans: &mut PlanBuffer,
        base_seq: u64,
        ring: Option<&mut LatRing>,
        rate: u64,
    ) {
        self.plan_and_service(batch, plans, base_seq, ring, rate);
    }

    fn plan_and_service(
        &mut self,
        batch: &AccessBatch,
        plans: &mut PlanBuffer,
        base_seq: u64,
        ring: Option<&mut LatRing>,
        rate: u64,
    ) -> u64 {
        self.controller.access_batch(batch, plans);
        self.service(batch, plans, base_seq, ring, rate)
    }

    /// Finalizes the run (controller drain) and returns
    /// `(hbm, dram)` device references for reporting.
    pub fn finish(&mut self) -> (&DramDevice, &DramDevice) {
        let mut plan = std::mem::take(&mut self.plan);
        plan.clear();
        self.controller.finish(&mut plan);
        self.drain(&plan);
        self.plan = plan;
        (&self.hbm, &self.dram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bumblebee_core::{BumblebeeConfig, BumblebeeController};
    use memsim_types::Addr;

    fn geometry() -> Geometry {
        Geometry::paper(256)
    }

    fn system() -> System<BumblebeeController> {
        let g = geometry();
        System::new(
            BumblebeeController::new(g, BumblebeeConfig::default()),
            &g,
            SimParams::default(),
            true,
        )
    }

    #[test]
    fn step_advances_clock_and_counts() {
        let mut s = system();
        let lat = s.step(Access { addr: Addr(0), kind: AccessKind::Read, insts: 100 });
        assert!(lat > 0);
        assert!(s.now() > 0);
        assert_eq!(s.counters().accesses, 1);
        assert_eq!(s.counters().instructions, 100);
    }

    #[test]
    fn hbm_hits_are_faster_than_offchip_misses() {
        let mut s = system();
        let miss = s.step(Access::read(Addr(0)));
        // The immediately following hit may wait for the in-flight block
        // fill (real bandwidth contention); once the fill drains, steady
        // HBM hits must be faster than the cold off-chip miss.
        let mut hit = u64::MAX;
        for _ in 0..8 {
            hit = s.step(Access { addr: Addr(0), kind: AccessKind::Read, insts: 1000 });
        }
        assert!(hit < miss, "steady hit {hit} vs cold miss {miss}");
    }

    #[test]
    fn writes_expose_no_latency() {
        let mut s = system();
        s.step(Access::read(Addr(0)));
        let before = s.counters().demand_cycles;
        s.step(Access { addr: Addr(64), kind: AccessKind::Write, insts: 10 });
        assert_eq!(s.counters().demand_cycles, before);
    }

    #[test]
    fn background_traffic_reaches_devices() {
        let mut s = system();
        s.step(Access::read(Addr(0))); // triggers a block fill
        let (hbm, dram) = (s.hbm().counters(), s.dram().counters());
        assert!(hbm.write_bytes > 0, "fill wrote into HBM");
        assert!(dram.read_bytes > 0);
    }

    #[test]
    fn energy_accumulates() {
        let mut s = system();
        for i in 0..50u64 {
            s.step(Access::read(Addr(i * 64)));
        }
        assert!(s.dynamic_energy_pj() > 0.0);
        assert!(s.background_energy_pj() > 0.0);
    }

    /// Drives `accesses` through `s` in chunks of `width`, sampling every
    /// `rate`-th access into the returned ring.
    fn drive(s: &mut System<BumblebeeController>, accesses: &[Access], width: usize, rate: u64) -> LatRing {
        let mut ring = LatRing::new(1024);
        let mut plans = PlanBuffer::new();
        let mut batch = AccessBatch::new();
        let mut base = 0usize;
        for chunk in accesses.chunks(width) {
            batch.clear();
            for a in chunk {
                batch.push(a.addr.0, a.kind, a.insts);
            }
            s.step_batch(&batch, &mut plans, base as u64, Some(&mut ring), rate);
            base += chunk.len();
        }
        ring
    }

    fn stream() -> Vec<Access> {
        (0..500u64)
            .map(|i| Access {
                addr: Addr(((i * 37) % 300) * 64),
                kind: if i % 5 == 0 { AccessKind::Write } else { AccessKind::Read },
                insts: (i % 40) as u32,
            })
            .collect()
    }

    #[test]
    fn sampled_decomposition_is_exact_and_paths_reconcile() {
        let mut s = system();
        let records = drive(&mut s, &stream(), 64, 1).into_vec();
        assert_eq!(records.len(), 500, "rate 1 samples every access");
        for r in &records {
            assert_eq!(r.lookup + r.queue + r.service + r.stall, r.total);
        }
        assert_eq!(s.path_counts().iter().sum::<u64>(), s.counters().accesses);
        let st = s.controller().stats().clone();
        assert_eq!(s.path_counts()[0] + s.path_counts()[1], st.hbm_hits);
        assert_eq!(
            s.path_counts()[2] + s.path_counts()[3] + s.path_counts()[4],
            st.offchip_serves
        );
    }

    #[test]
    fn sampling_never_perturbs_the_clock() {
        let (mut a, mut b) = (system(), system());
        drive(&mut a, &stream(), 64, 1);
        drive(&mut b, &stream(), 64, 0);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn step_batch_matches_per_access_stepping() {
        let mut serial = system();
        let mut single = system();
        let mut batched = system();
        serial.enable_traffic_accounting();
        batched.enable_traffic_accounting();
        let accesses = stream();
        for a in &accesses {
            serial.step(*a);
        }
        // Awkward chunk widths (ends mid-stream, width-1 tail) against
        // one-access chunks, both sampled at the same rate.
        let ring_single = drive(&mut single, &accesses, 1, 8);
        let ring_batched = drive(&mut batched, &accesses, 13, 8);
        assert_eq!(serial.now(), batched.now(), "clock domain identical");
        assert_eq!(serial.counters(), batched.counters());
        assert_eq!(single.counters(), batched.counters());
        assert_eq!(serial.path_counts(), batched.path_counts());
        assert_eq!(serial.traffic(), batched.traffic());
        assert_eq!(ring_single.into_vec(), ring_batched.into_vec(), "sampled records identical");
        assert_eq!(serial.hbm().histograms(), batched.hbm().histograms());
        assert_eq!(serial.dram().histograms(), batched.dram().histograms());
    }

    #[test]
    fn bw_point_class_bytes_reconcile_with_the_devices() {
        let mut s = system();
        s.enable_traffic_accounting();
        drive(&mut s, &stream(), 64, 0);
        let p = s.bw_point();
        let (hbm, dram) = (s.hbm().counters().total_bytes(), s.dram().counters().total_bytes());
        assert_eq!(p.class_bytes.iter().sum::<u64>(), hbm + dram);
        assert_eq!(p.class_bytes[memsim_types::TrafficDevice::OffChip.index()], dram);
        assert_eq!(p.cycles, s.now());
    }

    #[test]
    fn finish_drains_controller() {
        let mut s = system();
        s.step(Access::read(Addr(0)));
        let (_, _) = s.finish();
        assert!(s.controller().overfetch_ratio().is_some());
    }
}
