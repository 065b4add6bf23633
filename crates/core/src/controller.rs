//! The Bumblebee HMMC, over the whole set space or a contiguous range.

use crate::config::BumblebeeConfig;
use crate::metadata::MetadataBreakdown;
use crate::range::{EpochPartial, FlushSeg, MetaSplit, RangePlans};
use crate::set::{RemapSet, ServedFrom, SetCtx};
use memsim_obs::span::{self, Phase};
use memsim_obs::{EpochGauges, Telemetry, TimedEvent};
use memsim_types::{
    Access, AccessBatch, AccessKind, AccessPlan, Addr, CtrlStats, Geometry,
    HybridMemoryController, Mem, MetadataModel, OverfetchTracker, PageIndex, PageSlot, PlanBuffer,
};

/// Accesses between two global pressure-flush rounds (rule 5 batching).
pub(crate) const PRESSURE_COOLDOWN: u64 = 8192;

/// Bandwidth credit in bytes granted to a set's share of the asynchronous
/// data-movement module per demand access to that set (a finite mover,
/// not an infinite DMA engine).
pub(crate) const MOVEMENT_CREDIT_PER_ACCESS: i64 = 512;

/// Per-set credit accumulation cap (idle phases cannot bank unlimited
/// bandwidth).
pub(crate) const MOVEMENT_CREDIT_CAP: i64 = 8 << 20;

/// The Bumblebee hybrid memory management controller (paper §III).
///
/// A controller owns a contiguous range of remapping sets; the usual one
/// ([`new`](Self::new)) owns them all. Every per-access decision is a
/// function of the accessed set's own metadata, its own movement credit,
/// and two pure functions of the address stream — the metadata spill
/// schedule and the rule-5 pressure-flush schedule — so N controllers
/// over disjoint ranges ([`with_range`](Self::with_range)), each walking
/// the whole stream with [`plan_range`](Self::plan_range), plan exactly
/// what one whole-range controller plans ([`crate::range::splice`]).
///
/// See the [crate documentation](crate) for an example and the
/// [`RemapSet`] documentation for the per-set mechanics.
#[derive(Debug)]
pub struct BumblebeeController {
    geometry: Geometry,
    cfg: BumblebeeConfig,
    /// First owned set.
    set_lo: u64,
    /// One past the last owned set.
    set_hi: u64,
    /// One fixed-size header per owned remapping set (index `set -
    /// set_lo`), stored contiguously; each header owns its metadata
    /// (packed PRT words, BLE array, hot-table arena) in fixed boxed
    /// slices sized at construction. Sequential set walks (epoch gauges,
    /// finish) therefore stride through memory without chasing
    /// resizable-Vec indirections, and the per-access lookup touches
    /// exactly one header.
    sets: Box<[RemapSet]>,
    /// Movement credit of each owned set, same indexing as `sets`.
    credit: Box<[i64]>,
    metadata: MetadataModel,
    metadata_breakdown: MetadataBreakdown,
    stats: CtrlStats,
    overfetch: Option<OverfetchTracker>,
    mode_switch_bytes: u64,
    metadata_spill_bytes: u64,
    flush_cursor: u64,
    next_flush_ok: u64,
    /// Accesses of the whole stream walked so far, owned or not.
    accesses: u64,
    telemetry: Telemetry,
    /// Invariant-sweep schedule; see [`crate::checked`].
    #[cfg(feature = "checked")]
    checked: crate::checked::CheckedSweep,
}

impl BumblebeeController {
    /// Creates a controller for every set of `geometry` with
    /// configuration `cfg`.
    pub fn new(geometry: Geometry, cfg: BumblebeeConfig) -> BumblebeeController {
        BumblebeeController::with_range(geometry, cfg, 0, geometry.num_sets())
    }

    /// Creates a controller owning sets `[set_lo, set_hi)` of `geometry`.
    ///
    /// # Panics
    ///
    /// If the range is empty or extends past `geometry.num_sets()`.
    pub fn with_range(
        geometry: Geometry,
        cfg: BumblebeeConfig,
        set_lo: u64,
        set_hi: u64,
    ) -> BumblebeeController {
        assert!(
            set_lo < set_hi && set_hi <= geometry.num_sets(),
            "set range [{set_lo}, {set_hi}) invalid for {} sets",
            geometry.num_sets()
        );
        let breakdown = MetadataBreakdown::compute(&geometry, &cfg);
        let metadata = if cfg.metadata_in_hbm {
            MetadataModel::all_in_memory(breakdown.total(), Mem::Hbm, 64)
        } else {
            MetadataModel::new(breakdown.total(), cfg.sram_budget, Mem::Hbm, 64)
        };
        let sets: Box<[RemapSet]> = (set_lo..set_hi)
            .map(|s| {
                RemapSet::new(geometry.dram_slots_in_set(s) as u16, geometry.hbm_ways() as u16, &cfg)
            })
            .collect();
        BumblebeeController {
            geometry,
            credit: vec![MOVEMENT_CREDIT_CAP; sets.len()].into_boxed_slice(),
            sets,
            set_lo,
            set_hi,
            metadata,
            metadata_breakdown: breakdown,
            stats: CtrlStats::new(),
            overfetch: cfg.track_overfetch.then(OverfetchTracker::new),
            mode_switch_bytes: 0,
            metadata_spill_bytes: 0,
            flush_cursor: 0,
            next_flush_ok: 0,
            accesses: 0,
            telemetry: Telemetry::default(),
            #[cfg(feature = "checked")]
            checked: crate::checked::CheckedSweep::from_env(),
            cfg,
        }
    }

    /// Whether this controller owns `set`.
    fn owns(&self, set: u64) -> bool {
        (self.set_lo..self.set_hi).contains(&set)
    }

    /// The controller's telemetry handle (install/remove a recorder).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Instantaneous gauges for an epoch sample.
    // audit: allow(hot-transitive) -- runs once per epoch boundary, not per access
    fn gauges(&self) -> EpochGauges {
        self.epoch_partial().gauges(&self.geometry)
    }

    /// The owned sets' integer accumulators for an epoch boundary; sum
    /// the partials of every range with [`EpochPartial::absorb`] and
    /// convert with [`EpochPartial::gauges`].
    pub fn epoch_partial(&self) -> EpochPartial {
        let mut p = EpochPartial { ctrl: self.stats.clone(), ..EpochPartial::default() };
        for s in self.sets.iter() {
            p.chbm += u64::from(s.chbm_frames());
            p.mhbm += u64::from(s.mhbm_frames());
            p.threshold_sum += u64::from(s.hot().threshold());
            p.occupancy[EpochGauges::occ_bucket(s.rh())] += 1;
        }
        if let Some(t) = &self.overfetch {
            p.fetched = t.fetched_bytes();
            p.wasted = t.wasted_bytes();
        }
        p
    }

    /// The geometry this controller manages.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The active configuration.
    pub fn config(&self) -> &BumblebeeConfig {
        &self.cfg
    }

    /// Metadata breakdown (PRT / BLE array / hotness tracker bytes) of the
    /// whole controller, whatever range this one owns.
    pub fn metadata_breakdown(&self) -> MetadataBreakdown {
        self.metadata_breakdown
    }

    /// Bytes moved by cHBM↔mHBM mode switches so far (§IV-D accounting).
    pub fn mode_switch_bytes(&self) -> u64 {
        self.mode_switch_bytes
    }

    /// Total page faults absorbed (footprint exceeded a set's capacity).
    pub fn page_faults(&self) -> u64 {
        self.sets.iter().map(RemapSet::page_faults).sum()
    }

    /// HBM frames currently operating as mHBM in the owned sets.
    fn mhbm_frames(&self) -> u64 {
        self.sets.iter().map(|s| u64::from(s.mhbm_frames())).sum()
    }

    /// Fraction of all HBM frames operating as cHBM in the owned sets.
    pub fn chbm_fraction(&self) -> f64 {
        let chbm: u32 = self.sets.iter().map(RemapSet::chbm_frames).sum();
        let total = self.geometry.hbm_pages();
        if total == 0 {
            0.0
        } else {
            f64::from(chbm) / total as f64
        }
    }

    /// Fraction of all HBM frames operating as mHBM in the owned sets.
    pub fn mhbm_fraction(&self) -> f64 {
        let total = self.geometry.hbm_pages();
        if total == 0 {
            0.0
        } else {
            self.mhbm_frames() as f64 / total as f64
        }
    }

    /// Access to the owned remapping set `idx` (testing/inspection).
    ///
    /// # Panics
    ///
    /// If this controller does not own set `idx`.
    pub fn set(&self, idx: u64) -> &RemapSet {
        assert!(self.owns(idx), "set {idx} outside [{}, {})", self.set_lo, self.set_hi);
        &self.sets[(idx - self.set_lo) as usize]
    }

    /// Resolves a wrapped address's page into `(set, original slot)`.
    fn slot(&self, page: PageIndex) -> (u64, u16) {
        let set = self.geometry.set_of_page(page);
        let o = match self.geometry.slot_of_page(page) {
            PageSlot::OffChip(x) => x as u16,
            PageSlot::Hbm(x) => self.geometry.dram_slots_in_set(set) as u16 + x as u16,
        };
        (set, o)
    }

    /// Counts one access of the stream and reports whether it fires a
    /// rule-5 pressure-flush round. The trigger (an address beyond
    /// off-chip capacity: the global footprint is high) and the cooldown
    /// depend only on the stream, so every range controller walking the
    /// same stream agrees on each round.
    fn count_access(&mut self, wrapped: u64) -> bool {
        self.accesses += 1;
        if !self.cfg.hmf_enabled
            || wrapped < self.geometry.dram_bytes()
            || self.accesses < self.next_flush_ok
        {
            return false;
        }
        self.next_flush_ok = self.accesses + PRESSURE_COOLDOWN;
        true
    }

    /// The metadata lookup and movement-credit grant of owned access `gi`
    /// to owned set index `i`, at the head of `plan`.
    fn begin_access(&mut self, gi: u64, addr: Addr, i: usize, plan: &mut AccessPlan) {
        self.credit[i] = (self.credit[i] + MOVEMENT_CREDIT_PER_ACCESS).min(MOVEMENT_CREDIT_CAP);
        let spills_before = plan.background.len();
        plan.metadata_cycles += self.metadata.lookup_at(gi, plan, addr);
        self.metadata_spill_bytes +=
            plan.background[spills_before..].iter().map(|op| u64::from(op.bytes)).sum::<u64>();
    }

    /// One pressure-flush round: flushes the owned sets of the window of
    /// `flush_batch_sets` sets at the round-robin cursor (wrapping at
    /// `num_sets`), in window order, into `plan`. With `segs`, each
    /// flushed set's ops are also recorded as a segment fired by chunk
    /// access `at`, so [`crate::range::splice`] can order them.
    fn flush_round(&mut self, plan: &mut AccessPlan, mut segs: Option<(&mut Vec<FlushSeg>, u32)>) {
        // Only the (rare) actual flush rounds are spanned.
        let _swap = span::span(Phase::MigrationSwap);
        let n = self.geometry.num_sets();
        let batch = u64::from(self.cfg.flush_batch_sets).min(n);
        for pos in 0..batch {
            let s = (self.flush_cursor + pos) % n;
            if !self.owns(s) {
                continue;
            }
            if let Some(t) = self.telemetry.active() {
                t.set_rank(pos as u32);
            }
            let start = (plan.critical.len() as u32, plan.background.len() as u32);
            let i = (s - self.set_lo) as usize;
            let mut ctx = SetCtx {
                geometry: &self.geometry,
                cfg: &self.cfg,
                set_id: s,
                plan: &mut *plan,
                stats: &mut self.stats,
                overfetch: self.overfetch.as_mut(),
                mode_switch_bytes: &mut self.mode_switch_bytes,
                movement_credit: &mut self.credit[i],
                telemetry: self.telemetry.active(),
            };
            self.sets[i].pressure_flush(&mut ctx);
            if let Some((segs, at)) = segs.as_mut() {
                segs.push(FlushSeg {
                    at: *at,
                    pos: pos as u32,
                    critical: (start.0, plan.critical.len() as u32),
                    background: (start.1, plan.background.len() as u32),
                });
            }
        }
        if let Some(t) = self.telemetry.active() {
            t.set_rank(TimedEvent::ACCESS_RANK);
        }
        self.flush_cursor = (self.flush_cursor + batch) % n;
    }

    /// The demand access itself on owned set `set_id`.
    fn access_set(
        &mut self,
        set_id: u64,
        o: u16,
        wrapped: Addr,
        kind: AccessKind,
        plan: &mut AccessPlan,
    ) {
        let i = (set_id - self.set_lo) as usize;
        let block = self.geometry.block_of(wrapped).0;
        let line = self.geometry.line_of(wrapped) as u32;
        let mut ctx = SetCtx {
            geometry: &self.geometry,
            cfg: &self.cfg,
            set_id,
            plan,
            stats: &mut self.stats,
            overfetch: self.overfetch.as_mut(),
            mode_switch_bytes: &mut self.mode_switch_bytes,
            movement_credit: &mut self.credit[i],
            telemetry: self.telemetry.active(),
        };
        let _served: ServedFrom = self.sets[i].access(o, block, line, kind, &mut ctx);
        #[cfg(feature = "checked")]
        self.checked_tick();
    }

    /// Plans one access in place: lookup, flush round, demand access and
    /// the epoch tick, all into `plan`.
    fn access_inline(&mut self, addr: Addr, wrapped: Addr, set_id: u64, o: u16, kind: AccessKind, plan: &mut AccessPlan) {
        // audit: allow(hot-panic) -- a foreign-set access is a caller bug; fail fast at the boundary
        assert!(self.owns(set_id), "access to set {set_id} outside [{}, {})", self.set_lo, self.set_hi);
        let gi = self.accesses;
        let flush = self.count_access(wrapped.0);
        self.begin_access(gi, addr, (set_id - self.set_lo) as usize, plan);
        if flush {
            self.flush_round(plan, None);
        }
        self.access_set(set_id, o, wrapped, kind, plan);
        if self.telemetry.tick() {
            let _sample = span::span(Phase::EpochSample);
            let gauges = self.gauges();
            self.telemetry.sample(&self.stats, gauges);
        }
    }

    /// Plans this range's share of `batch`, the next chunk of the stream:
    /// the accesses to owned sets and the owned sets' pressure-flush work.
    ///
    /// Every range controller of a run must plan every chunk, in stream
    /// order, so that all of them walk the whole stream and agree on the
    /// flush schedule; [`crate::range::splice`] then reassembles the
    /// chunk. Events carry the global access index; epochs are never
    /// sampled here — the caller sums [`epoch_partial`](Self::epoch_partial)s.
    pub fn plan_range(&mut self, batch: &AccessBatch, out: &mut RangePlans) {
        out.begin_chunk();
        let RangePlans { plans, owned, splits, flush, segs, .. } = out;
        let n = batch.len();
        let mut i = 0;
        while i < n {
            // Same-page runs share the set, hence the owner.
            let head = self.geometry.wrap_flat(Addr(batch.addrs[i]));
            let page = self.geometry.page_of(head);
            let (set_id, o) = self.slot(page);
            let mine = self.owns(set_id);
            let mut j = i;
            while j < n {
                let wrapped = if j == i {
                    head
                } else {
                    let w = self.geometry.wrap_flat(Addr(batch.addrs[j]));
                    if self.geometry.page_of(w) != page {
                        break;
                    }
                    w
                };
                let gi = self.accesses;
                let fires = self.count_access(wrapped.0);
                if !mine && !fires {
                    j += 1;
                    continue;
                }
                if let Some(t) = self.telemetry.active() {
                    t.sync_accesses(gi);
                }
                if !mine {
                    self.flush_round(flush, Some((segs, j as u32)));
                    j += 1;
                    continue;
                }
                let plan = plans.plan_mut();
                let head_ops = (plan.critical.len(), plan.background.len());
                self.begin_access(gi, Addr(batch.addrs[j]), (set_id - self.set_lo) as usize, plan);
                if fires {
                    splits.push(MetaSplit {
                        entry: owned.len() as u32,
                        critical: (plan.critical.len() - head_ops.0) as u32,
                        background: (plan.background.len() - head_ops.1) as u32,
                    });
                    self.flush_round(flush, Some((segs, j as u32)));
                }
                self.access_set(set_id, o, wrapped, batch.kinds[j], plan);
                plans.seal();
                owned.push(j as u32);
                j += 1;
            }
            i = j;
        }
    }
}

/// Checked-build invariant sweeps (`--features checked`); see
/// [`crate::checked`].
#[cfg(feature = "checked")]
impl BumblebeeController {
    /// Validates every owned remapping set's cross-structure invariants
    /// ([`RemapSet::validate`]), reporting the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (i, set) in self.sets.iter().enumerate() {
            set.validate().map_err(|e| format!("set {}: {e}", self.set_lo + i as u64))?;
        }
        Ok(())
    }

    /// Counts one access against the sweep schedule and, when a sweep is
    /// due, validates the whole controller — panicking with a precise
    /// diagnosis on the first violation. Read-only: results are
    /// byte-identical with and without the feature.
    // audit: allow(hot-transitive) -- compiled out unless --features checked; the invariant sweep is read-only and off the per-access path
    fn checked_tick(&mut self) {
        if !self.checked.due() {
            return;
        }
        if let Err(e) = self.validate() {
            panic!("checked build: invariant violation after {} accesses: {e}", self.accesses);
        }
    }
}

impl HybridMemoryController for BumblebeeController {
    /// Plans one access. A controller owning only some sets accepts only
    /// accesses to them (and flushes only its own window sets).
    fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
        let wrapped = self.geometry.wrap_flat(req.addr);
        let (set_id, o) = self.slot(self.geometry.page_of(wrapped));
        self.access_inline(req.addr, wrapped, set_id, o, req.kind, plan);
    }

    /// The grouped batch fast path. Accesses are processed strictly in
    /// stream order (reordering would perturb the metadata spill schedule,
    /// the global pressure-flush cooldown and mid-stream epoch samples —
    /// see DESIGN.md §11); the grouping win comes from detecting
    /// *consecutive same-page runs*, which the run-based workload
    /// generator makes long, and hoisting the page→set resolution out of
    /// the per-access loop while the set's PRT/BLE/hot-table metadata
    /// stays cache-resident.
    fn access_batch(&mut self, batch: &AccessBatch, plans: &mut PlanBuffer) {
        plans.begin_chunk();
        let n = batch.len();
        let mut i = 0;
        while i < n {
            let head = self.geometry.wrap_flat(Addr(batch.addrs[i]));
            let page = self.geometry.page_of(head);
            let (set_id, o) = self.slot(page);
            let mut j = i;
            while j < n {
                let wrapped = if j == i {
                    head
                } else {
                    let w = self.geometry.wrap_flat(Addr(batch.addrs[j]));
                    if self.geometry.page_of(w) != page {
                        break;
                    }
                    w
                };
                let plan = plans.plan_mut();
                self.access_inline(Addr(batch.addrs[j]), wrapped, set_id, o, batch.kinds[j], plan);
                plans.seal();
                j += 1;
            }
            i = j;
        }
    }

    fn name(&self) -> &'static str {
        if self.cfg == BumblebeeConfig::default() {
            "bumblebee"
        } else {
            "bumblebee-variant"
        }
    }

    fn metadata_bytes(&self) -> u64 {
        self.metadata_breakdown.total()
    }

    fn os_visible_bytes(&self) -> u64 {
        self.geometry.dram_bytes() + self.mhbm_frames() * self.geometry.page_bytes()
    }

    fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    fn overfetch_ratio(&self) -> Option<f64> {
        self.overfetch.as_ref().map(OverfetchTracker::overfetch_ratio)
    }

    /// End-of-run drain of the owned sets, in set order; events carry the
    /// stream length as their access index.
    fn finish(&mut self, plan: &mut AccessPlan) {
        let _swap = span::span(Phase::MigrationSwap);
        if let Some(t) = self.telemetry.active() {
            t.sync_accesses(self.accesses);
        }
        for i in 0..self.sets.len() {
            let mut ctx = SetCtx {
                geometry: &self.geometry,
                cfg: &self.cfg,
                set_id: self.set_lo + i as u64,
                plan: &mut *plan,
                stats: &mut self.stats,
                overfetch: self.overfetch.as_mut(),
                mode_switch_bytes: &mut self.mode_switch_bytes,
                movement_credit: &mut self.credit[i],
                telemetry: self.telemetry.active(),
            };
            self.sets[i].finish(&mut ctx);
        }
        if let Some(t) = self.overfetch.as_mut() {
            t.evict_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_types::AccessKind;
    use crate::range::RangePlans;

    fn tiny_geometry() -> Geometry {
        Geometry::builder()
            .block_bytes(2 << 10)
            .page_bytes(64 << 10)
            .hbm_bytes(2 << 20) // 32 frames → 4 sets
            .dram_bytes(20 << 20)
            .hbm_ways(8)
            .build()
            .unwrap()
    }

    #[test]
    fn accesses_route_to_correct_sets() {
        let g = tiny_geometry();
        let mut c = BumblebeeController::new(g, BumblebeeConfig::default());
        let mut plan = AccessPlan::new();
        // Touch one page per set.
        for s in 0..4u64 {
            plan.clear();
            c.access(&Access::read(Addr(s * g.page_bytes())), &mut plan);
        }
        assert_eq!(c.stats().allocations, 4);
        for s in 0..4 {
            assert!(c.set(s).prt().is_allocated(0), "set {s}");
        }
    }

    #[test]
    fn repeated_access_becomes_hbm_hit() {
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::default());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        plan.clear();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert_eq!(c.stats().hbm_hits, 1);
        assert!(plan.critical.iter().any(|op| op.mem == Mem::Hbm));
    }

    #[test]
    fn metadata_fits_in_sram_for_paper_scale() {
        let c = BumblebeeController::new(Geometry::paper(1), BumblebeeConfig::default());
        assert!(c.metadata_bytes() < 512 << 10);
        let b = c.metadata_breakdown();
        assert!(b.prt_bytes > 0 && b.ble_bytes > 0 && b.tracker_bytes > 0);
    }

    #[test]
    fn meta_h_spills_every_lookup() {
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::meta_h());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert!(
            plan.background
                .iter()
                .any(|op| op.cause == memsim_types::TrafficCause::Metadata && op.mem == Mem::Hbm),
            "Meta-H must read metadata from HBM"
        );
        assert!(
            plan.metadata_cycles >= memsim_types::MetadataModel::IN_MEMORY_LOOKUP_CYCLES,
            "and pay the in-memory lookup latency"
        );
    }

    #[test]
    fn os_visible_grows_with_mhbm() {
        let g = tiny_geometry();
        let mut c = BumblebeeController::new(g, BumblebeeConfig::m_only());
        let base = c.os_visible_bytes();
        assert_eq!(base, g.dram_bytes());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert_eq!(c.os_visible_bytes(), g.dram_bytes() + g.page_bytes());
        assert!(c.mhbm_fraction() > 0.0);
        assert_eq!(c.chbm_fraction(), 0.0);
    }

    #[test]
    fn pressure_flush_triggers_on_hbm_region_addresses() {
        let g = tiny_geometry();
        let mut c = BumblebeeController::new(g, BumblebeeConfig::default());
        let mut plan = AccessPlan::new();
        // Build some cHBM state first.
        for i in 0..16u64 {
            plan.clear();
            c.access(&Access::read(Addr(i * g.page_bytes())), &mut plan);
        }
        // Now touch the HBM address region (OS footprint beyond off-chip).
        plan.clear();
        c.access(&Access::read(Addr(g.dram_bytes())), &mut plan);
        assert!(c.stats().pressure_flushes > 0);
    }

    #[test]
    fn finish_drains_overfetch() {
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::m_only());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        plan.clear();
        c.finish(&mut plan);
        let r = c.overfetch_ratio().unwrap();
        assert!(r > 0.9, "one block of 32 used → ratio {r}");
    }

    #[test]
    fn write_request_is_posted() {
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::default());
        let mut plan = AccessPlan::new();
        c.access(&Access { addr: Addr(0), kind: AccessKind::Write, insts: 0 }, &mut plan);
        assert!(plan.critical.is_empty());
        assert!(!plan.background.is_empty());
    }

    #[test]
    fn recorder_collects_epochs_and_events() {
        use memsim_obs::{MetricsConfig, RunRecorder};
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::default());
        c.telemetry_mut().install(Box::new(RunRecorder::new(&MetricsConfig {
            epoch_interval: 4,
            event_capacity: 64,
            ..MetricsConfig::default()
        })));
        let mut plan = AccessPlan::new();
        for i in 0..10u64 {
            plan.clear();
            c.access(&Access::read(Addr(i * 64)), &mut plan);
        }
        let run = c.telemetry_mut().take().unwrap().into_run().unwrap();
        assert_eq!(run.epochs().len(), 2, "boundaries at accesses 4 and 8");
        assert_eq!(run.epochs()[0].accesses, 4);
        assert!(run.epochs()[1].cum_hit_rate > 0.0, "repeat touches hit HBM");
        assert!(!run.ring().is_empty(), "allocation/fill events were traced");
    }

    #[test]
    fn noop_recorder_leaves_stats_unchanged() {
        use memsim_obs::NoopRecorder;
        let run = |install: bool| {
            let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::default());
            if install {
                c.telemetry_mut().install(Box::new(NoopRecorder));
            }
            let mut plan = AccessPlan::new();
            for i in 0..64u64 {
                plan.clear();
                c.access(&Access::read(Addr(i * 4096)), &mut plan);
            }
            c.stats().clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn access_batch_matches_serial_access_exactly() {
        use memsim_types::{AccessBatch, PlanBuffer};
        // A stream with long same-page runs, page switches, writes, and
        // addresses in the HBM region (to trip rule-5 pressure flushes) —
        // the batched grouping must replay the serial path byte for byte.
        let g = tiny_geometry();
        let mut addrs = Vec::new();
        for r in 0..40u64 {
            let base = (r % 7) * g.page_bytes() + (r / 7) * 64;
            for l in 0..((r % 9) + 1) {
                addrs.push(base + l * 64);
            }
            if r % 5 == 0 {
                addrs.push(g.dram_bytes() + r * 64);
            }
        }
        for cfg in [BumblebeeConfig::default(), BumblebeeConfig::m_only()] {
            let mut serial = BumblebeeController::new(g, cfg.clone());
            let mut batched = BumblebeeController::new(g, cfg);
            let mut plan = AccessPlan::new();
            let mut batch = AccessBatch::new();
            let mut plans = PlanBuffer::new();
            // Drive in chunks of 16 so chunk cuts land mid-run too.
            for chunk in addrs.chunks(16) {
                batch.clear();
                for (k, &a) in chunk.iter().enumerate() {
                    let kind = if k % 3 == 2 { AccessKind::Write } else { AccessKind::Read };
                    batch.push(a, kind, k as u32);
                }
                batched.access_batch(&batch, &mut plans);
                assert_eq!(plans.len(), batch.len());
                for (k, &addr) in chunk.iter().enumerate() {
                    plan.clear();
                    serial.access(&batch.get(k), &mut plan);
                    let v = plans.entry(k);
                    assert_eq!(v.critical, plan.critical.as_slice(), "addr {addr}");
                    assert_eq!(v.background, plan.background.as_slice(), "addr {addr}");
                    assert_eq!(v.metadata_cycles, plan.metadata_cycles);
                    assert_eq!(v.stall_cycles, plan.stall_cycles);
                    assert_eq!(v.path, plan.path);
                }
            }
            assert_eq!(batched.stats(), serial.stats());
            assert_eq!(batched.os_visible_bytes(), serial.os_visible_bytes());
            assert_eq!(batched.overfetch_ratio(), serial.overfetch_ratio());
            assert_eq!(batched.metadata_spill_bytes, serial.metadata_spill_bytes);
        }
    }

    #[test]
    fn name_distinguishes_variants() {
        let g = tiny_geometry();
        assert_eq!(BumblebeeController::new(g, BumblebeeConfig::default()).name(), "bumblebee");
        assert_eq!(
            BumblebeeController::new(g, BumblebeeConfig::c_only()).name(),
            "bumblebee-variant"
        );
    }

    /// One access's plan, owned, for comparisons.
    type Planned = (
        Vec<memsim_types::DeviceOp>,
        Vec<memsim_types::DeviceOp>,
        u32,
        u64,
        memsim_types::AccessPath,
    );

    fn owned_view(v: memsim_types::PlanView<'_>) -> Planned {
        (v.critical.to_vec(), v.background.to_vec(), v.metadata_cycles, v.stall_cycles, v.path)
    }

    /// Everything a run through one or more set ranges leaves behind.
    struct RangeRun {
        plans: Vec<Planned>,
        partial: EpochPartial,
        events: Vec<memsim_obs::TimedEvent>,
        page_faults: u64,
        spill_bytes: u64,
        drain: AccessPlan,
    }

    fn recorder() -> Box<memsim_obs::RunRecorder> {
        Box::new(memsim_obs::RunRecorder::new(&memsim_obs::MetricsConfig {
            epoch_interval: 0,
            event_capacity: 1 << 16,
            ..memsim_obs::MetricsConfig::default()
        }))
    }

    /// Plans `stream` in chunks of `chunk` through controllers owning
    /// `ranges` (one whole range: the trait's batch path; several: their
    /// `plan_range` shares spliced together).
    fn run_ranges(
        g: Geometry,
        cfg: &BumblebeeConfig,
        ranges: &[(u64, u64)],
        stream: &[u64],
        chunk: usize,
    ) -> RangeRun {
        let mut ctrls: Vec<BumblebeeController> = ranges
            .iter()
            .map(|&(lo, hi)| BumblebeeController::with_range(g, cfg.clone(), lo, hi))
            .collect();
        for c in &mut ctrls {
            c.telemetry_mut().install(recorder());
        }
        let mut parts = vec![RangePlans::new(); ctrls.len()];
        let mut out = PlanBuffer::new();
        let mut plans = Vec::new();
        let mut batch = AccessBatch::new();
        for (k, addrs) in stream.chunks(chunk).enumerate() {
            batch.clear();
            for (m, &a) in addrs.iter().enumerate() {
                let kind = if (k + m) % 3 == 2 { AccessKind::Write } else { AccessKind::Read };
                batch.push(a, kind, 7);
            }
            if ctrls.len() == 1 {
                ctrls[0].access_batch(&batch, &mut out);
            } else {
                for (c, part) in ctrls.iter_mut().zip(parts.iter_mut()) {
                    c.plan_range(&batch, part);
                }
                crate::range::splice(&mut parts, batch.len(), &mut out);
            }
            plans.extend((0..out.len()).map(|i| owned_view(out.entry(i))));
        }
        let mut drain = AccessPlan::new();
        let mut partial = EpochPartial::default();
        let mut events = Vec::new();
        for c in &mut ctrls {
            c.finish(&mut drain);
            partial.absorb(&c.epoch_partial());
            let (_, ev, _) = c.telemetry_mut().take().unwrap().into_run().unwrap().into_parts();
            events.push((ev, 0));
        }
        RangeRun {
            plans,
            partial,
            events: memsim_obs::merge_shard_events(events, 1 << 16).0,
            page_faults: ctrls.iter().map(BumblebeeController::page_faults).sum(),
            spill_bytes: ctrls.iter().map(|c| c.metadata_spill_bytes).sum(),
            drain,
        }
    }

    fn assert_same_run(a: &RangeRun, b: &RangeRun, what: &str) {
        assert_eq!(a.plans.len(), b.plans.len(), "{what}");
        for (i, (x, y)) in a.plans.iter().zip(&b.plans).enumerate() {
            assert_eq!(x, y, "{what}: access {i}");
        }
        assert_eq!(a.partial, b.partial, "{what}");
        assert_eq!(a.events, b.events, "{what}");
        assert_eq!(a.page_faults, b.page_faults, "{what}");
        assert_eq!(a.spill_bytes, b.spill_bytes, "{what}");
        assert_eq!(a.drain.background, b.drain.background, "{what}");
    }

    /// A stream that builds cHBM state in every set and touches the HBM
    /// address region past each flush cooldown, so rule-5 rounds fire
    /// repeatedly and the round-robin cursor sweeps every window.
    fn flushing_stream(g: &Geometry) -> Vec<u64> {
        let mut addrs = Vec::new();
        for i in 0..40_000u64 {
            // Hot pages revisited block by block, over a footprint several
            // times the HBM capacity, so cHBM frames fill up.
            let page = (i / 8 * 7) % 200;
            addrs.push(page * g.page_bytes() + ((i / 64) % 32) * 2048 + (i % 8) * 64);
            if i % 2_000 == 0 {
                addrs.push(g.dram_bytes() + (i % 4) * g.page_bytes());
            }
        }
        addrs
    }

    /// Accesses whose plan carries pressure-flush writebacks.
    fn flushing_accesses(run: &RangeRun) -> usize {
        run.plans
            .iter()
            .filter(|p| p.1.iter().any(|op| op.cause == memsim_types::TrafficCause::PressureFlush))
            .count()
    }

    #[test]
    fn set_ranges_plan_exactly_what_the_whole_controller_plans() {
        let g = tiny_geometry();
        let stream = flushing_stream(&g);
        // Default: rounds write back cHBM state. Meta-H: every lookup also
        // spills, so the splice must keep metadata ops ahead of the flush.
        // M-Only: no cHBM at all, but per-set movement credit gates every
        // migration.
        let default = BumblebeeConfig { chbm_disable_window: 16, ..BumblebeeConfig::default() };
        let meta_h = BumblebeeConfig { chbm_disable_window: 16, ..BumblebeeConfig::meta_h() };
        for (cfg, writes_back) in
            [(default, true), (meta_h, true), (BumblebeeConfig::m_only(), false)]
        {
            let whole = run_ranges(g, &cfg, &[(0, 4)], &stream, 4096);
            assert!(whole.partial.ctrl.pressure_flushes > 4, "rounds must fire");
            assert_eq!(flushing_accesses(&whole) > 0, writes_back);
            assert!(whole.partial.ctrl.total_accesses() > 0);
            let splits: [&[(u64, u64)]; 3] =
                [&[(0, 2), (2, 4)], &[(0, 1), (1, 2), (2, 3), (3, 4)], &[(0, 3), (3, 4)]];
            for ranges in splits {
                for chunk in [1usize, 61, 4096] {
                    let split = run_ranges(g, &cfg, ranges, &stream, chunk);
                    assert_same_run(&whole, &split, &format!("{ranges:?} chunk {chunk}"));
                }
            }
        }
    }

    #[test]
    fn flush_window_wrapping_past_num_sets_splices_in_window_order() {
        // Three-set windows over four sets: from cursor 3 the window is
        // [3, 0, 1] — it wraps past num_sets and spans both halves, so
        // the range [2, 4) contributes the first flushed set and the
        // range [0, 2) the other two, after the accessed set's metadata
        // and before its demand ops.
        // A short cHBM disable window lets every set rebuild cHBM state
        // between rounds, so the rounds carry writebacks from both ranges.
        let g = tiny_geometry();
        let cfg = BumblebeeConfig {
            flush_batch_sets: 3,
            chbm_disable_window: 16,
            ..BumblebeeConfig::default()
        };
        let stream = flushing_stream(&g);
        let whole = run_ranges(g, &cfg, &[(0, 4)], &stream, 4096);
        assert!(flushing_accesses(&whole) >= 3, "rounds must write back cHBM state");
        let halves = run_ranges(g, &cfg, &[(0, 2), (2, 4)], &stream, 4096);
        assert_same_run(&whole, &halves, "halves");
        // The second round starts at cursor 3: its flush events come in
        // window order 3, 0, 1.
        let flushed: Vec<u64> = whole
            .events
            .iter()
            .filter_map(|e| match e.event {
                memsim_obs::TraceEvent::PressureFlush { set } => Some(set),
                _ => None,
            })
            .collect();
        assert!(flushed.len() >= 6, "two rounds at least: {flushed:?}");
        assert_eq!(flushed[..6], [0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn plan_range_reports_only_owned_accesses() {
        let g = tiny_geometry();
        let mut lo = BumblebeeController::with_range(g, BumblebeeConfig::default(), 0, 2);
        let mut batch = AccessBatch::new();
        for s in 0..4u64 {
            batch.push(s * g.page_bytes(), AccessKind::Read, 1);
        }
        let mut part = RangePlans::new();
        lo.plan_range(&batch, &mut part);
        assert_eq!(part.owned, [0, 1], "sets 0 and 1 of four");
        assert!(lo.owns(1) && !lo.owns(2));
    }

    #[test]
    fn foreign_set_access_is_rejected() {
        let g = tiny_geometry();
        let mut c = BumblebeeController::with_range(g, BumblebeeConfig::default(), 0, 1);
        let addr = Addr(g.page_bytes()); // set 1
        let mut plan = AccessPlan::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.access(&Access::read(addr), &mut plan);
        }));
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "invalid for 4 sets")]
    fn empty_or_oversized_range_is_rejected() {
        BumblebeeController::with_range(tiny_geometry(), BumblebeeConfig::default(), 2, 5);
    }

    #[test]
    fn ranged_pressure_flush_fires() {
        let g = tiny_geometry();
        let mut c = BumblebeeController::with_range(g, BumblebeeConfig::default(), 0, 2);
        let mut batch = AccessBatch::new();
        for i in 0..16u64 {
            batch.push(i * g.page_bytes(), AccessKind::Read, 1);
        }
        batch.push(g.dram_bytes(), AccessKind::Read, 1);
        let mut part = RangePlans::new();
        c.plan_range(&batch, &mut part);
        assert_eq!(c.stats().pressure_flushes, 2, "window sets 0 and 1 of the first round");
    }
}
