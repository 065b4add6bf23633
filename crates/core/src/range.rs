//! What a set-range controller hands back: its share of a planned chunk
//! and its integer epoch accumulators.
//!
//! A [`BumblebeeController`](crate::BumblebeeController) that owns only a
//! contiguous range of remapping sets plans a chunk with
//! [`plan_range`](crate::BumblebeeController::plan_range): the accesses
//! to its own sets, plus the pressure-flush work of whichever of its sets
//! fall into a flush window. [`splice`] reassembles the range plans of
//! one chunk into exactly the plans one whole-range controller emits:
//! per access, the metadata lookup ops, then the flush ops in window
//! order, then the accessed set's ops.

use memsim_obs::{EpochGauges, OCC_BUCKETS};
use memsim_types::{AccessPlan, CtrlStats, DeviceOp, Geometry, PlanBuffer};

/// Integer accumulators of one set range at an epoch boundary.
///
/// Everything an [`EpochGauges`] needs is carried as exact integers, so
/// summing the partials of every range is associative and the gauges are
/// independent of how the sets are split.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochPartial {
    /// Cumulative controller counters of the range at the boundary.
    pub ctrl: CtrlStats,
    /// HBM frames currently in cHBM mode across the range's sets.
    pub chbm: u64,
    /// HBM frames currently in mHBM mode across the range's sets.
    pub mhbm: u64,
    /// Sum of per-set hot-table thresholds.
    pub threshold_sum: u64,
    /// Per-set occupancy histogram (bucket of each set's Rh).
    pub occupancy: [u32; OCC_BUCKETS],
    /// Cumulative bytes fetched into HBM (overfetch tracking, else 0).
    pub fetched: u64,
    /// Cumulative bytes evicted unused (overfetch tracking, else 0).
    pub wasted: u64,
}

impl EpochPartial {
    /// Adds `other` into `self` field-wise (commutative and associative).
    // audit: merge
    pub fn absorb(&mut self, other: &EpochPartial) {
        self.ctrl.merge(&other.ctrl);
        self.chbm += other.chbm;
        self.mhbm += other.mhbm;
        self.threshold_sum += other.threshold_sum;
        for (a, b) in self.occupancy.iter_mut().zip(other.occupancy.iter()) {
            *a += b;
        }
        self.fetched += other.fetched;
        self.wasted += other.wasted;
    }

    /// Instantaneous gauges of the partial summed over *all* sets:
    /// fractions are taken against the whole geometry.
    pub fn gauges(&self, geometry: &Geometry) -> EpochGauges {
        let hbm_pages = geometry.hbm_pages();
        let frac = |frames: u64| {
            if hbm_pages == 0 {
                0.0
            } else {
                frames as f64 / hbm_pages as f64
            }
        };
        let ways_total = u64::from(geometry.hbm_ways()) * geometry.num_sets();
        let n = geometry.num_sets().max(1) as f64;
        EpochGauges {
            chbm_fraction: frac(self.chbm),
            mhbm_fraction: frac(self.mhbm),
            rh: if ways_total == 0 {
                0.0
            } else {
                (self.chbm + self.mhbm) as f64 / ways_total as f64
            },
            threshold: self.threshold_sum as f64 / n,
            overfetch_ratio: if self.fetched == 0 {
                0.0
            } else {
                self.wasted as f64 / self.fetched as f64
            },
            occupancy: self.occupancy,
        }
    }
}

/// Op counts the metadata lookup put at the head of an owned access's
/// plan, recorded only where a flush round fired (the splice point).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetaSplit {
    /// Index of the access's entry in [`RangePlans::plans`].
    pub(crate) entry: u32,
    pub(crate) critical: u32,
    pub(crate) background: u32,
}

/// The ops one flushed set contributed to a flush round, as
/// `[start, end)` bounds into [`RangePlans::flush`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlushSeg {
    /// Chunk index of the access that fired the round.
    pub(crate) at: u32,
    /// The set's position in the round's window (its serial order).
    pub(crate) pos: u32,
    pub(crate) critical: (u32, u32),
    pub(crate) background: (u32, u32),
}

/// One set-range controller's share of a planned chunk; see the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct RangePlans {
    /// Plans of the accesses to owned sets, in chunk order.
    pub(crate) plans: PlanBuffer,
    /// Chunk index of each entry of `plans`.
    pub(crate) owned: Vec<u32>,
    /// Metadata prefixes of owned accesses that fired a flush round.
    pub(crate) splits: Vec<MetaSplit>,
    /// Pressure-flush ops of owned window sets, every round of the chunk.
    pub(crate) flush: AccessPlan,
    /// One segment of `flush` per flushed owned set, in emission order.
    pub(crate) segs: Vec<FlushSeg>,
    /// [`splice`]'s read positions in `plans`, `splits` and `segs`.
    cursor: (usize, usize, usize),
}

impl RangePlans {
    /// An empty share.
    pub fn new() -> RangePlans {
        RangePlans::default()
    }

    /// Recycles the buffers for the next chunk.
    pub(crate) fn begin_chunk(&mut self) {
        self.plans.begin_chunk();
        self.owned.clear();
        self.splits.clear();
        self.flush.clear();
        self.segs.clear();
    }
}

/// Reassembles the range plans of one chunk of `len` accesses into `out`,
/// one sealed entry per access in chunk order, byte-identical to the
/// plans one whole-range controller emits for the same chunk.
///
/// `parts` must cover every set exactly once, and every controller must
/// have planned the same chunk from the same stream position.
///
/// # Panics
///
/// If some access of the chunk has no owner among `parts`.
pub fn splice(parts: &mut [RangePlans], len: usize, out: &mut PlanBuffer) {
    out.begin_chunk();
    for part in parts.iter_mut() {
        part.cursor = (0, 0, 0);
    }
    let mut owner = 0usize;
    let mut j = 0usize;
    while j < len {
        let at = j as u32;
        if parts[owner].owned.get(parts[owner].cursor.0) != Some(&at) {
            owner = (0..parts.len())
                .find(|&r| parts[r].owned.get(parts[r].cursor.0) == Some(&at))
                // audit: allow(hot-panic) -- an unowned access means the ranges do not cover the sets; a caller bug
                .expect("every access has exactly one owning range");
        }
        let part = &mut parts[owner];
        let entry = part.cursor.0;
        let split = part.splits.get(part.cursor.1).filter(|s| s.entry as usize == entry).copied();
        let Some(split) = split else {
            // A run of consecutive accesses of this range, up to its next
            // flush-round access, copies across in one block.
            let stop = part.splits.get(part.cursor.1).map_or(part.owned.len(), |s| s.entry as usize);
            let mut end = entry + 1;
            while end < stop && part.owned[end] as usize == j + (end - entry) {
                end += 1;
            }
            out.extend_from(&part.plans, entry..end);
            part.cursor.0 = end;
            j += end - entry;
            continue;
        };
        part.cursor.0 += 1;
        part.cursor.1 += 1;
        // The access that fired a flush round: its metadata ops, every
        // range's segments of the round in window order, its set ops.
        let view = parts[owner].plans.entry(entry);
        let (crit_head, bg_head) = (split.critical as usize, split.background as usize);
        let plan = out.plan_mut();
        plan.critical.extend_from_slice(&view.critical[..crit_head]);
        plan.background.extend_from_slice(&view.background[..bg_head]);
        while let Some(p) = next_segment(parts, at) {
            let seg = parts[p].segs[parts[p].cursor.2];
            parts[p].cursor.2 += 1;
            let flush = &parts[p].flush;
            plan.critical.extend_from_slice(slice(&flush.critical, seg.critical));
            plan.background.extend_from_slice(slice(&flush.background, seg.background));
        }
        plan.critical.extend_from_slice(&view.critical[crit_head..]);
        plan.background.extend_from_slice(&view.background[bg_head..]);
        plan.metadata_cycles = view.metadata_cycles;
        plan.stall_cycles = view.stall_cycles;
        plan.path = view.path;
        out.seal();
        j += 1;
    }
}

/// The part whose next unspliced flush segment belongs to access `j` and
/// comes first in window order, if any.
fn next_segment(parts: &[RangePlans], j: u32) -> Option<usize> {
    (0..parts.len())
        .filter_map(|p| {
            let seg = parts[p].segs.get(parts[p].cursor.2)?;
            (seg.at == j).then_some((seg.pos, p))
        })
        .min()
        .map(|(_, p)| p)
}

fn slice(ops: &[DeviceOp], (start, end): (u32, u32)) -> &[DeviceOp] {
    &ops[start as usize..end as usize]
}
