//! Typed controller events and the bounded ring buffer that stores them.

/// One structured event on a controller's access path.
///
/// `set`/`page` identify the remapping set and the original page slot the
/// event concerns; the payload mirrors what the paper's mechanisms act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// First-touch page allocation (PRT miss).
    PrtMiss {
        /// Remapping set.
        set: u64,
        /// Original page slot.
        page: u16,
    },
    /// The hotness allocator placed a new page directly in HBM.
    AllocInHbm {
        /// Remapping set.
        set: u64,
        /// Original page slot.
        page: u16,
    },
    /// Demand request served from HBM via a BLE (cHBM or mHBM).
    BleHit {
        /// Remapping set.
        set: u64,
        /// Original page slot.
        page: u16,
        /// Block index within the page.
        block: u32,
    },
    /// One block fetched into a cHBM frame.
    BlockFill {
        /// Remapping set.
        set: u64,
        /// Original page slot.
        page: u16,
        /// Block index within the page.
        block: u32,
    },
    /// Whole page migrated into mHBM.
    Migrate {
        /// Remapping set.
        set: u64,
        /// Original page slot.
        page: u16,
    },
    /// Rule-4 swap of a hot off-chip page with the coldest mHBM page.
    Swap {
        /// Remapping set.
        set: u64,
        /// Incoming (hot) page slot.
        page: u16,
        /// Displaced (cold) page slot.
        victim: u16,
    },
    /// Page or cHBM frame evicted to off-chip DRAM.
    Evict {
        /// Remapping set.
        set: u64,
        /// Original page slot.
        page: u16,
    },
    /// A frame changed mode (cHBM→mHBM when `to_mhbm`, else mHBM→cHBM).
    SwitchMode {
        /// Remapping set.
        set: u64,
        /// Original page slot.
        page: u16,
        /// Direction of the switch.
        to_mhbm: bool,
    },
    /// Rule-3 zombie eviction.
    ZombieEvict {
        /// Remapping set.
        set: u64,
        /// Original page slot.
        page: u16,
    },
    /// Rule-5 pressure flush of one set's cHBM frames.
    PressureFlush {
        /// Remapping set.
        set: u64,
    },
    /// The hotness threshold `T` kept data out of HBM.
    ThresholdReject {
        /// Remapping set.
        set: u64,
        /// Original page slot.
        page: u16,
    },
}

impl TraceEvent {
    /// Stable lowercase kind name (the JSONL `event` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PrtMiss { .. } => "prt_miss",
            TraceEvent::AllocInHbm { .. } => "alloc_in_hbm",
            TraceEvent::BleHit { .. } => "ble_hit",
            TraceEvent::BlockFill { .. } => "block_fill",
            TraceEvent::Migrate { .. } => "migrate",
            TraceEvent::Swap { .. } => "swap",
            TraceEvent::Evict { .. } => "evict",
            TraceEvent::SwitchMode { to_mhbm: true, .. } => "switch_to_mhbm",
            TraceEvent::SwitchMode { to_mhbm: false, .. } => "switch_to_chbm",
            TraceEvent::ZombieEvict { .. } => "zombie_evict",
            TraceEvent::PressureFlush { .. } => "pressure_flush",
            TraceEvent::ThresholdReject { .. } => "threshold_reject",
        }
    }

    /// The remapping set the event concerns.
    pub fn set(&self) -> u64 {
        match *self {
            TraceEvent::PrtMiss { set, .. }
            | TraceEvent::AllocInHbm { set, .. }
            | TraceEvent::BleHit { set, .. }
            | TraceEvent::BlockFill { set, .. }
            | TraceEvent::Migrate { set, .. }
            | TraceEvent::Swap { set, .. }
            | TraceEvent::Evict { set, .. }
            | TraceEvent::SwitchMode { set, .. }
            | TraceEvent::ZombieEvict { set, .. }
            | TraceEvent::PressureFlush { set }
            | TraceEvent::ThresholdReject { set, .. } => set,
        }
    }

    /// The original page slot, where the event has one.
    pub fn page(&self) -> Option<u64> {
        match *self {
            TraceEvent::PrtMiss { page, .. }
            | TraceEvent::AllocInHbm { page, .. }
            | TraceEvent::BleHit { page, .. }
            | TraceEvent::BlockFill { page, .. }
            | TraceEvent::Migrate { page, .. }
            | TraceEvent::Swap { page, .. }
            | TraceEvent::Evict { page, .. }
            | TraceEvent::SwitchMode { page, .. }
            | TraceEvent::ZombieEvict { page, .. }
            | TraceEvent::ThresholdReject { page, .. } => Some(u64::from(page)),
            TraceEvent::PressureFlush { .. } => None,
        }
    }

    /// The block index, where the event has one.
    pub fn block(&self) -> Option<u64> {
        match *self {
            TraceEvent::BleHit { block, .. } | TraceEvent::BlockFill { block, .. } => {
                Some(u64::from(block))
            }
            _ => None,
        }
    }

    /// The displaced page of a swap, where the event has one.
    pub fn victim(&self) -> Option<u64> {
        match *self {
            TraceEvent::Swap { victim, .. } => Some(u64::from(victim)),
            _ => None,
        }
    }
}

/// One event stamped with the controller's access counter at emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Controller access count when the event fired (the trace timeline).
    pub seq: u64,
    /// Emission phase within one access: a pressure-flush round stamps its
    /// events with the flushed set's window position, every other event
    /// carries [`ACCESS_RANK`](Self::ACCESS_RANK). `(seq, rank)` orders the
    /// events of set-range controllers exactly as one whole-range
    /// controller emits them (see [`merge_shard_events`]).
    pub rank: u32,
    /// The event.
    pub event: TraceEvent,
}

impl TimedEvent {
    /// The rank of every event outside a pressure-flush round: after all
    /// flush events of the same access.
    pub const ACCESS_RANK: u32 = u32::MAX;
}

/// A bounded ring of [`TimedEvent`]s: the newest `capacity` events are
/// kept, older ones are dropped (and counted), so tracing a long run costs
/// fixed memory.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TimedEvent>,
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl EventRing {
    /// A ring keeping the newest `capacity` events (at least 1).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing { buf: Vec::with_capacity(capacity), head: 0, dropped: 0, capacity }
    }

    /// Appends an event, evicting (and counting) the oldest when full.
    pub fn push(&mut self, ev: TimedEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// Events held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the ring into a `Vec`, oldest first.
    pub fn into_vec(self) -> Vec<TimedEvent> {
        let mut v = self.buf;
        v.rotate_left(self.head);
        v
    }
}

/// Merges per-shard event collections into the single stream a global ring
/// of `capacity` would have kept.
///
/// Each part is `(events_kept_oldest_first, dropped)` from one shard's
/// ring. Because every shard keeps its own newest `capacity` events, the
/// union always contains the globally newest `capacity` — so sorting the
/// union by `(seq, rank)` and keeping the tail reproduces the same kept
/// set at any shard count. The sort is stable and parts come in set
/// order, so events of one `(seq, rank)` keep their emission order. Returns `(merged_events, dropped)` where `dropped`
/// counts everything recorded but not kept.
// audit: merge
pub fn merge_shard_events(
    parts: Vec<(Vec<TimedEvent>, u64)>,
    capacity: usize,
) -> (Vec<TimedEvent>, u64) {
    let capacity = capacity.max(1);
    let mut recorded: u64 = 0;
    let mut all: Vec<TimedEvent> = Vec::new();
    for (events, dropped) in parts {
        recorded += events.len() as u64 + dropped;
        all.extend(events);
    }
    all.sort_by_key(|e| (e.seq, e.rank));
    if all.len() > capacity {
        all.drain(..all.len() - capacity);
    }
    let dropped = recorded.saturating_sub(all.len() as u64);
    (all, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> TimedEvent {
        TimedEvent { seq, rank: 0, event: TraceEvent::PrtMiss { set: 0, page: seq as u16 } }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TraceEvent::PrtMiss { set: 0, page: 0 }.kind(), "prt_miss");
        assert_eq!(
            TraceEvent::SwitchMode { set: 0, page: 0, to_mhbm: true }.kind(),
            "switch_to_mhbm"
        );
        assert_eq!(
            TraceEvent::SwitchMode { set: 0, page: 0, to_mhbm: false }.kind(),
            "switch_to_chbm"
        );
        assert_eq!(TraceEvent::PressureFlush { set: 3 }.kind(), "pressure_flush");
    }

    #[test]
    fn payload_accessors() {
        let e = TraceEvent::BleHit { set: 7, page: 9, block: 3 };
        assert_eq!(e.set(), 7);
        assert_eq!(e.page(), Some(9));
        assert_eq!(e.block(), Some(3));
        assert_eq!(e.victim(), None);
        let s = TraceEvent::Swap { set: 1, page: 2, victim: 5 };
        assert_eq!(s.victim(), Some(5));
        assert_eq!(TraceEvent::PressureFlush { set: 0 }.page(), None);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = EventRing::new(3);
        for s in 0..5 {
            r.push(ev(s));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(r.into_vec().iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn ring_under_capacity_keeps_all() {
        let mut r = EventRing::new(8);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.iter().count(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn merged_shards_match_a_single_global_ring() {
        // Partition seqs 0..40 across 3 "shards" by seq % 3, push each
        // shard's events through its own capacity-8 ring, merge, and
        // compare with one ring that saw the full stream in order.
        let mut global = EventRing::new(8);
        let mut shards = vec![EventRing::new(8), EventRing::new(8), EventRing::new(8)];
        for s in 0..40u64 {
            global.push(ev(s));
            shards[(s % 3) as usize].push(ev(s));
        }
        let parts: Vec<(Vec<TimedEvent>, u64)> =
            shards.into_iter().map(|r| { let d = r.dropped(); (r.into_vec(), d) }).collect();
        let (merged, dropped) = merge_shard_events(parts, 8);
        assert_eq!(merged, global.clone().into_vec());
        assert_eq!(dropped, global.dropped());
    }

    #[test]
    fn merge_is_shard_count_independent() {
        let one = vec![((0..10).map(ev).collect::<Vec<_>>(), 5u64)];
        let two = vec![
            ((0..10).filter(|s| s % 2 == 0).map(ev).collect::<Vec<_>>(), 2u64),
            ((0..10).filter(|s| s % 2 == 1).map(ev).collect::<Vec<_>>(), 3u64),
        ];
        let (a, da) = merge_shard_events(one, 4);
        let (b, db) = merge_shard_events(two, 4);
        assert_eq!(a, b);
        assert_eq!(da, db);
        assert_eq!(a.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(da, 11, "15 recorded, 4 kept");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = EventRing::new(0);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().seq, 2);
    }
}
