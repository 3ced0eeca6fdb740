//! The per-worker subgroup ledger: the one owner of *where every
//! subgroup's optimizer state lives* and of the decisions that move it.
//!
//! Each subgroup has exactly one slot — resident in a host frame, or
//! placed on a third-level tier — so "host-resident" and "holds the
//! frame" are one fact. On top of the slot table the ledger runs the
//! paper's scheduling policy, once, for both engines:
//!
//! * the iteration's subgroup order ([`OrderPolicy`], §3.2) and the
//!   hit-or-fetch decision for each subgroup in it;
//! * least-recently-updated retention within the [`FramePlan`]'s resting
//!   budget, `rest_frames`, which the executor states when it builds the
//!   ledger ([`Resting`]) — under the alternating order the retained tail
//!   of one iteration is exactly the head of the next (all hits), under a
//!   repeating scan the residents are recycled before the scan comes
//!   back around (the cache thrashing of §3.1). Because the whole order
//!   is known, most evictions are certain long before LRU forces them:
//!   whatever an iteration ends with is its last `rest_frames`
//!   retirees, so anything retiring earlier will have left by then. The
//!   ledger decides *what* is evicted and *where* — one LRU queue, one
//!   Eq. 1 sequence; each executor decides *when* it asks:
//!   [`SubgroupLedger::retire`] hands an eviction out at the retirement
//!   that overflows the budget, [`SubgroupLedger::retire_ahead`] as soon
//!   as it is certain — the same evictions to the same tiers, only
//!   earlier;
//! * the Eq. 1 flush split (§3.3): every evicted subgroup goes to the
//!   surviving tier furthest behind its share of the iteration's
//!   flushes, sized from the configured ratio or the planner's live
//!   estimates;
//! * migration and drain candidates for the [`AdaptivePlanner`]: only
//!   durable, settled tier copies — never a host-resident subgroup, so
//!   the cache-hit sequence survives every re-plan.
//!
//! The engines only *execute*: the functional engine moves real bytes
//! for each decision, the simulated engine advances virtual time. The
//! ledger is generic only in what a host frame holds (a pooled staging
//! buffer there, a frame-semaphore permit here).

use std::collections::VecDeque;

use crate::config::EngineConfig;
use crate::policy::allocation::{allocate_counts_excluding, assign_subgroups, most_behind};
use crate::policy::cache::{FramePlan, Resting};
use crate::policy::ordering::OrderPolicy;
use crate::policy::replan::{AdaptivePlanner, MigrationStep};
use crate::stats::TierDistribution;

/// What the iteration must do to bring the next subgroup into a host
/// frame.
pub enum Lookup<F> {
    /// Cache hit: the subgroup was retained; here is its frame. The
    /// executor holds it until [`SubgroupLedger::retire`] (or
    /// [`SubgroupLedger::reclaim`] on an unwind) hands it back.
    Hit(F),
    /// The subgroup's durable copy must be fetched from `tier`.
    Fetch {
        /// Tier holding the durable copy.
        tier: usize,
    },
}

/// One retention-budget eviction: `subgroup` leaves its host frame for
/// `tier`. The ledger already records the new placement; the executor
/// flushes `frame` there and fences any re-fetch on that write.
pub struct Eviction<F> {
    /// Evicted subgroup.
    pub subgroup: usize,
    /// The host frame holding its updated state.
    pub frame: F,
    /// Eq. 1 destination tier.
    pub tier: usize,
}

/// Where a subgroup rests between update phases.
pub enum Place<'a, F> {
    /// Retained in this host frame.
    Host(&'a F),
    /// Durable copy on the indexed tier.
    Tier(usize),
}

enum Slot<F> {
    /// Retained in a host frame; `stamp` identifies its live LRU entry.
    Host { frame: F, stamp: u64 },
    /// Offloaded to the indexed tier.
    Tier(usize),
    /// Frame handed out by a lookup hit, until retired or reclaimed.
    Lent,
}

/// The per-worker scheduling state machine (see the module docs).
pub struct SubgroupLedger<F> {
    /// The host-frame split this worker runs with.
    pub plan: FramePlan,
    /// The closed-loop §3.3 planner: feed it transfer observations,
    /// exclude quarantined tiers, read its estimates and counters.
    pub planner: AdaptivePlanner,
    /// Completed iterations; a checkpoint restore sets it so the
    /// alternating order continues in the checkpointed run's direction.
    pub iterations_done: u64,
    order_policy: OrderPolicy,
    /// Pinned flush split; `None` follows the planner's estimates.
    tier_ratio: Option<Vec<f64>>,
    adaptive: bool,
    slots: Vec<Slot<F>>,
    /// Least-recently-updated queue of `(subgroup, stamp)`; an entry is
    /// live while the slot still carries its stamp (a hit or an eviction
    /// leaves a dead entry behind, skipped when it reaches the front).
    lru: VecDeque<(usize, u64)>,
    clock: u64,
    resident: usize,
    order: Vec<usize>,
    cursor: usize,
    /// Retirements since [`SubgroupLedger::begin_iteration`].
    retired: usize,
    /// Residents the iteration started with — retained by the previous
    /// one or reclaimed from a failed attempt — that its order has not
    /// looked up yet. They are the oldest entries of `lru`, and the only
    /// residents a lookup can still turn into hits.
    carried: usize,
    flush_targets: Vec<usize>,
    flush_done: Vec<usize>,
}

impl<F> SubgroupLedger<F> {
    /// A ledger whose residents rest beyond the pipeline's frames
    /// ([`Resting::BeyondPipeline`]); see [`SubgroupLedger::with_resting`].
    pub fn new(cfg: &EngineConfig, m: usize, bandwidths: Vec<f64>) -> Self {
        Self::with_resting(cfg, m, bandwidths, Resting::BeyondPipeline)
    }

    /// Places `m` subgroups across the tiers per Eq. 1 (nothing is
    /// retained: the cache warms up during training) and starts the
    /// planner from `bandwidths`. Residents rest where `resting` says:
    /// the executor's statement of what its host frames are, from which
    /// the plan derives the one budget every retention rule uses. A
    /// configured `tier_ratio` overrides the bandwidths for the initial
    /// placement and every flush split; its length is the caller's to
    /// validate.
    pub fn with_resting(
        cfg: &EngineConfig,
        m: usize,
        bandwidths: Vec<f64>,
        resting: Resting,
    ) -> Self {
        let ntiers = bandwidths.len();
        let assignment = assign_subgroups(m, cfg.tier_ratio.as_deref().unwrap_or(&bandwidths));
        let mut planner = AdaptivePlanner::new(bandwidths, cfg.max_migrations_per_iter);
        planner.attach_trace(&cfg.trace);
        SubgroupLedger {
            plan: FramePlan::new(cfg.host_frames, cfg.cache_retention, resting),
            planner,
            order_policy: cfg.order,
            tier_ratio: cfg.tier_ratio.clone(),
            adaptive: cfg.adaptive_bandwidth,
            slots: assignment.into_iter().map(Slot::Tier).collect(),
            lru: VecDeque::new(),
            clock: 0,
            resident: 0,
            iterations_done: 0,
            order: Vec::new(),
            cursor: 0,
            retired: 0,
            carried: 0,
            flush_targets: vec![0; ntiers],
            flush_done: vec![0; ntiers],
        }
    }

    /// Subgroups currently retained in host frames.
    pub fn resident_count(&self) -> usize {
        self.resident
    }

    /// Starts (or, after a failed attempt, restarts) the current
    /// iteration: fixes its subgroup order and the Eq. 1 flush
    /// proportions over the surviving tiers. The number of flushes
    /// depends on cache hits, so the targets are sized for the worst
    /// case; only their ratios drive the deficit rule.
    ///
    /// # Panics
    ///
    /// Panics if every tier is excluded (callers surface "no surviving
    /// tier" as a typed error before starting an iteration).
    pub fn begin_iteration(&mut self) {
        let m = self.slots.len();
        self.order = self.order_policy.order(self.iterations_done, m);
        self.cursor = 0;
        self.retired = 0;
        self.carried = self.resident;
        let weights = self
            .tier_ratio
            .as_deref()
            .unwrap_or(self.planner.estimates());
        self.flush_targets = allocate_counts_excluding(m.max(1), weights, self.planner.excluded());
        self.flush_done.fill(0);
    }

    /// The next subgroup of the iteration's order and how to bring it
    /// into a host frame; `None` once the order is exhausted. A retained
    /// subgroup leaves the resident set here — from now on it cannot be
    /// evicted from under the pipeline.
    // lint:hot-root — once per subgroup per iteration, ahead of every fetch
    pub fn next_lookup(&mut self) -> Option<(usize, Lookup<F>)> {
        let idx = *self.order.get(self.cursor)?;
        self.cursor += 1;
        let slot = self.slots.get_mut(idx)?;
        match std::mem::replace(slot, Slot::Lent) {
            Slot::Host { frame, .. } => {
                self.resident -= 1;
                self.carried = self.carried.saturating_sub(1);
                Some((idx, Lookup::Hit(frame)))
            }
            Slot::Tier(tier) => {
                *slot = Slot::Tier(tier);
                Some((idx, Lookup::Fetch { tier }))
            }
            // A frame that never came back from an earlier pass: hand out
            // no further work rather than schedule around a lost frame.
            Slot::Lent => None,
        }
    }

    /// Whether the next subgroup of the iteration's order is retained: its
    /// lookup will be a [`Lookup::Hit`], which lends a frame instead of
    /// needing one. `None` once the order is exhausted.
    pub fn next_is_hit(&self) -> Option<bool> {
        let idx = *self.order.get(self.cursor)?;
        Some(matches!(self.slots.get(idx), Some(Slot::Host { .. })))
    }

    /// Retires updated subgroup `idx` into the resident set as its most
    /// recently updated member, then evicts least-recently-updated
    /// residents until the set fits the resting budget again — usually
    /// one, none while the cache warms up, several when reclaimed flush
    /// payloads of a failed attempt left extra residents behind. Each
    /// eviction comes with its Eq. 1 tier chosen and recorded.
    // lint:hot-root — once per subgroup per iteration, ahead of every flush
    pub fn retire(&mut self, idx: usize, frame: F) -> Vec<Eviction<F>> {
        self.reclaim(idx, frame);
        self.retired += 1;
        self.evict_excess()
    }

    /// [`SubgroupLedger::retire`] for an executor that wants each
    /// eviction as soon as it is certain rather than when LRU forces it.
    /// The iteration ends with its last `rest_frames` retirees, so once
    /// no resident carried into the iteration is still waiting for its
    /// lookup — until then one may yet be a hit, and `retire`'s rule
    /// alone applies — every resident beyond what the retirements still
    /// to come leave room for is going to be evicted, oldest first. This
    /// hands those out now: the evictions `retire` would make, in the
    /// same LRU order and to the same Eq. 1 tiers, none later and most
    /// `rest_frames` retirements earlier — while the frame is still
    /// cache-hot, and leaving the resting frames free for the whole
    /// middle of the iteration. The ledger decides *what* and *where*
    /// either way; *when* to ask is the executor's choice (the
    /// virtual-time engine keeps asking late, DESIGN.md §7).
    // lint:hot-root — once per subgroup per iteration, ahead of every flush
    pub fn retire_ahead(&mut self, idx: usize, frame: F) -> Vec<Eviction<F>> {
        let mut evicted = self.retire(idx, frame);
        if self.carried == 0 {
            let to_come = self.order.len().saturating_sub(self.retired);
            self.evict_down_to(self.plan.rest_frames.saturating_sub(to_come), &mut evicted);
        }
        evicted
    }

    /// Evicts whatever exceeds the resting budget right now, without a
    /// retirement: the residents [`SubgroupLedger::reclaim`] left over
    /// budget, which the next retirement would evict anyway. For an
    /// executor whose frames they hold and that cannot reach that
    /// retirement without one.
    pub fn evict_excess(&mut self) -> Vec<Eviction<F>> {
        let mut evicted = Vec::new();
        self.evict_down_to(self.plan.rest_frames, &mut evicted);
        evicted
    }

    /// Evicts least-recently-updated residents until at most `budget`
    /// remain, each to the tier Eq. 1 picks for the next flush.
    fn evict_down_to(&mut self, budget: usize, evicted: &mut Vec<Eviction<F>>) {
        while self.resident > budget {
            let Some((subgroup, frame)) = self.pop_lru() else {
                break;
            };
            let tier = self.pick_flush_tier();
            if let Some(slot) = self.slots.get_mut(subgroup) {
                *slot = Slot::Tier(tier);
            }
            evicted.push(Eviction {
                subgroup,
                frame,
                tier,
            });
        }
    }

    /// Puts `frame` back as subgroup `idx`'s host-resident state without
    /// evicting anything: a lookup hit the pass never got to, or the
    /// payload of a failed eviction flush (the only surviving copy of the
    /// updated state). The budget is re-established by the next
    /// [`SubgroupLedger::retire`].
    pub fn reclaim(&mut self, idx: usize, frame: F) {
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        if !matches!(slot, Slot::Host { .. }) {
            self.resident += 1;
        }
        self.clock += 1;
        *slot = Slot::Host {
            frame,
            stamp: self.clock,
        };
        self.lru.push_back((idx, self.clock));
        // Hits leave dead entries behind without ever popping the queue
        // (a fully cached shard never evicts): sweep them out before they
        // outnumber the live ones, keeping every operation O(1) amortised.
        if self.lru.len() > 2 * self.slots.len() + 8 {
            let slots = &self.slots;
            self.lru.retain(
                |&(i, s)| matches!(slots.get(i), Some(Slot::Host { stamp, .. }) if *stamp == s),
            );
        }
    }

    fn pop_lru(&mut self) -> Option<(usize, F)> {
        while let Some((idx, stamp)) = self.lru.pop_front() {
            let Some(slot) = self.slots.get_mut(idx) else {
                continue;
            };
            if !matches!(slot, Slot::Host { stamp: s, .. } if *s == stamp) {
                continue;
            }
            if let Slot::Host { frame, .. } = std::mem::replace(slot, Slot::Lent) {
                self.resident -= 1;
                // Carried-over residents are older than anything this
                // iteration retired: while any is left, the front is one.
                self.carried = self.carried.saturating_sub(1);
                return Some((idx, frame));
            }
        }
        None
    }

    /// The Eq. 1 destination of the next flush (excluded tiers have no
    /// target, so the deficit rule never selects them).
    fn pick_flush_tier(&mut self) -> usize {
        let tier = most_behind(&self.flush_targets, &self.flush_done).unwrap_or(0);
        if let Some(done) = self.flush_done.get_mut(tier) {
            *done += 1;
        }
        tier
    }

    /// Ends a successful iteration: folds the planner's observations into
    /// its estimates when adaptive (the next split and migration plan
    /// derive from them) and advances the order.
    pub fn end_iteration(&mut self) {
        if self.adaptive {
            self.planner.end_iteration();
        }
        self.iterations_done += 1;
    }

    /// Each subgroup's durable tier as the planner sees it: `None` for
    /// host-resident subgroups and for those `in_flight` says are still
    /// being written (a copy must be settled before it can move).
    fn candidates(&self, in_flight: impl Fn(usize) -> bool) -> Vec<Option<usize>> {
        self.slots
            .iter()
            .enumerate()
            .map(|(idx, slot)| match slot {
                Slot::Tier(t) if !in_flight(idx) => Some(*t),
                _ => None,
            })
            .collect()
    }

    /// The bounded migration plan toward the current Eq. 1 split (see
    /// [`AdaptivePlanner::plan_migrations`]) over the settled tier copies.
    /// The executor moves each copy, then calls
    /// [`SubgroupLedger::relocate`].
    pub fn plan_migrations(&mut self, in_flight: impl Fn(usize) -> bool) -> Vec<MigrationStep> {
        let candidates = self.candidates(in_flight);
        self.planner.plan_migrations(&candidates)
    }

    /// The full evacuation plan off every excluded tier (see
    /// [`AdaptivePlanner::plan_drain`]) over the settled tier copies.
    pub fn plan_drain(&mut self, in_flight: impl Fn(usize) -> bool) -> Vec<MigrationStep> {
        let candidates = self.candidates(in_flight);
        self.planner.plan_drain(&candidates)
    }

    /// Records that `step`'s destination copy is durable: the subgroup
    /// now lives on `step.to`. Host-resident subgroups are untouched.
    pub fn relocate(&mut self, step: MigrationStep) {
        if let Some(slot @ Slot::Tier(_)) = self.slots.get_mut(step.subgroup) {
            *slot = Slot::Tier(step.to);
        }
    }

    /// Where subgroup `idx` rests. `None` only for an out-of-range index
    /// or while an update pass holds the subgroup's frame.
    pub fn place(&self, idx: usize) -> Option<Place<'_, F>> {
        match self.slots.get(idx)? {
            Slot::Host { frame, .. } => Some(Place::Host(frame)),
            Slot::Tier(t) => Some(Place::Tier(*t)),
            Slot::Lent => None,
        }
    }

    /// Distribution of the state across host memory and the tiers
    /// (Fig. 10); `bytes_of` sizes each subgroup's state.
    pub fn tier_distribution(&self, bytes_of: impl Fn(usize) -> u64) -> TierDistribution {
        let mut dist = TierDistribution {
            host_bytes: 0,
            tier_bytes: vec![0; self.flush_done.len()],
        };
        for (idx, slot) in self.slots.iter().enumerate() {
            match slot {
                Slot::Tier(t) => {
                    if let Some(b) = dist.tier_bytes.get_mut(*t) {
                        *b += bytes_of(idx);
                    }
                }
                Slot::Host { .. } | Slot::Lent => dist.host_bytes += bytes_of(idx),
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::cache::MIN_PIPELINE_FRAMES;

    /// A ledger over `ntiers` tiers with the split pinned to `ratio`; the
    /// frame payload is the id of the subgroup it holds.
    fn ledger(
        order: OrderPolicy,
        m: usize,
        retain: usize,
        ratio: Vec<f64>,
    ) -> SubgroupLedger<usize> {
        ledger_resting(Resting::BeyondPipeline, order, m, retain, ratio)
    }

    /// [`ledger`] whose `retain` residents rest where `resting` says: in
    /// `3 + retain` frames beyond the pipeline, or in all of `retain`
    /// frames (at least the pipeline's three).
    fn ledger_resting(
        resting: Resting,
        order: OrderPolicy,
        m: usize,
        retain: usize,
        ratio: Vec<f64>,
    ) -> SubgroupLedger<usize> {
        let frames = match resting {
            Resting::BeyondPipeline => MIN_PIPELINE_FRAMES + retain,
            Resting::EveryFrame => retain,
        };
        let mut cfg = EngineConfig::mlp_offload()
            .with_host_frames(frames)
            .with_tier_ratio(ratio.clone());
        cfg.order = order;
        let ledger = SubgroupLedger::with_resting(&cfg, m, ratio, resting);
        assert_eq!(ledger.plan.rest_frames, retain);
        ledger
    }

    /// The resting kinds that can rest exactly `retain` subgroups.
    fn restings(retain: usize) -> Vec<Resting> {
        if retain >= MIN_PIPELINE_FRAMES {
            vec![Resting::BeyondPipeline, Resting::EveryFrame]
        } else {
            vec![Resting::BeyondPipeline]
        }
    }

    /// One iteration the way both engines drive it: lookups run
    /// `pipeline_frames` subgroups ahead of retirement. Returns the hits
    /// and the evictions in order as `(subgroup, tier)`.
    fn run_iteration(ledger: &mut SubgroupLedger<usize>) -> (usize, Vec<(usize, usize)>) {
        ledger.begin_iteration();
        let depth = ledger.plan.pipeline_frames;
        let mut window = VecDeque::new();
        let (mut hits, mut evicted, mut seen) = (0, Vec::new(), Vec::new());
        loop {
            while window.len() < depth {
                let Some((idx, lookup)) = ledger.next_lookup() else {
                    break;
                };
                if let Lookup::Hit(frame) = lookup {
                    assert_eq!(frame, idx, "a hit must return the subgroup's own frame");
                    hits += 1;
                }
                window.push_back(idx);
            }
            let Some(idx) = window.pop_front() else {
                break;
            };
            seen.push(idx);
            for e in ledger.retire(idx, idx) {
                assert_eq!(e.frame, e.subgroup, "an eviction must carry its own frame");
                assert!(matches!(ledger.place(e.subgroup), Some(Place::Tier(t)) if t == e.tier));
                evicted.push((e.subgroup, e.tier));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..ledger.slots.len()).collect::<Vec<_>>());
        ledger.end_iteration();
        (hits, evicted)
    }

    #[test]
    fn hits_follow_the_closed_form_from_the_cold_start() {
        for order in [
            OrderPolicy::Ascending,
            OrderPolicy::Alternating,
            OrderPolicy::Descending,
        ] {
            for m in [1usize, 5, 9, 64] {
                for (retain, resting) in [0, 2, m, m + 3]
                    .into_iter()
                    .flat_map(|r| restings(r).into_iter().map(move |k| (r, k)))
                {
                    let mut l = ledger_resting(resting, order, m, retain, vec![2.0, 1.0]);
                    for iter in 0..6u64 {
                        let before = l.resident_count();
                        let (hits, evicted) = run_iteration(&mut l);
                        let what =
                            format!("{order:?} m={m} retain={retain} {resting:?} iter={iter}");
                        assert_eq!(hits, order.expected_hits(iter, m, retain), "{what}");
                        assert_eq!(l.resident_count(), retain.min(m), "{what}");
                        // Every fetched subgroup displaces one frame's worth.
                        assert_eq!(evicted.len() + retain.min(m), before + m - hits, "{what}");
                        assert!(l.lru.len() <= 2 * m + 9, "{what}: dead LRU entries pile up");
                    }
                }
            }
        }
    }

    #[test]
    fn flushes_track_the_eq1_split_over_the_surviving_tiers() {
        for (ratio, excluded) in [
            (vec![2.0, 1.0], None),
            (vec![1.0, 1.0], None),
            (vec![5.3, 3.6, 1.0], None),
            (vec![3.0, 2.0, 1.0], Some(1)),
            (vec![1.0, 1.0, 1.0], Some(0)),
        ] {
            for (m, retain) in [(9usize, 0usize), (64, 0), (64, 5), (10, 3)] {
                let mut l = ledger(OrderPolicy::Alternating, m, retain, ratio.clone());
                let mut mask = vec![false; ratio.len()];
                if let Some(t) = excluded {
                    l.planner.exclude_tier(t);
                    mask[t] = true;
                }
                for _ in 0..3 {
                    let (_, evicted) = run_iteration(&mut l);
                    let mut per_tier = vec![0usize; ratio.len()];
                    for &(_, tier) in &evicted {
                        per_tier[tier] += 1;
                    }
                    let want = allocate_counts_excluding(evicted.len(), &ratio, &mask);
                    for t in 0..ratio.len() {
                        assert!(
                            per_tier[t].abs_diff(want[t]) <= 1,
                            "{ratio:?} excluding {excluded:?}, m={m} retain={retain}: \
                             flushed {per_tier:?}, Eq. 1 says {want:?}"
                        );
                        assert!(!mask[t] || per_tier[t] == 0, "flushed to an excluded tier");
                    }
                }
            }
        }
        // Equal shares tie toward the lower tier index, every time.
        let mut l = ledger(OrderPolicy::Ascending, 6, 0, vec![1.0, 1.0, 1.0]);
        let (_, evicted) = run_iteration(&mut l);
        let tiers: Vec<usize> = evicted.iter().map(|&(_, t)| t).collect();
        assert_eq!(tiers, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn retire_after_reclaim_evicts_all_excess_in_lru_order() {
        let mut l = ledger(OrderPolicy::Ascending, 8, 2, vec![1.0]);
        run_iteration(&mut l); // residents, LRU first: 6, 7
                               // A failed attempt hands two eviction payloads back: four
                               // residents over a budget of two.
        l.begin_iteration();
        l.reclaim(0, 0);
        l.reclaim(1, 1);
        assert_eq!(l.resident_count(), 4);
        // The re-drive's first retirement re-establishes the budget,
        // oldest first: 6, 7, then the first reclaimed payload.
        let (idx, lookup) = l.next_lookup().unwrap();
        assert!(matches!((idx, lookup), (0, Lookup::Hit(0))));
        let evicted: Vec<usize> = l.retire(0, 0).iter().map(|e| e.subgroup).collect();
        assert_eq!(evicted, vec![6, 7]);
        assert_eq!(l.resident_count(), 2);
        assert!(matches!(l.place(1), Some(Place::Host(&1))));
        assert!(matches!(l.place(0), Some(Place::Host(&0))));
    }

    /// [`run_iteration`] for either entry point and any lookahead; a pass
    /// that does not `complete` stops short of `end_iteration`, as one
    /// whose final flushes fail does. Returns the hits and the evictions
    /// in order as `(retirement index, subgroup, tier)`.
    fn drive(
        ledger: &mut SubgroupLedger<usize>,
        lookahead: usize,
        ahead: bool,
        complete: bool,
    ) -> (usize, Vec<(usize, usize, usize)>) {
        ledger.begin_iteration();
        let mut window = VecDeque::new();
        let (mut hits, mut evicted, mut retired) = (0, Vec::new(), 0);
        loop {
            while window.len() < lookahead {
                let Some((idx, lookup)) = ledger.next_lookup() else {
                    break;
                };
                hits += usize::from(matches!(lookup, Lookup::Hit(_)));
                window.push_back(idx);
            }
            let Some(idx) = window.pop_front() else {
                break;
            };
            let evictions = if ahead {
                ledger.retire_ahead(idx, idx)
            } else {
                ledger.retire(idx, idx)
            };
            for e in evictions {
                assert_eq!(e.frame, e.subgroup, "an eviction must carry its own frame");
                evicted.push((retired, e.subgroup, e.tier));
            }
            retired += 1;
        }
        assert_eq!(retired, ledger.slots.len());
        if complete {
            ledger.end_iteration();
        }
        (hits, evicted)
    }

    #[test]
    fn the_foresighted_ledger_is_lru_only_earlier() {
        use mlp_testkit::{cases, DEFAULT_CASES};
        cases(DEFAULT_CASES, |g| {
            let order = [
                OrderPolicy::Ascending,
                OrderPolicy::Alternating,
                OrderPolicy::Descending,
            ][g.range(0usize..3)];
            let m = g.range(1usize..65);
            let retain = g.range(0usize..m + 4);
            let lookahead = [1, 3, m][g.range(0usize..3)];
            let ratio =
                [vec![1.0], vec![2.0, 1.0], vec![5.3, 3.6, 1.0]][g.range(0usize..3)].clone();
            // Both entry points at the same resting budget, however the
            // executor's frames make it up.
            let kinds = restings(retain);
            let resting = kinds[g.range(0usize..kinds.len())];
            let what = format!(
                "{order:?} m={m} retain={retain} {resting:?} lookahead={lookahead} {ratio:?}"
            );
            let mut lazy = ledger_resting(resting, order, m, retain, ratio.clone());
            let mut ahead = ledger_resting(resting, order, m, retain, ratio);

            // One iteration on both ledgers from the same state: same
            // hits, same evictions to the same tiers and none later, the
            // same placement afterwards, the budget re-established.
            let twin_iteration =
                |lazy: &mut SubgroupLedger<usize>, ahead: &mut SubgroupLedger<usize>| {
                    let (lazy_hits, late) = drive(lazy, lookahead, false, true);
                    let (hits, early) = drive(ahead, lookahead, true, true);
                    assert_eq!(hits, lazy_hits, "{what}: hits");
                    let sequence = |e: &[(usize, usize, usize)]| -> Vec<(usize, usize)> {
                        e.iter()
                            .map(|&(_, subgroup, tier)| (subgroup, tier))
                            .collect()
                    };
                    assert_eq!(
                        sequence(&early),
                        sequence(&late),
                        "{what}: eviction sequence"
                    );
                    for (e, l) in early.iter().zip(&late) {
                        assert!(e.0 <= l.0, "{what}: {e:?} handed out after the lazy {l:?}");
                    }
                    for idx in 0..m {
                        let tier_of = |l: &SubgroupLedger<usize>| match l.place(idx) {
                            Some(Place::Tier(t)) => Some(t),
                            Some(Place::Host(_)) => None,
                            None => panic!("{what}: subgroup {idx} still lent out"),
                        };
                        assert_eq!(tier_of(ahead), tier_of(lazy), "{what}: subgroup {idx}");
                    }
                    assert!(ahead.resident_count() <= retain, "{what}: over budget");
                    (hits, early, late)
                };

            for iter in 0..6u64 {
                let (hits, early, late) = twin_iteration(&mut lazy, &mut ahead);
                // The closed form's caveat: a repeating scan's lookahead
                // must not reach the retained tail before the scan starts
                // evicting it.
                if order == OrderPolicy::Alternating || retain >= m || retain + lookahead <= m {
                    assert_eq!(
                        hits,
                        order.expected_hits(iter, m, retain),
                        "{what} iter={iter}"
                    );
                }
                // From the cold start nothing is carried over, so every
                // eviction is certain at the evicted subgroup's own
                // retirement: `retain` retirements before LRU forces it.
                if iter == 0 {
                    assert_eq!(early.len(), m.saturating_sub(retain), "{what}");
                    for (at, (e, l)) in early.iter().zip(&late).enumerate() {
                        assert_eq!((e.0, l.0), (at, at + retain), "{what}");
                    }
                }
            }

            // A pass whose last flushes fail: their payloads come back
            // over budget, and the re-drive of the same iteration starts
            // with carried-over residents neither rule may evict early.
            let (_, late) = drive(&mut lazy, lookahead, false, false);
            let (_, early) = drive(&mut ahead, lookahead, true, false);
            assert_eq!(early.len(), late.len(), "{what}");
            let failed = g.range(0usize..late.len().min(8) + 1);
            for &(_, subgroup, _) in late.iter().rev().take(failed) {
                lazy.reclaim(subgroup, subgroup);
                ahead.reclaim(subgroup, subgroup);
            }
            twin_iteration(&mut lazy, &mut ahead);
            twin_iteration(&mut lazy, &mut ahead);
        });
    }

    #[test]
    fn plans_only_move_settled_tier_copies() {
        let mut cfg = EngineConfig::mlp_offload()
            .with_host_frames(3 + 2)
            .with_adaptive_replan(16);
        cfg.order = OrderPolicy::Ascending;
        // Everything starts on tier 1 of 2 while the planner believes
        // tier 0 is ten times faster: every tier copy wants to move.
        cfg.tier_ratio = Some(vec![1e-9, 1.0]);
        let mut l: SubgroupLedger<usize> = SubgroupLedger::new(&cfg, 8, vec![10.0, 1.0]);
        run_iteration(&mut l); // 6 and 7 end up host-resident
        let in_flight = |idx| idx == 3;
        let steps = l.plan_migrations(in_flight);
        assert!(!steps.is_empty());
        for s in &steps {
            assert!(
                ![3, 6, 7].contains(&s.subgroup),
                "{s:?} is not a settled tier copy"
            );
        }
        // Same rule for the unbounded drain; a relocated copy is planned
        // from its new tier, a host-resident one never moves.
        l.planner.exclude_tier(1);
        let drained: Vec<usize> = l.plan_drain(in_flight).iter().map(|s| s.subgroup).collect();
        assert_eq!(drained, vec![0, 1, 2, 4, 5]);
        let step = MigrationStep {
            subgroup: 0,
            from: 1,
            to: 0,
        };
        l.relocate(step);
        l.relocate(MigrationStep {
            subgroup: 6,
            ..step
        });
        assert!(matches!(l.place(0), Some(Place::Tier(0))));
        assert!(matches!(l.place(6), Some(Place::Host(_))));
        let dist = l.tier_distribution(|_| 10);
        assert_eq!((dist.host_bytes, dist.tier_bytes), (20, vec![10, 50]));
    }
}
