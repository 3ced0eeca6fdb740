//! The per-worker subgroup ledger: the one owner of *where every
//! subgroup's optimizer state lives* and of the decisions that move it.
//!
//! Each subgroup has exactly one slot — resident in a host frame, or
//! placed on a third-level tier — so "host-resident" and "holds the
//! frame" are one fact. On top of the slot table the ledger runs the
//! paper's scheduling policy, once, for both engines: at
//! [`SubgroupLedger::begin_iteration`] it plans the whole update pass as
//! data, a [`PassPlan`] from the pure [`plan_pass`]:
//!
//! * the iteration's subgroup order ([`OrderPolicy`], §3.2) and, for each
//!   subgroup in it, a [`Load`]: a hit if it still rests in a host frame
//!   when a window of the pipeline's floor depth reaches it, else a fetch;
//! * least-recently-updated retention within the [`FramePlan`]'s resting
//!   budget, `rest_frames`: after each [`Step::Update`], the
//!   [`Step::Evict`]s that fall due there. Under the alternating order the
//!   retained tail of one iteration is exactly the head of the next (all
//!   hits); under a repeating scan the residents are recycled before the
//!   scan comes back around (the cache thrashing of §3.1). *When* an
//!   eviction falls due is the executor's [`ExecutorKind`]: at the update
//!   that overflows the budget, or as soon as it is certain — the same
//!   evictions to the same tiers, only earlier. A later fetch of an
//!   evicted subgroup names that eviction as the write it waits for;
//! * the Eq. 1 flush split (§3.3): every evicted subgroup goes to the
//!   surviving tier furthest behind its share of the iteration's
//!   flushes, sized from the configured ratio or the planner's live
//!   estimates;
//! * migration and drain candidates for the [`AdaptivePlanner`]: only
//!   durable, settled tier copies — never a host-resident subgroup, so
//!   the cache-hit sequence survives every re-plan.
//!
//! The engines only *execute* the plan: the functional engine moves real
//! bytes for each step, the simulated engine advances virtual time. The
//! ledger keeps custody of the frames — an executor takes a hit's or an
//! eviction's by subgroup id and [`SubgroupLedger::rest`]s every frame it
//! holds back — and is generic only in what a host frame holds (a pooled
//! staging buffer there, a frame-semaphore permit here).

use std::collections::VecDeque;

use crate::config::EngineConfig;
use crate::policy::allocation::{allocate_counts_excluding, assign_subgroups, most_behind};
use crate::policy::cache::{ExecutorKind, FramePlan};
use crate::policy::ordering::OrderPolicy;
use crate::policy::replan::{AdaptivePlanner, MigrationStep};
use crate::stats::TierDistribution;

/// How the pass brings a subgroup into a host frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Cache hit: its resting frame ([`SubgroupLedger::take_hit`]).
    Hit,
    /// Fetch the durable copy.
    Fetch {
        /// Tier holding the copy.
        tier: usize,
        /// Step index of the eviction that wrote the copy earlier in this
        /// pass, if one did: the read waits for that write.
        after: Option<usize>,
    },
}

/// One step of an update pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Bring `subgroup` into a host frame.
    Load {
        /// The subgroup.
        subgroup: usize,
        /// Hit or fetch.
        load: Load,
    },
    /// Apply the optimizer step to `subgroup`; its frame then rests.
    Update {
        /// The subgroup.
        subgroup: usize,
    },
    /// Flush resting `subgroup` to `tier` and free its frame.
    Evict {
        /// The subgroup.
        subgroup: usize,
        /// Eq. 1 destination tier.
        tier: usize,
    },
}

/// One iteration's update pass as data (see the module docs): a
/// [`Step::Load`] per position of the order, at most the planning
/// lookahead ahead of its [`Step::Update`], and after each update the
/// [`Step::Evict`]s that fall due there. Executors may issue loads
/// earlier than they stand; every other step runs in order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassPlan {
    /// The steps in plan order.
    pub steps: Vec<Step>,
}

impl PassPlan {
    /// The loads in order, as `(subgroup, load)`.
    pub fn loads(&self) -> impl Iterator<Item = (usize, Load)> + '_ {
        self.steps.iter().filter_map(|step| match *step {
            Step::Load { subgroup, load } => Some((subgroup, load)),
            _ => None,
        })
    }

    /// The evictions in order, as `(subgroup, tier)`.
    pub fn evictions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.steps.iter().filter_map(|step| match *step {
            Step::Evict { subgroup, tier } => Some((subgroup, tier)),
            _ => None,
        })
    }
}

/// Plans one update pass (see the module docs). `home[s]` is subgroup
/// `s`'s tier, `None` while it is host-side; `residents` are those resting
/// in a frame, least recently updated first (one host-side but not
/// resting is lent out, and planned as a hit whose take fails). `rest` is
/// the resting budget, `kind` when evictions fall due, `lookahead` the
/// window depth at which each load is decided, and `flush_targets` the
/// per-tier Eq. 1 flush counts the eviction tiers follow (an excluded
/// tier has none, so the deficit rule never picks it).
// lint:hot-root — once per iteration, ahead of every fetch and flush
pub fn plan_pass(
    order: &[usize],
    home: &[Option<usize>],
    residents: &[usize],
    rest: usize,
    kind: ExecutorKind,
    lookahead: usize,
    flush_targets: &[usize],
) -> PassPlan {
    let lookahead = lookahead.max(1);
    // The lazy schedule decides: LRU over the resting set (the residents
    // the pass started with, then what it updates), evicting at the update
    // that overflows the budget. It fixes every load (a hit, `None`, or
    // the tier to fetch from) and the evictions, in order, as `(update it
    // falls due after, subgroup, tier)`. A pool executor's eviction falls
    // due as soon as its subgroup rests (after its own update, or the
    // first one for a resident the pass started with) and the evictions
    // before it have left: the same sequence, none later.
    let mut tier_of = home.to_vec();
    let mut lru: VecDeque<(usize, usize)> = residents.iter().map(|&r| (r, 0)).collect();
    let mut flushed = vec![0; flush_targets.len()];
    let (mut loads, mut evictions) = (Vec::with_capacity(order.len()), Vec::new());
    let (pool, mut pool_due) = (kind == ExecutorKind::Pool, 0);
    for q in 0..order.len() + lookahead {
        if let Some(p) = q.checked_sub(lookahead).filter(|&p| p < order.len()) {
            lru.extend(order.get(p).map(|&s| (s, p)));
            while let Some((e, since)) = (lru.len() > rest).then(|| lru.pop_front()).flatten() {
                let tier = most_behind(flush_targets, &flushed).unwrap_or(0);
                if let (Some(n), Some(t)) = (flushed.get_mut(tier), tier_of.get_mut(e)) {
                    *n += 1;
                    *t = Some(tier);
                }
                pool_due = pool_due.max(since);
                evictions.push((if pool { pool_due } else { p }, e, tier));
            }
        }
        if let Some(&s) = order.get(q) {
            let tier = tier_of.get(s).copied().flatten();
            // A hit leaves the resting set (under the alternating order,
            // from its most recently updated end).
            if tier.is_none() {
                if let Some(at) = lru.iter().rposition(|&(r, _)| r == s) {
                    lru.remove(at);
                }
            }
            loads.push(tier);
        }
    }
    let mut evictions = evictions.into_iter().peekable();
    let mut evicted_at = vec![None; home.len()];
    let mut steps = Vec::with_capacity(3 * order.len());
    for q in 0..order.len() + lookahead {
        if let Some(p) = q.checked_sub(lookahead).filter(|&p| p < order.len()) {
            steps.extend(order.get(p).map(|&s| Step::Update { subgroup: s }));
            while let Some((_, e, tier)) = evictions.next_if(|&(due, ..)| due == p) {
                if let Some(at) = evicted_at.get_mut(e) {
                    *at = Some(steps.len());
                }
                steps.push(Step::Evict { subgroup: e, tier });
            }
        }
        if let (Some(&s), Some(&tier)) = (order.get(q), loads.get(q)) {
            let after = evicted_at.get(s).copied().flatten();
            let load = tier.map_or(Load::Hit, |tier| Load::Fetch { tier, after });
            steps.push(Step::Load { subgroup: s, load });
        }
    }
    PassPlan { steps }
}

/// Where a subgroup rests between update phases.
pub enum Place<'a, F> {
    /// Retained in this host frame.
    Host(&'a F),
    /// Durable copy on the indexed tier.
    Tier(usize),
}

enum Slot<F> {
    /// Retained in this host frame.
    Host(F),
    /// Offloaded to the indexed tier.
    Tier(usize),
    /// Frame taken by a hit, until it rests again.
    Lent,
}

impl<F> Slot<F> {
    fn tier(&self) -> Option<usize> {
        match self {
            Slot::Tier(t) => Some(*t),
            _ => None,
        }
    }
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
    kind: ExecutorKind,
    slots: Vec<Slot<F>>,
    /// The subgroups in `Slot::Host`, least recently updated first.
    resting: VecDeque<usize>,
}

impl<F> SubgroupLedger<F> {
    /// Places `m` subgroups across the tiers per Eq. 1 (nothing is
    /// retained: the cache warms up during training) and starts the
    /// planner from `bandwidths`. The executor states its `kind`: what
    /// its host frames are, from which the plan derives the one resting
    /// budget, and when its evictions fall due. A configured `tier_ratio`
    /// overrides the bandwidths for the initial placement and every flush
    /// split; its length is the caller's to validate.
    pub fn new(cfg: &EngineConfig, m: usize, bandwidths: Vec<f64>, kind: ExecutorKind) -> Self {
        let assignment = assign_subgroups(m, cfg.tier_ratio.as_deref().unwrap_or(&bandwidths));
        let mut planner = AdaptivePlanner::new(bandwidths, cfg.max_migrations_per_iter);
        planner.attach_trace(&cfg.trace);
        SubgroupLedger {
            plan: FramePlan::new(cfg.host_frames, cfg.cache_retention, kind),
            planner,
            order_policy: cfg.order,
            tier_ratio: cfg.tier_ratio.clone(),
            adaptive: cfg.adaptive_bandwidth,
            kind,
            slots: assignment.into_iter().map(Slot::Tier).collect(),
            resting: VecDeque::new(),
            iterations_done: 0,
        }
    }

    /// Subgroups currently retained in host frames.
    pub fn resident_count(&self) -> usize {
        self.resting.len()
    }

    /// Starts (or, after a failed attempt, restarts) the current
    /// iteration and returns its update pass: the order, the Eq. 1 flush
    /// proportions over the surviving tiers, and every load and eviction
    /// from where the subgroups rest now ([`plan_pass`], at the
    /// pipeline's floor of lookahead).
    ///
    /// # Panics
    ///
    /// Panics if every tier is excluded (callers surface "no surviving
    /// tier" as a typed error before starting an iteration).
    pub fn begin_iteration(&mut self) -> PassPlan {
        let m = self.slots.len();
        let order = self.order_policy.order(self.iterations_done, m);
        let weights = self
            .tier_ratio
            .as_deref()
            .unwrap_or(self.planner.estimates());
        let flush_targets = allocate_counts_excluding(m.max(1), weights, self.planner.excluded());
        let home: Vec<Option<usize>> = self.slots.iter().map(Slot::tier).collect();
        plan_pass(
            &order,
            &home,
            self.resting.make_contiguous(),
            self.plan.rest_frames,
            self.kind,
            self.plan.pipeline_frames,
            &flush_targets,
        )
    }

    /// Takes resting subgroup `idx`'s frame, leaving `into` in its slot.
    fn take(&mut self, idx: usize, into: Slot<F>) -> Option<F> {
        let at = self.resting.iter().rposition(|&r| r == idx)?;
        self.resting.remove(at);
        let slot = self.slots.get_mut(idx)?;
        match std::mem::replace(slot, into) {
            Slot::Host(frame) => Some(frame),
            _ => None,
        }
    }

    /// A [`Load::Hit`]'s frame: subgroup `idx` leaves the resting set,
    /// so nothing can evict it from under the pipeline, until
    /// [`SubgroupLedger::rest`] hands it back. `None` if it does not rest
    /// in a frame.
    // lint:hot-root — once per cache hit per iteration, ahead of its update
    pub fn take_hit(&mut self, idx: usize) -> Option<F> {
        self.take(idx, Slot::Lent)
    }

    /// A [`Step::Evict`]'s frame: subgroup `idx` now lives on `tier`, and
    /// the executor flushes the frame there (fencing any later fetch of
    /// `idx` on that write). `None` if it does not rest in a frame.
    // lint:hot-root — once per eviction per iteration, ahead of its flush
    pub fn evict(&mut self, idx: usize, tier: usize) -> Option<F> {
        self.take(idx, Slot::Tier(tier))
    }

    /// Rests `frame` as subgroup `idx`'s host-resident state, its most
    /// recently updated: an updated frame, a hit the pass never got to,
    /// or the payload of a failed eviction flush (the only surviving copy
    /// of the updated state). Nothing is evicted here; the next pass's
    /// plan re-establishes the budget.
    // lint:hot-root — once per subgroup per iteration, after its update
    pub fn rest(&mut self, idx: usize, frame: F) {
        if let Some(slot) = self.slots.get_mut(idx) {
            if !matches!(std::mem::replace(slot, Slot::Host(frame)), Slot::Host(_)) {
                self.resting.push_back(idx);
            }
        }
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
        let settled = |(idx, slot): (usize, &Slot<F>)| slot.tier().filter(|_| !in_flight(idx));
        self.slots.iter().enumerate().map(settled).collect()
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
            Slot::Host(frame) => Some(Place::Host(frame)),
            Slot::Tier(t) => Some(Place::Tier(*t)),
            Slot::Lent => None,
        }
    }

    /// Distribution of the state across host memory and the tiers
    /// (Fig. 10); `bytes_of` sizes each subgroup's state.
    pub fn tier_distribution(&self, bytes_of: impl Fn(usize) -> u64) -> TierDistribution {
        let mut dist = TierDistribution {
            host_bytes: 0,
            tier_bytes: vec![0; self.planner.excluded().len()],
        };
        for (idx, slot) in self.slots.iter().enumerate() {
            match slot.tier().and_then(|t| dist.tier_bytes.get_mut(t)) {
                Some(bytes) => *bytes += bytes_of(idx),
                None => dist.host_bytes += bytes_of(idx),
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::cache::MIN_PIPELINE_FRAMES;
    use std::collections::HashMap;

    const KINDS: [ExecutorKind; 2] = [ExecutorKind::Lazy, ExecutorKind::Pool];
    const ORDERS: [OrderPolicy; 3] = [
        OrderPolicy::Ascending,
        OrderPolicy::Alternating,
        OrderPolicy::Descending,
    ];

    /// A ledger for an executor of `kind` resting `retain` subgroups over
    /// tiers split by `ratio`; the frame payload is the id of the
    /// subgroup it holds. A lazy executor rests beyond the pipeline, in
    /// `3 + retain` frames; a pool executor in all `retain` of them —
    /// fewer than the pipeline's three only through the plan's budget,
    /// which the pure planner takes as it comes.
    fn ledger_for(
        kind: ExecutorKind,
        order: OrderPolicy,
        m: usize,
        retain: usize,
        ratio: Vec<f64>,
    ) -> SubgroupLedger<usize> {
        let frames = match kind {
            ExecutorKind::Lazy => MIN_PIPELINE_FRAMES + retain,
            ExecutorKind::Pool => retain,
        };
        let mut cfg = EngineConfig::mlp_offload()
            .with_host_frames(frames)
            .with_tier_ratio(ratio.clone());
        cfg.order = order;
        let mut ledger = SubgroupLedger::new(&cfg, m, ratio, kind);
        if retain >= MIN_PIPELINE_FRAMES || kind == ExecutorKind::Lazy {
            assert_eq!(ledger.plan.rest_frames, retain);
        }
        ledger.plan.rest_frames = retain;
        ledger
    }

    fn ledger(
        order: OrderPolicy,
        m: usize,
        retain: usize,
        ratio: Vec<f64>,
    ) -> SubgroupLedger<usize> {
        ledger_for(ExecutorKind::Lazy, order, m, retain, ratio)
    }

    /// A load as the engines compare them: `None` for a hit, else the
    /// tier it fetches from.
    fn loads(plan: &PassPlan) -> Vec<(usize, Option<usize>)> {
        plan.loads()
            .map(|(subgroup, load)| match load {
                Load::Hit => (subgroup, None),
                Load::Fetch { tier, .. } => (subgroup, Some(tier)),
            })
            .collect()
    }

    fn hits(plan: &PassPlan) -> usize {
        plan.loads().filter(|&(_, load)| load == Load::Hit).count()
    }

    /// Executes `plan` step by step, as both engines do, checking every
    /// custody call and fence against the ledger. A pass that does not
    /// `complete` stops short of `end_iteration`, as one whose last
    /// flushes fail does. Returns the plan's evictions as `(updates before
    /// it, subgroup, tier)`.
    fn execute(
        ledger: &mut SubgroupLedger<usize>,
        plan: &PassPlan,
        complete: bool,
    ) -> Vec<(usize, usize, usize)> {
        let m = ledger.slots.len();
        let mut evicted_at = vec![None; m];
        let (mut updated, mut evictions) = (Vec::new(), Vec::new());
        for (at, step) in plan.steps.iter().enumerate() {
            match *step {
                Step::Load {
                    subgroup,
                    load: Load::Hit,
                } => assert_eq!(
                    ledger.take_hit(subgroup),
                    Some(subgroup),
                    "a hit's own frame"
                ),
                Step::Load {
                    subgroup,
                    load: Load::Fetch { tier, after },
                } => {
                    assert!(matches!(ledger.place(subgroup), Some(Place::Tier(t)) if t == tier));
                    assert_eq!(after, evicted_at[subgroup], "subgroup {subgroup}'s fence");
                }
                Step::Update { subgroup } => {
                    ledger.rest(subgroup, subgroup);
                    updated.push(subgroup);
                }
                Step::Evict { subgroup, tier } => {
                    assert_eq!(
                        ledger.evict(subgroup, tier),
                        Some(subgroup),
                        "an eviction's own frame"
                    );
                    assert!(matches!(ledger.place(subgroup), Some(Place::Tier(t)) if t == tier));
                    evicted_at[subgroup] = Some(at);
                    evictions.push((updated.len(), subgroup, tier));
                }
            }
        }
        updated.sort_unstable();
        assert_eq!(updated, (0..m).collect::<Vec<_>>());
        if complete {
            ledger.end_iteration();
        }
        evictions
    }

    /// One planned and executed iteration. Returns the hits and the
    /// evictions in order as `(subgroup, tier)`.
    fn run_iteration(ledger: &mut SubgroupLedger<usize>) -> (usize, Vec<(usize, usize)>) {
        let plan = ledger.begin_iteration();
        let evicted = execute(ledger, &plan, true);
        let hits = hits(&plan);
        assert_eq!(plan.loads().count(), ledger.slots.len());
        (hits, evicted.into_iter().map(|(_, s, t)| (s, t)).collect())
    }

    #[test]
    fn hits_follow_the_closed_form_from_the_cold_start() {
        for order in ORDERS {
            for m in [1usize, 5, 9, 64] {
                for (retain, kind) in [0, 2, m, m + 3]
                    .into_iter()
                    .flat_map(|r| KINDS.map(|k| (r, k)))
                {
                    let mut l = ledger_for(kind, order, m, retain, vec![2.0, 1.0]);
                    for iter in 0..6u64 {
                        let before = l.resident_count();
                        let (hits, evicted) = run_iteration(&mut l);
                        let what = format!("{order:?} m={m} retain={retain} {kind:?} iter={iter}");
                        assert_eq!(hits, order.expected_hits(iter, m, retain), "{what}");
                        assert_eq!(l.resident_count(), retain.min(m), "{what}");
                        // Every fetched subgroup displaces one frame's worth.
                        assert_eq!(evicted.len() + retain.min(m), before + m - hits, "{what}");
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
        // Residents, least recently updated first: 6, 7. A failed attempt
        // hands two eviction payloads back: four over a budget of two.
        run_iteration(&mut l);
        l.rest(0, 0);
        l.rest(1, 1);
        assert_eq!(l.resident_count(), 4);
        // At a window of one, the re-drive's first update re-establishes
        // the budget, oldest first: 6 and 7; the reclaimed payloads stay,
        // as hits.
        l.plan.pipeline_frames = 1;
        let plan = l.begin_iteration();
        let hit = |subgroup| Step::Load {
            subgroup,
            load: Load::Hit,
        };
        let evict = |subgroup| Step::Evict { subgroup, tier: 0 };
        assert_eq!(
            plan.steps[..5],
            [
                hit(0),
                Step::Update { subgroup: 0 },
                evict(6),
                evict(7),
                hit(1)
            ]
        );
        execute(&mut l, &plan, true);
        assert_eq!(l.resident_count(), 2);

        // Payloads the window has not reached leave with the excess, all
        // at the first retirement, and are fetched back later behind the
        // very evictions that wrote them.
        let mut l = ledger(OrderPolicy::Ascending, 8, 2, vec![1.0]);
        run_iteration(&mut l);
        for idx in 3..6 {
            l.rest(idx, idx);
        }
        let plan = l.begin_iteration();
        let evicted = execute(&mut l, &plan, true);
        let due: Vec<(usize, usize)> = evicted.iter().map(|&(at, s, _)| (at, s)).collect();
        assert_eq!(due[..4], [(1, 6), (1, 7), (1, 3), (1, 4)]);
        for idx in 3..6 {
            let fence = plan.steps.iter().find_map(|step| match *step {
                Step::Load {
                    subgroup,
                    load: Load::Fetch { after, .. },
                } if subgroup == idx => Some(after),
                _ => None,
            });
            let at = fence.flatten().expect("a fetch fenced on its eviction");
            assert!(matches!(plan.steps[at], Step::Evict { subgroup, .. } if subgroup == idx));
        }
        assert_eq!(l.resident_count(), 2);
    }

    #[test]
    fn the_foresighted_ledger_is_lru_only_earlier() {
        use mlp_testkit::{cases, DEFAULT_CASES};
        cases(DEFAULT_CASES, |g| {
            let order = ORDERS[g.range(0usize..3)];
            let m = g.range(1usize..65);
            let retain = g.range(0usize..m + 4);
            let lookahead = [1, 3, m][g.range(0usize..3)];
            let ratio =
                [vec![1.0], vec![2.0, 1.0], vec![5.3, 3.6, 1.0]][g.range(0usize..3)].clone();
            let what = format!("{order:?} m={m} retain={retain} lookahead={lookahead} {ratio:?}");
            // Both executor kinds at the same resting budget, however
            // their frames make it up.
            let mut lazy = ledger_for(ExecutorKind::Lazy, order, m, retain, ratio.clone());
            let mut pool = ledger_for(ExecutorKind::Pool, order, m, retain, ratio);
            lazy.plan.pipeline_frames = lookahead;
            pool.plan.pipeline_frames = lookahead;

            // One pass on both ledgers from the same state: the same
            // loads, the same evictions to the same tiers and none later,
            // the same placement afterwards, the budget re-established.
            let twin_pass = |lazy: &mut SubgroupLedger<usize>,
                             pool: &mut SubgroupLedger<usize>,
                             complete: bool| {
                let (late_plan, early_plan) = (lazy.begin_iteration(), pool.begin_iteration());
                assert_eq!(loads(&early_plan), loads(&late_plan), "{what}: loads");
                let late = execute(lazy, &late_plan, complete);
                let early = execute(pool, &early_plan, complete);
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
                    assert!(e.0 <= l.0, "{what}: {e:?} due after the lazy {l:?}");
                }
                for idx in 0..m {
                    let tier_of = |l: &SubgroupLedger<usize>| match l.place(idx) {
                        Some(Place::Tier(t)) => Some(t),
                        Some(Place::Host(_)) => None,
                        None => panic!("{what}: subgroup {idx} still lent out"),
                    };
                    assert_eq!(tier_of(pool), tier_of(lazy), "{what}: subgroup {idx}");
                }
                assert!(pool.resident_count() <= retain, "{what}: over budget");
                (hits(&early_plan), early, late)
            };

            for iter in 0..6u64 {
                let (hits, early, late) = twin_pass(&mut lazy, &mut pool, true);
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
                // update: `retain` updates before LRU forces it.
                if iter == 0 {
                    assert_eq!(early.len(), m.saturating_sub(retain), "{what}");
                    for (at, (e, l)) in early.iter().zip(&late).enumerate() {
                        assert_eq!((e.0, l.0), (at + 1, at + 1 + retain), "{what}");
                    }
                }
            }

            // A pass whose last flushes fail: their payloads come back
            // over budget, and the re-drive of the same iteration starts
            // with carried-over residents, some of them hits: both kinds
            // must evict the same ones in the same order.
            let (_, early, late) = twin_pass(&mut lazy, &mut pool, false);
            assert_eq!(early.len(), late.len(), "{what}");
            let failed = g.range(0usize..late.len().min(8) + 1);
            for &(_, subgroup, _) in late.iter().rev().take(failed) {
                lazy.rest(subgroup, subgroup);
                pool.rest(subgroup, subgroup);
            }
            twin_pass(&mut lazy, &mut pool, true);
            twin_pass(&mut lazy, &mut pool, true);
        });
    }

    /// A pool executor's eviction leaves right after its subgroup's own
    /// update even while hits carried into the pass still wait for their
    /// floor-deep load: the plan already knows they are hits. Held back
    /// until the last of them is loaded, the updated hits would keep their
    /// frames and starve a window deeper than the floor.
    #[test]
    fn pool_evictions_follow_their_own_update_past_pending_hits() {
        let (m, retain) = (16, 6);
        let mut l = ledger_for(
            ExecutorKind::Pool,
            OrderPolicy::Alternating,
            m,
            retain,
            vec![1.0],
        );
        run_iteration(&mut l);
        let plan = l.begin_iteration();
        assert_eq!(hits(&plan), retain);
        let order = OrderPolicy::Alternating.order(1, m);
        let evicted = execute(&mut l, &plan, true);
        let due: Vec<(usize, usize)> = evicted.iter().map(|&(at, s, _)| (at, s)).collect();
        let own_update: Vec<(usize, usize)> = (order.iter().enumerate())
            .take(m - retain)
            .map(|(p, &s)| (p + 1, s))
            .collect();
        assert_eq!(due, own_update);
    }

    /// Belady's MIN over the reference string `refs` with `capacity`
    /// resting slots: on each miss the cache keeps whichever entries —
    /// the newcomer included — are used again soonest. No retention
    /// policy, however foresighted, gets more hits.
    fn belady_min_hits(refs: &[usize], capacity: usize) -> usize {
        let mut next_use = vec![usize::MAX; refs.len()];
        let mut seen = HashMap::new();
        for (t, &r) in refs.iter().enumerate().rev() {
            if let Some(&later) = seen.get(&r) {
                next_use[t] = later;
            }
            seen.insert(r, t);
        }
        let mut cache: HashMap<usize, usize> = HashMap::new();
        let mut hits = 0;
        for (t, &r) in refs.iter().enumerate() {
            hits += usize::from(cache.contains_key(&r));
            cache.insert(r, next_use[t]);
            if cache.len() > capacity {
                let victim = cache
                    .iter()
                    .max_by_key(|&(&k, &next)| (next, k))
                    .map(|(&k, _)| k);
                cache.remove(&victim.unwrap());
            }
        }
        hits
    }

    /// Item 10's ceiling: the plan's hits over several iterations from
    /// the cold start, against Belady's MIN over the same reference
    /// string (the concatenated orders) and resting budget. The
    /// alternating order reaches it exactly, at every shard size and
    /// budget and for both executor kinds; a repeating scan that
    /// outruns its budget plus the window falls short of it.
    #[test]
    fn alternating_hits_reach_the_belady_min_ceiling() {
        const ITERS: u64 = 6;
        for m in [1usize, 2, 5, 9, 32, 64] {
            for retain in [0, 1, 2, 3, m / 2, m.saturating_sub(1), m, m + 3] {
                for order in ORDERS {
                    for kind in KINDS {
                        let mut l = ledger_for(kind, order, m, retain, vec![2.0, 1.0]);
                        let (mut refs, mut hits) = (Vec::new(), 0);
                        for iter in 0..ITERS {
                            refs.extend(order.order(iter, m));
                            hits += run_iteration(&mut l).0;
                        }
                        let optimal = belady_min_hits(&refs, retain);
                        let what = format!("{order:?} m={m} retain={retain} {kind:?}");
                        assert!(hits <= optimal, "{what}: {hits} hits beat MIN's {optimal}");
                        if order == OrderPolicy::Alternating {
                            assert_eq!(hits, optimal, "{what}");
                        } else if retain > 0 && m > retain + MIN_PIPELINE_FRAMES {
                            assert!(hits < optimal, "{what}: {hits} of MIN's {optimal}");
                        }
                    }
                }
            }
        }
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
        let mut l: SubgroupLedger<usize> =
            SubgroupLedger::new(&cfg, 8, vec![10.0, 1.0], ExecutorKind::Lazy);
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
