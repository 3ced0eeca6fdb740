//! The per-worker subgroup ledger: the one owner of *where every
//! subgroup's optimizer state lives* and of the decisions that move it.
//!
//! Each subgroup has exactly one slot — resident in a host frame, placed
//! on a third-level tier, or lent out to its executor (a hit's frame, or
//! the caller's state a pool executor is born holding) — so "resting"
//! and "holds the frame" are one fact. A host-side slot also records the
//! tier of the subgroup's newest durable copy ([`Durable`]): the copy its
//! next eviction supersedes, which the executor retires once the new one
//! is durable, so a subgroup has at most one. On top of the slot table the
//! ledger runs the paper's scheduling policy, once, for both engines: at
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
//!
//! What a failed, lost or late tier op does to a subgroup is one table,
//! [`SubgroupLedger::settle`]: the executor only executes the [`Action`]
//! it returns, and a re-driven iteration ends bit-identical to one that
//! never failed.

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

    /// The fetches an executor may issue before the pass begins, as
    /// `(subgroup, tier)`: those of the leading loads, up to the first
    /// that reads a copy the pass itself writes, dealt one per tier in
    /// turn. A fetch's turn is the count of earlier leading fetches on its
    /// tier, and the list runs by turn, then plan order, so any prefix of
    /// it gives each tier's queue its head reads: a tier's second read
    /// does not wait behind another tier's fourth. Each tier still gets
    /// its own reads in plan order.
    pub fn leading_fetches(&self) -> impl Iterator<Item = (usize, usize)> {
        let leading = |(s, load)| match load {
            Load::Fetch { after: Some(_), .. } => None,
            load => Some((s, load)),
        };
        let mut turns: Vec<usize> = Vec::new();
        let mut fetches: Vec<(usize, usize, usize)> = (self.loads().map_while(leading))
            .filter_map(|(s, load)| match load {
                Load::Fetch { tier, .. } => {
                    turns.resize(turns.len().max(tier + 1), 0);
                    let turn = turns.get_mut(tier).map_or(0, |n| std::mem::replace(n, *n + 1));
                    Some((turn, s, tier))
                }
                Load::Hit => None,
            })
            .collect();
        // Stable: within a turn, plan order.
        fetches.sort_by_key(|&(turn, ..)| turn);
        fetches.into_iter().map(|(_, s, tier)| (s, tier))
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

/// The newest durable copy of a host-side subgroup: the one its next
/// eviction supersedes ([`Action::Retire`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durable {
    /// On the indexed tier.
    On(usize),
    /// None this run has written or read: a born subgroup. A tier may
    /// still hold one that an earlier run left under its key.
    Unknown,
}

impl Durable {
    /// The tiers out of `tiers` that can hold a copy an eviction to
    /// `tier` supersedes: its old tier if that is another, or every other
    /// tier when the copy is unknown.
    pub fn superseded_by(self, tier: usize, tiers: usize) -> impl Iterator<Item = usize> {
        let range = match self {
            Durable::On(t) => t..t + 1,
            Durable::Unknown => 0..tiers,
        };
        range.filter(move |&t| t != tier)
    }
}

/// An op of an update pass, as [`SubgroupLedger::settle`] takes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierOp {
    /// A load's reads of the state (and of the gradients beside it).
    Fetch,
    /// The optimizer step, applied in a host frame.
    Update,
    /// An eviction's write of the state.
    Evict,
    /// A write of the host gradients next to the state.
    GradFlush,
    /// A delete of the copy a landed eviction superseded.
    Retire,
}

/// How an op settled.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome<F> {
    /// It did what it was asked.
    Landed,
    /// It failed, handing back its payload (a write's frame), or without
    /// it when a backend panic lost it.
    Failed(Option<F>),
    /// The deadline answered it while it still runs.
    Late,
}

/// What the executor does about a settled op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Nothing more.
    Done,
    /// Delete the copies `superseded` names ([`Durable::superseded_by`])
    /// off every tier but `tier`, where the landed eviction put it.
    Retire {
        /// The new copy's tier.
        tier: usize,
        /// The copy it superseded.
        superseded: Durable,
    },
    /// Keep the op and settle it before anything touches its object
    /// again: the next call fails `TimedOut` while it still runs.
    Carry,
    /// Nothing holds the state any more: later passes fail at its load.
    Strand,
}

/// A subgroup's facts for the open iteration: whether its state carries
/// the iteration's gradient; whether its newest durable copy does
/// (`Some(false)`: it holds the start; `None`: neither, being older or
/// absent); and the copy an eviction in flight supersedes.
#[derive(Clone, Copy)]
struct Progress {
    updated: bool,
    copy_updated: Option<bool>,
    flushing: Option<Durable>,
}

/// Where a subgroup rests between update phases.
pub enum Place<'a, F> {
    /// Retained in this host frame.
    Host(&'a F),
    /// Durable copy on the indexed tier.
    Tier(usize),
}

enum Slot<F> {
    /// Retained in this host frame, over its newest durable copy.
    Host(F, Durable),
    /// Offloaded to the indexed tier: its one durable copy.
    Tier(usize),
    /// Host-side outside the resting set: a frame taken by a hit, until
    /// it rests again, or a subgroup born in the executor's own memory,
    /// until its first frame rests ([`SubgroupLedger::take_born`]).
    Lent(Durable),
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
    /// Completed iterations; a checkpoint restore sets it, so the
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
    /// Each subgroup's facts while an iteration is open, none between.
    progress: Vec<Progress>,
}

impl<F> SubgroupLedger<F> {
    /// Places `m` subgroups across the tiers per Eq. 1 and starts the
    /// planner from `bandwidths`. The executor states its `kind`: what
    /// its host frames are, from which the plan derives the one resting
    /// budget, and when its evictions fall due. A configured `tier_ratio`
    /// overrides the bandwidths for the initial placement and every flush
    /// split; its length is the caller's to validate.
    ///
    /// Nothing rests yet. A lazy executor starts cold: its cache warms up
    /// during training. A pool executor is born in host memory: it takes
    /// every subgroup out of the placement with
    /// [`SubgroupLedger::take_born`] instead of offloading it.
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
            progress: Vec::new(),
            iterations_done: 0,
        }
    }

    /// Subgroups currently retained in host frames.
    pub fn resident_count(&self) -> usize {
        self.resting.len()
    }

    /// Whether an iteration has begun and not ended: between update
    /// phases, a failed attempt awaits its re-drive.
    pub fn in_progress(&self) -> bool {
        !self.progress.is_empty()
    }

    /// Starts (or, after a failed attempt, restarts) the current
    /// iteration and returns its update pass
    /// ([`SubgroupLedger::upcoming_pass`]). A fresh start resets the facts
    /// [`SubgroupLedger::settle`] keeps: no state is updated yet.
    pub fn begin_iteration(&mut self) -> PassPlan {
        if self.progress.is_empty() {
            let fresh = |slot: &Slot<F>| Progress {
                updated: false,
                copy_updated: slot.tier().map(|_| false),
                flushing: None,
            };
            self.progress = self.slots.iter().map(fresh).collect();
        }
        self.upcoming_pass()
    }

    /// The current iteration's update pass, without starting it: the
    /// order, the Eq. 1 flush proportions over the surviving tiers, and
    /// every load and eviction from where the subgroups rest now
    /// ([`plan_pass`], at the pipeline's floor of lookahead). Between
    /// iterations, that is the next one's.
    ///
    /// # Panics
    ///
    /// Panics if every tier is excluded (callers surface "no surviving
    /// tier" as a typed error before planning a pass).
    pub fn upcoming_pass(&mut self) -> PassPlan {
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

    /// A pool executor is born with every subgroup host-side, where the
    /// caller handed its state over: each slot leaves the Eq. 1 placement
    /// and is lent out, as a hit's is, outside the resting set. The first
    /// pass therefore plans every load as a hit and evicts each subgroup
    /// only after its update: a lazy executor's cold evictions, to the
    /// same tiers. The executor serves each such hit from the state it
    /// holds until it [`SubgroupLedger::rest`]s the subgroup's first frame;
    /// the first durable copy is the first eviction. Called once, before
    /// the first pass; a lazy executor never calls it and starts cold.
    pub fn take_born(&mut self) {
        let born = || Slot::Lent(Durable::Unknown);
        self.slots.iter_mut().for_each(|slot| *slot = born());
    }

    /// Takes resting subgroup `idx`'s frame and the durable copy under it,
    /// leaving `into(copy)` in its slot.
    fn take(&mut self, idx: usize, into: impl FnOnce(Durable) -> Slot<F>) -> Option<(F, Durable)> {
        let at = self.resting.iter().rposition(|&r| r == idx)?;
        let slot = self.slots.get_mut(idx)?;
        let Slot::Host(_, copy) = *slot else {
            return None;
        };
        self.resting.remove(at);
        match std::mem::replace(slot, into(copy)) {
            Slot::Host(frame, copy) => Some((frame, copy)),
            _ => None,
        }
    }

    /// A [`Load::Hit`]'s frame: subgroup `idx` leaves the resting set,
    /// so nothing can evict it from under the pipeline, until
    /// [`SubgroupLedger::rest`] hands it back. `None` if it does not rest
    /// in a frame.
    // lint:hot-root — once per cache hit per iteration, ahead of its update
    pub fn take_hit(&mut self, idx: usize) -> Option<F> {
        self.take(idx, Slot::Lent).map(|(frame, _)| frame)
    }

    /// A [`Step::Evict`]'s frame: subgroup `idx` now lives on `tier`, and
    /// the executor flushes the frame there (fencing any later fetch of
    /// `idx` on that write). `None` if it does not rest in a frame. The
    /// copy the eviction supersedes stays the newest durable one until
    /// the write settles ([`SubgroupLedger::settle`]).
    // lint:hot-root — once per eviction per iteration, ahead of its flush
    pub fn evict(&mut self, idx: usize, tier: usize) -> Option<F> {
        let (frame, superseded) = self.take(idx, |_| Slot::Tier(tier))?;
        if let Some(p) = self.progress.get_mut(idx) {
            p.flushing = Some(superseded);
        }
        Some(frame)
    }

    /// Whether subgroup `idx`'s state carries this iteration's gradient:
    /// a re-driven pass re-emits its FP16 image instead of applying the
    /// gradient again, and fetches no gradient for it.
    pub fn carries_update(&self, idx: usize) -> bool {
        self.progress.get(idx).is_some_and(|p| p.updated)
    }

    /// The failure table: how `op` of subgroup `idx` settling as
    /// `outcome` changes the subgroup's facts and slot, and what the
    /// executor does next. No I/O.
    ///
    /// | op | outcome | effect | action |
    /// |---|---|---|---|
    /// | update | landed | the state carries the gradient | done |
    /// | evict | landed | the new copy holds what the state does | retire the superseded copy |
    /// | evict | failed, payload back | back onto the superseded copy, the payload rests | done |
    /// | evict | payload lost | back onto the superseded copy, which is now the state, if it holds the iteration's start or update; else no state | done, or strand |
    /// | evict | late | none yet | carry; its settlement takes a row above |
    /// | retire | late | none yet | carry: it must not land after a later write of the key |
    /// | retire | failed or lost | none: a leaked copy, not an error | done |
    /// | grad flush | late | none yet | carry: it must not land after a later write of the key |
    /// | fetch, grad flush | failed or lost | none: the copy and the host gradients stay | done |
    ///
    /// An update is applied in a frame off the executor's thread too (the
    /// functional engine's I/O workers), but it is only proposed there:
    /// the executor settles it when it takes the frame in plan order, and
    /// an unwind that drops the frame first drops the update with it.
    pub fn settle(&mut self, idx: usize, op: TierOp, outcome: Outcome<F>) -> Action {
        let p = match (op, &outcome) {
            (TierOp::Evict | TierOp::Retire | TierOp::GradFlush, Outcome::Late) => {
                return Action::Carry
            }
            (TierOp::Update, Outcome::Landed) | (TierOp::Evict, _) => self.progress.get_mut(idx),
            _ => return Action::Done,
        };
        let Some(p) = p else {
            return Action::Done;
        };
        if op == TierOp::Update {
            p.updated = true;
            return Action::Done;
        }
        let Some(superseded) = p.flushing.take() else {
            return Action::Done;
        };
        match outcome {
            Outcome::Landed => {
                p.copy_updated = Some(p.updated);
                let tier = self.slots.get(idx).and_then(Slot::tier);
                return tier.map_or(Action::Done, |tier| Action::Retire { tier, superseded });
            }
            Outcome::Failed(Some(frame)) => {
                self.fall_back(idx, superseded);
                self.rest(idx, frame);
            }
            _ => match p.copy_updated {
                Some(updated) => {
                    p.updated = updated;
                    self.fall_back(idx, superseded);
                }
                None => {
                    self.fall_back(idx, Durable::Unknown);
                    return Action::Strand;
                }
            },
        }
        Action::Done
    }

    /// An eviction of subgroup `idx` that did not land: back onto
    /// `copy`'s tier, or lent out with no frame when it has none.
    fn fall_back(&mut self, idx: usize, copy: Durable) {
        if let Some(slot @ Slot::Tier(_)) = self.slots.get_mut(idx) {
            *slot = match copy {
                Durable::On(t) => Slot::Tier(t),
                Durable::Unknown => Slot::Lent(copy),
            };
        }
    }

    /// Rests `frame` as subgroup `idx`'s host-resident state, its most
    /// recently updated: an updated frame, a hit the pass never got to,
    /// or the payload of a failed eviction flush (the only surviving copy
    /// of the updated state). Its newest durable copy is the one it
    /// was fetched from, or the one it had. Nothing is evicted here; the
    /// next pass's plan re-establishes the budget.
    // lint:hot-root — once per subgroup per iteration, after its update
    pub fn rest(&mut self, idx: usize, frame: F) {
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        let copy = match *slot {
            Slot::Tier(t) => Durable::On(t),
            Slot::Host(_, copy) | Slot::Lent(copy) => copy,
        };
        let was = std::mem::replace(slot, Slot::Host(frame, copy));
        if !matches!(was, Slot::Host(..)) {
            self.resting.push_back(idx);
        }
    }

    /// Ends a successful iteration: folds the planner's observations into
    /// its estimates when adaptive (the next split and migration plan
    /// derive from them) and advances the order.
    pub fn end_iteration(&mut self) {
        self.progress.clear();
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
    /// or while its slot is lent out: an update pass holds its frame, or
    /// it is born and the first pass has not rested it yet.
    pub fn place(&self, idx: usize) -> Option<Place<'_, F>> {
        match self.slots.get(idx)? {
            Slot::Host(frame, _) => Some(Place::Host(frame)),
            Slot::Tier(t) => Some(Place::Tier(*t)),
            Slot::Lent(_) => None,
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

    /// A pool executor is born with every subgroup host-side and none
    /// resting, with retention and without, whatever its starting
    /// iteration: its first pass hits all of them in that iteration's
    /// order and evicts exactly as a lazy executor's cold pass at the same
    /// budget does, to the same tiers.
    #[test]
    fn a_pool_ledger_is_born_with_every_subgroup_host_side() {
        let m = 8;
        for (iterations, retention) in [(0, true), (1, true), (0, false)] {
            let mut cfg = EngineConfig::mlp_offload()
                .with_host_frames(5)
                .with_tier_ratio(vec![2.0, 1.0]);
            cfg.cache_retention = retention;
            let what = format!("after {iterations} iterations, retention {retention}");
            let ledger = |kind| SubgroupLedger::<usize>::new(&cfg, m, vec![2.0, 1.0], kind);
            let (mut l, mut cold) = (ledger(ExecutorKind::Pool), ledger(ExecutorKind::Lazy));
            (l.iterations_done, cold.iterations_done) = (iterations, iterations);
            cold.plan.rest_frames = l.plan.rest_frames;
            l.take_born();
            for s in 0..m {
                assert!(l.place(s).is_none(), "{what}: {s} is lent until it rests");
            }
            assert_eq!(l.resident_count(), 0, "{what}");
            assert_eq!(l.tier_distribution(|_| 1).host_bytes, m as u64, "{what}");
            let plan = l.begin_iteration();
            let order: Vec<usize> = plan.loads().map(|(s, _)| s).collect();
            assert_eq!(order, cfg.order.order(iterations, m), "{what}");
            assert_eq!(hits(&plan), m, "{what}");
            let cold_plan = cold.begin_iteration();
            assert_eq!(hits(&cold_plan), 0, "{what}: the lazy ledger starts cold");
            let evictions = |p: &PassPlan| p.evictions().collect::<Vec<_>>();
            assert_eq!(evictions(&plan), evictions(&cold_plan), "{what}");
            assert_eq!(plan.evictions().count(), m - l.plan.rest_frames, "{what}");
            // The executor serves a born hit from its own memory: there is
            // no frame to take until it rests one.
            for (s, _) in plan.loads() {
                assert!(l.take_hit(s).is_none(), "{what}: {s} rests");
                l.rest(s, s);
            }
            execute(&mut l, &plan, true);
            execute(&mut cold, &cold_plan, true);
            for s in 0..m {
                let tier = |l: &SubgroupLedger<usize>| match l.place(s) {
                    Some(Place::Tier(t)) => Some(t),
                    _ => None,
                };
                assert_eq!(tier(&l), tier(&cold), "{what}: subgroup {s}");
            }
            assert_eq!(l.resident_count(), l.plan.rest_frames.min(m), "{what}");
        }
    }

    /// Each eviction reports the durable copy it supersedes once its
    /// write lands: none known for a born subgroup, else the tier its
    /// last frame was fetched from or the copy a hit rested over. A
    /// failed eviction falls back to it.
    #[test]
    fn evictions_report_the_copy_they_supersede() {
        let cfg = EngineConfig::mlp_offload()
            .with_host_frames(2)
            .with_tier_ratio(vec![1.0, 1.0]);
        let mut l: SubgroupLedger<usize> =
            SubgroupLedger::new(&cfg, 4, vec![1.0, 1.0], ExecutorKind::Pool);
        l.take_born();
        l.begin_iteration();
        for s in 0..4 {
            l.rest(s, s);
        }
        let landed = |l: &mut SubgroupLedger<usize>, s| l.settle(s, TierOp::Evict, Outcome::Landed);
        let retire = |tier, superseded| Action::Retire { tier, superseded };
        assert_eq!(l.evict(0, 1), Some(0));
        assert_eq!(landed(&mut l, 0), retire(1, Durable::Unknown));
        let others: Vec<usize> = Durable::Unknown.superseded_by(1, 3).collect();
        assert_eq!(others, [0, 2]);
        // Fetched back from tier 1, updated and rested: over its copy there.
        l.rest(0, 0);
        assert_eq!(l.take_hit(0), Some(0));
        l.rest(0, 0);
        assert_eq!(l.evict(0, 0), Some(0));
        // The write to tier 0 failed: back on tier 1, the payload on top.
        let failed = l.settle(0, TierOp::Evict, Outcome::Failed(Some(0)));
        assert_eq!(failed, Action::Done);
        assert!(matches!(l.place(0), Some(Place::Host(&0))));
        assert_eq!(l.evict(0, 0), Some(0));
        assert_eq!(landed(&mut l, 0), retire(0, Durable::On(1)));
        assert_eq!(Durable::On(1).superseded_by(0, 3).collect::<Vec<_>>(), [1]);
        assert_eq!(Durable::On(0).superseded_by(0, 3).count(), 0);
        // A born subgroup's failed first eviction rests over no copy again.
        assert_eq!(l.evict(1, 0), Some(1));
        l.settle(1, TierOp::Evict, Outcome::Failed(Some(1)));
        assert!(matches!(l.place(1), Some(Place::Host(&1))));
        assert_eq!(l.evict(1, 1), Some(1));
        assert_eq!(landed(&mut l, 1), retire(1, Durable::Unknown));
        // Only an evicted slot falls back: a resting one is left alone.
        assert_eq!(
            l.settle(2, TierOp::Evict, Outcome::Failed(Some(2))),
            Action::Done
        );
        assert!(matches!(l.place(2), Some(Place::Host(&2))));
    }

    /// A lazy ledger of four subgroups over two tiers, mid-iteration: each
    /// fetched into a frame from its tier, which it returns.
    fn fetched() -> (SubgroupLedger<usize>, Vec<usize>) {
        let mut l = ledger(OrderPolicy::Ascending, 4, 4, vec![1.0, 1.0]);
        l.begin_iteration();
        let home = (0..4)
            .map(|s| match l.place(s) {
                Some(Place::Tier(t)) => t,
                _ => panic!("subgroup {s} starts on no tier"),
            })
            .collect();
        for s in 0..4 {
            l.rest(s, s);
        }
        (l, home)
    }

    fn tier_of(l: &SubgroupLedger<usize>, s: usize) -> Option<usize> {
        match l.place(s) {
            Some(Place::Tier(t)) => Some(t),
            _ => None,
        }
    }

    #[test]
    fn settle_an_applied_update_and_the_state_carries_the_gradient() {
        let (mut l, _) = fetched();
        assert!(!l.carries_update(0));
        assert_eq!(l.settle(0, TierOp::Update, Outcome::Landed), Action::Done);
        assert!(l.carries_update(0));
        assert!(!l.carries_update(1));
    }

    #[test]
    fn settle_a_landed_eviction_and_retire_the_copy_it_superseded() {
        let (mut l, home) = fetched();
        l.settle(0, TierOp::Update, Outcome::Landed);
        let to = 1 - home[0];
        assert_eq!(l.evict(0, to), Some(0));
        let superseded = Durable::On(home[0]);
        let landed = l.settle(0, TierOp::Evict, Outcome::Landed);
        assert_eq!(
            landed,
            Action::Retire {
                tier: to,
                superseded
            }
        );
        assert_eq!(tier_of(&l, 0), Some(to));
        // The new copy carries the update: losing a later eviction's
        // payload falls back to it, updated.
        l.rest(0, 0);
        l.evict(0, home[0]);
        l.settle(0, TierOp::Evict, Outcome::Failed(None));
        assert_eq!(tier_of(&l, 0), Some(to));
        assert!(l.carries_update(0));
    }

    #[test]
    fn settle_a_failed_eviction_and_rest_its_payload_over_the_superseded_copy() {
        let (mut l, home) = fetched();
        l.settle(2, TierOp::Update, Outcome::Landed);
        l.evict(2, 1 - home[2]);
        let failed = l.settle(2, TierOp::Evict, Outcome::Failed(Some(2)));
        assert_eq!(failed, Action::Done);
        assert!(matches!(l.place(2), Some(Place::Host(&2))));
        assert!(l.carries_update(2), "the payload is the updated state");
        // It still rests over its old copy, which a landed eviction retires.
        l.evict(2, 1 - home[2]);
        let landed = l.settle(2, TierOp::Evict, Outcome::Landed);
        let superseded = Durable::On(home[2]);
        assert_eq!(
            landed,
            Action::Retire {
                tier: 1 - home[2],
                superseded
            }
        );
    }

    #[test]
    fn settle_a_lost_payload_onto_a_copy_of_the_iteration() {
        // The copy the iteration started from: the gradient applies again.
        let (mut l, home) = fetched();
        l.settle(1, TierOp::Update, Outcome::Landed);
        l.evict(1, 1 - home[1]);
        assert_eq!(
            l.settle(1, TierOp::Evict, Outcome::Failed(None)),
            Action::Done
        );
        assert_eq!(tier_of(&l, 1), Some(home[1]));
        assert!(!l.carries_update(1));
        // A copy an earlier eviction of the pass landed before the update.
        let (mut l, home) = fetched();
        l.evict(3, 1 - home[3]);
        l.settle(3, TierOp::Evict, Outcome::Landed);
        l.rest(3, 3);
        l.settle(3, TierOp::Update, Outcome::Landed);
        l.evict(3, home[3]);
        l.settle(3, TierOp::Evict, Outcome::Failed(None));
        assert_eq!(tier_of(&l, 3), Some(1 - home[3]));
        assert!(!l.carries_update(3));
    }

    #[test]
    fn settle_a_lost_payload_with_no_copy_of_the_iteration_and_strand_the_subgroup() {
        // Resting when the iteration began: its copy is older.
        let (mut l, home) = fetched();
        l.end_iteration();
        l.begin_iteration();
        l.settle(0, TierOp::Update, Outcome::Landed);
        l.evict(0, home[0]);
        assert_eq!(
            l.settle(0, TierOp::Evict, Outcome::Failed(None)),
            Action::Strand
        );
        assert!(l.place(0).is_none(), "stranded, with no frame to take");
        assert_eq!(l.take_hit(0), None);
        // Born: it has no copy at all.
        let mut l = ledger_for(ExecutorKind::Pool, OrderPolicy::Ascending, 4, 4, vec![1.0]);
        l.take_born();
        l.begin_iteration();
        l.rest(0, 0);
        l.evict(0, 0);
        assert_eq!(
            l.settle(0, TierOp::Evict, Outcome::Failed(None)),
            Action::Strand
        );
        assert!(l.place(0).is_none());
    }

    #[test]
    fn settle_a_late_eviction_by_carrying_it_to_its_settlement() {
        for landed in [true, false] {
            let (mut l, home) = fetched();
            l.settle(0, TierOp::Update, Outcome::Landed);
            let to = 1 - home[0];
            l.evict(0, to);
            // Carried for as long as every call that asks finds it running.
            for _ in 0..2 {
                assert_eq!(l.settle(0, TierOp::Evict, Outcome::Late), Action::Carry);
                assert_eq!(tier_of(&l, 0), Some(to));
            }
            // Its settlement then takes the landed or the failed row.
            if landed {
                let superseded = Durable::On(home[0]);
                let action = l.settle(0, TierOp::Evict, Outcome::Landed);
                assert_eq!(
                    action,
                    Action::Retire {
                        tier: to,
                        superseded
                    }
                );
                assert_eq!(tier_of(&l, 0), Some(to));
            } else {
                let action = l.settle(0, TierOp::Evict, Outcome::Failed(Some(0)));
                assert_eq!(action, Action::Done);
                assert!(matches!(l.place(0), Some(Place::Host(&0))));
            }
            assert!(l.carries_update(0), "landed={landed}");
        }
    }

    #[test]
    fn settle_a_late_delete_or_gradient_flush_by_carrying_it() {
        for op in [TierOp::Retire, TierOp::GradFlush] {
            let (mut l, _) = fetched();
            assert_eq!(l.settle(0, op, Outcome::Late), Action::Carry);
            assert!(matches!(l.place(0), Some(Place::Host(&0))));
            // Between iterations too: a migration retires its source copy.
            l.end_iteration();
            assert_eq!(l.settle(0, op, Outcome::Late), Action::Carry);
            // Its settlement, whichever way it went, changes nothing.
            for outcome in [Outcome::Landed, Outcome::Failed(None)] {
                assert_eq!(l.settle(0, op, outcome), Action::Done);
            }
            assert!(matches!(l.place(0), Some(Place::Host(&0))));
        }
    }

    #[test]
    fn settle_a_failed_delete_as_a_leak_not_an_error() {
        let (mut l, _) = fetched();
        for outcome in [Outcome::Failed(None), Outcome::Landed] {
            assert_eq!(l.settle(0, TierOp::Retire, outcome), Action::Done);
        }
        assert!(matches!(l.place(0), Some(Place::Host(&0))));
        assert!(!l.carries_update(0));
    }

    #[test]
    fn settle_a_failed_fetch_or_gradient_flush_and_nothing_changes() {
        let (mut l, home) = fetched();
        l.evict(1, home[1]);
        l.settle(1, TierOp::Evict, Outcome::Landed);
        for (op, outcome) in [
            (TierOp::Fetch, Outcome::Failed(None)),
            (TierOp::Fetch, Outcome::Late),
            (TierOp::GradFlush, Outcome::Failed(None)),
        ] {
            assert_eq!(l.settle(1, op, outcome), Action::Done);
            assert_eq!(tier_of(&l, 1), Some(home[1]));
            assert!(!l.carries_update(1));
        }
    }

    /// A fresh iteration forgets the facts; a re-drive of a failed one
    /// keeps them.
    #[test]
    fn a_redrive_keeps_the_facts_a_fresh_iteration_resets() {
        let (mut l, _) = fetched();
        assert!(l.in_progress());
        l.settle(0, TierOp::Update, Outcome::Landed);
        l.begin_iteration();
        assert!(l.carries_update(0), "the re-drive re-emits it");
        l.end_iteration();
        assert!(!l.in_progress());
        l.begin_iteration();
        assert!(!l.carries_update(0));
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

    /// A plan of `loads`, each `(subgroup, tier)` of a fetch or `None` for
    /// a hit, with every fetch fenced on an eviction from `fenced` on.
    fn plan_of(loads: &[Option<(usize, usize)>], fenced: usize) -> PassPlan {
        let steps = (loads.iter().enumerate())
            .map(|(at, load)| match *load {
                Some((subgroup, tier)) => Step::Load {
                    subgroup,
                    load: Load::Fetch {
                        tier,
                        after: (at >= fenced).then_some(0),
                    },
                },
                None => Step::Load {
                    subgroup: 100 + at,
                    load: Load::Hit,
                },
            })
            .collect();
        PassPlan { steps }
    }

    #[test]
    fn leading_fetches_deal_one_read_per_tier_in_turn() {
        let fetches = |loads: &[Option<(usize, usize)>], fenced| {
            plan_of(loads, fenced).leading_fetches().collect::<Vec<_>>()
        };
        let (n, p) = (0, 1);
        // One tier keeps plan order, hits skipped.
        let one = [Some((4, n)), None, Some((3, n)), Some((2, n)), None];
        assert_eq!(fetches(&one, usize::MAX), vec![(4, n), (3, n), (2, n)]);
        // Tiers [n, n, p, n, n, p] give n, p, n, p, n, n.
        let two = [
            Some((20, n)),
            None,
            Some((19, n)),
            Some((18, p)),
            Some((17, n)),
            None,
            Some((16, n)),
            Some((15, p)),
        ];
        let want = vec![(20, n), (18, p), (19, n), (15, p), (17, n), (16, n)];
        assert_eq!(fetches(&two, usize::MAX), want);
        // The list stops at the first fetch of a copy the pass writes.
        assert_eq!(fetches(&two, 6), vec![(20, n), (18, p), (19, n), (17, n)]);
        assert_eq!(fetches(&two, 0), vec![]);
        // A tier with no leading fetch takes no turn.
        let skip = [Some((9, 2)), Some((8, 2)), Some((7, 0)), Some((6, 2))];
        assert_eq!(fetches(&skip, usize::MAX), vec![(9, 2), (7, 0), (8, 2), (6, 2)]);
    }

    /// Over real plans the interleave only reorders the leading loads'
    /// fetches: the same set, each tier's in plan order, and no tier's
    /// `k + 1`-th read before every other tier's `k`-th it has.
    #[test]
    fn leading_fetches_reorder_only_the_plans_leading_fetches() {
        for order in ORDERS {
            for (kind, ratio) in KINDS.into_iter().flat_map(|k| {
                [vec![1.0], vec![2.0, 1.0], vec![1.0, 1.0, 1.0]].map(move |r| (k, r))
            }) {
                let tiers = ratio.len();
                let mut l = ledger_for(kind, order, 24, 5, ratio);
                for iter in 0..4 {
                    let plan = l.begin_iteration();
                    let prefix: Vec<(usize, usize)> = (plan.loads())
                        .take_while(|(_, load)| !matches!(load, Load::Fetch { after: Some(_), .. }))
                        .filter_map(|(s, load)| match load {
                            Load::Fetch { tier, .. } => Some((s, tier)),
                            Load::Hit => None,
                        })
                        .collect();
                    let got: Vec<(usize, usize)> = plan.leading_fetches().collect();
                    let what = format!("{order:?} {kind:?} {tiers} tiers, iteration {iter}");
                    for t in 0..tiers {
                        let on = |v: &[(usize, usize)]| {
                            v.iter().filter(|r| r.1 == t).copied().collect::<Vec<_>>()
                        };
                        assert_eq!(on(&got), on(&prefix), "{what}: tier {t}");
                    }
                    let mut seen = vec![0; tiers];
                    for &(_, t) in &got {
                        seen[t] += 1;
                        let left = |u: usize| prefix.iter().filter(|r| r.1 == u).count();
                        for u in 0..tiers {
                            assert!(seen[u] >= (seen[t] - 1).min(left(u)), "{what}: {got:?}");
                        }
                    }
                    execute(&mut l, &plan, true);
                }
            }
        }
    }
}
