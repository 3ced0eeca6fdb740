//! Online adaptive re-planning: the closed loop over §3.3.
//!
//! [`allocate_counts`](crate::policy::allocation::allocate_counts) gives the Eq. 1 split for a *given* set of tier
//! bandwidths; the [`BandwidthEstimator`] tracks what those bandwidths
//! *actually are* from observed transfers. The [`AdaptivePlanner`] closes
//! the loop: every iteration it folds the observations, re-splits flush
//! writes across paths on the live estimates, and plans a bounded number
//! of durable-copy migrations so the *fetch* side of the pipeline also
//! converges to the new split (flushes re-place data one iteration after
//! an estimate shift; migrations move the copies that would otherwise
//! keep being fetched from a degraded path).
//!
//! Invariants the plan preserves by construction:
//!
//! * **Cache-hit guarantee** — only tier-resident durable copies are
//!   candidates; host-retained subgroups (the `OrderPolicy::Alternating`
//!   tail that becomes the next iteration's head) are never touched, so
//!   the residency set — and therefore the hit sequence — is unchanged.
//! * **Re-drive semantics** — a migration moves bytes, never mutates
//!   them, and engines only apply plans at iteration boundaries with no
//!   update in progress, so a re-driven iteration reads exactly the bytes
//!   the failed attempt would have read.
//! * **Determinism** — given the same placements and estimates the plan
//!   is identical: donors/receivers and the subgroups moved between them
//!   are selected with index-order tie-breaks, and the underlying
//!   rounding (`allocate_counts`) is itself deterministic under ties.

use mlp_trace::{Counter, Gauge, TraceSink};

use crate::policy::allocation::{allocate_counts_excluding, BandwidthEstimator};

/// One planned durable-copy move: subgroup `subgroup` relocates from tier
/// `from` to tier `to`. The engine executes it as read(from) → write(to)
/// → delete(from), in that order, so a durable copy exists at every step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationStep {
    /// Subgroup whose durable copy moves.
    pub subgroup: usize,
    /// Source tier index.
    pub from: usize,
    /// Destination tier index.
    pub to: usize,
}

/// Observability handles for planner decisions. Detached (free) until
/// [`AdaptivePlanner::attach_trace`] binds them to an enabled sink.
#[derive(Clone)]
struct PlannerMetrics {
    replans: Counter,
    migrations: Counter,
    drains: Counter,
    estimates: Vec<Gauge>,
}

impl PlannerMetrics {
    fn detached(ntiers: usize) -> Self {
        PlannerMetrics {
            replans: Counter::detached(),
            migrations: Counter::detached(),
            drains: Counter::detached(),
            estimates: (0..ntiers).map(|_| Gauge::detached()).collect(),
        }
    }
}

/// EMA weight of new observations in the planner's bandwidth estimator
/// (`estimate ← (1-α)·estimate + α·observed` per iteration): reacts within
/// a couple of iterations, yet a one-iteration blip (a scheduler hiccup, a
/// contended transfer) cannot swing the estimate to the raw observation.
pub(crate) const BANDWIDTH_EMA_ALPHA: f64 = 0.5;

/// The mid-training re-planner: owns the bandwidth estimator, publishes
/// its decisions as `planner.*` metrics, and computes bounded migration
/// plans toward the current Eq. 1 split.
#[derive(Clone)]
pub struct AdaptivePlanner {
    estimator: BandwidthEstimator,
    max_migrations_per_iter: usize,
    metrics: PlannerMetrics,
    replans: u64,
    migrations_planned: u64,
    /// Tiers removed from planning (quarantined breakers, DESIGN.md §15):
    /// they receive no flush/migration placements and their durable
    /// copies are evacuated by [`AdaptivePlanner::plan_drain`].
    excluded: Vec<bool>,
}

impl std::fmt::Debug for AdaptivePlanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptivePlanner")
            .field("estimator", &self.estimator)
            .field("max_migrations_per_iter", &self.max_migrations_per_iter)
            .field("replans", &self.replans)
            .field("migrations_planned", &self.migrations_planned)
            .field("excluded", &self.excluded)
            .finish()
    }
}

impl AdaptivePlanner {
    /// Builds a planner starting from microbenchmark `initial` bandwidths.
    /// The EMA weight is `BANDWIDTH_EMA_ALPHA`; `max_migrations_per_iter`
    /// bounds how many durable copies one iteration boundary may move
    /// (0 disables migration — the planner still re-splits flushes).
    pub fn new(initial: Vec<f64>, max_migrations_per_iter: usize) -> Self {
        let ntiers = initial.len();
        AdaptivePlanner {
            estimator: BandwidthEstimator::new(initial, BANDWIDTH_EMA_ALPHA),
            max_migrations_per_iter,
            metrics: PlannerMetrics::detached(ntiers),
            replans: 0,
            migrations_planned: 0,
            excluded: vec![false; ntiers],
        }
    }

    /// Binds the planner's decision metrics (`planner.replans`,
    /// `planner.migrations`, `planner.estimate.{tier}`,
    /// `planner.dropped_observations`) to `trace`'s registry. A no-op for
    /// disabled sinks (the handles stay detached and cost nothing).
    pub fn attach_trace(&mut self, trace: &TraceSink) {
        if !trace.is_enabled() {
            return;
        }
        self.metrics = PlannerMetrics {
            replans: trace.counter("planner.replans"),
            migrations: trace.counter("planner.migrations"),
            drains: trace.counter("planner.drains"),
            estimates: (0..self.estimator.num_tiers())
                .map(|t| trace.gauge(&format!("planner.estimate.{t}")))
                .collect(),
        };
        self.estimator
            .attach_dropped_counter(trace.counter("planner.dropped_observations"));
        self.publish_estimates();
    }

    /// Records one observed transfer against `tier` (see
    /// [`BandwidthEstimator::record`]).
    // lint:hot-root — fed from I/O completion paths every transfer
    pub fn record(&mut self, tier: usize, bytes: u64, secs: f64) {
        self.estimator.record(tier, bytes, secs);
    }

    /// Reports fault-layer retries against `tier` (see
    /// [`BandwidthEstimator::record_retries`]).
    pub fn record_retries(&mut self, tier: usize, retries: u64) {
        self.estimator.record_retries(tier, retries);
    }

    /// Current per-tier bandwidth estimates.
    pub fn estimates(&self) -> &[f64] {
        self.estimator.estimates()
    }

    /// Removes `tier` from planning permanently: it is never again a
    /// flush or migration destination, and [`AdaptivePlanner::plan_drain`]
    /// evacuates whatever durable copies it still holds. Idempotent;
    /// out-of-range indices are ignored. There is deliberately no
    /// un-exclude — a quarantined breaker is latched (see
    /// `mlp_storage::health`), and readmitting a tier whose copies were
    /// drained would need a full re-balance, not a flag flip.
    pub fn exclude_tier(&mut self, tier: usize) {
        if let Some(e) = self.excluded.get_mut(tier) {
            *e = true;
        }
    }

    /// Per-tier exclusion mask (index-aligned with the tier set).
    pub fn excluded(&self) -> &[bool] {
        &self.excluded
    }

    /// Number of tiers still accepting placements.
    pub fn surviving_tiers(&self) -> usize {
        self.excluded.iter().filter(|&&e| !e).count()
    }

    /// Completed re-plans (estimator folds).
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Total migration steps handed out so far.
    pub fn migrations_planned(&self) -> u64 {
        self.migrations_planned
    }

    /// Folds this iteration's observations into the estimates and
    /// publishes the new per-tier values — one "re-plan": the next
    /// iteration's flush split and migration plan both derive from the
    /// estimates this call produces.
    pub fn end_iteration(&mut self) {
        self.estimator.end_iteration();
        self.replans += 1;
        self.metrics.replans.inc();
        self.publish_estimates();
    }

    fn publish_estimates(&self) {
        for (t, g) in self.metrics.estimates.iter().enumerate() {
            if let Some(&e) = self.estimator.estimates().get(t) {
                g.set(e as u64);
            }
        }
    }

    /// Durable copies per tier under `placements`, and the Eq. 1 split of
    /// that many copies over the surviving tiers on the current estimates.
    /// `None` when there is nothing to move or nowhere to move it.
    fn counts_and_targets(&self, placements: &[Option<usize>]) -> Option<(Vec<usize>, Vec<usize>)> {
        let mut counts = vec![0usize; self.estimator.num_tiers()];
        for &p in placements.iter().flatten() {
            if let Some(c) = counts.get_mut(p) {
                *c += 1;
            }
        }
        let durable: usize = counts.iter().sum();
        if durable == 0 || self.surviving_tiers() == 0 {
            return None;
        }
        let targets =
            allocate_counts_excluding(durable, self.estimator.estimates(), &self.excluded);
        Some((counts, targets))
    }

    /// Plans at most `max_migrations_per_iter` durable-copy moves that
    /// bring the per-tier counts toward the Eq. 1 split for the current
    /// estimates.
    ///
    /// `placements[i]` is subgroup `i`'s durable tier, or `None` when the
    /// subgroup is host-resident (retained in a cache frame) or otherwise
    /// unmovable (e.g. its eviction flush is still in flight); `None`
    /// entries are never selected. Each call plans moves from the most
    /// over-full tier to the most under-full one, lowest subgroup index
    /// first, until the counts are within the rounding tolerance of the
    /// target or the budget is spent.
    pub fn plan_migrations(&mut self, placements: &[Option<usize>]) -> Vec<MigrationStep> {
        let ntiers = self.estimator.num_tiers();
        if self.max_migrations_per_iter == 0 || ntiers < 2 {
            return Vec::new();
        }
        let Some((mut counts, targets)) = self.counts_and_targets(placements) else {
            return Vec::new();
        };
        let mut current: Vec<Option<usize>> = placements.to_vec();
        let mut steps = Vec::new();
        while steps.len() < self.max_migrations_per_iter {
            // Most over-full donor and most under-full receiver, ties
            // toward the lower tier index. Excluded tiers have target 0,
            // so a straggler copy on one is always the top donor and an
            // excluded tier is never a receiver.
            let donor = (0..ntiers)
                .filter(|&t| counts[t] > targets[t])
                .max_by(|&a, &b| (counts[a] - targets[a]).cmp(&(counts[b] - targets[b])).then(b.cmp(&a)));
            let recv = (0..ntiers)
                .filter(|&t| counts[t] < targets[t])
                .max_by(|&a, &b| (targets[a] - counts[a]).cmp(&(targets[b] - counts[b])).then(b.cmp(&a)));
            let (Some(from), Some(to)) = (donor, recv) else {
                break;
            };
            // Lowest-index movable subgroup currently on the donor.
            let Some(subgroup) = current
                .iter()
                .position(|p| *p == Some(from))
            else {
                break;
            };
            current[subgroup] = Some(to);
            counts[from] -= 1;
            counts[to] += 1;
            steps.push(MigrationStep { subgroup, from, to });
        }
        self.migrations_planned += steps.len() as u64;
        self.metrics.migrations.add(steps.len() as u64);
        steps
    }

    /// Plans the complete evacuation of every durable copy sitting on an
    /// [excluded](AdaptivePlanner::exclude_tier) tier — the *drain* half
    /// of quarantine-and-drain. Unlike [`AdaptivePlanner::plan_migrations`]
    /// the plan is **unbounded**: a quarantined tier's copies must all
    /// leave at this iteration boundary, because the next placement pass
    /// assumes nothing lives there any more.
    ///
    /// Destinations follow the Eq. 1 split over the surviving tiers
    /// (most-under-full first, index-order ties), so the drained copies
    /// land where the next re-plan would have put them. `None` placements
    /// (host-resident subgroups) are untouched, preserving the cache-hit
    /// guarantee. Returns an empty plan when nothing is excluded, nothing
    /// sits on an excluded tier, or no tier survives (the caller turns
    /// "no survivors" into a typed error before training continues).
    pub fn plan_drain(&mut self, placements: &[Option<usize>]) -> Vec<MigrationStep> {
        let ntiers = self.estimator.num_tiers();
        if !self.excluded.iter().any(|&e| e) {
            return Vec::new();
        }
        let Some((mut counts, targets)) = self.counts_and_targets(placements) else {
            return Vec::new();
        };
        let mut steps = Vec::new();
        for (subgroup, p) in placements.iter().enumerate() {
            let Some(from) = *p else { continue };
            if from >= ntiers || !self.excluded[from] {
                continue;
            }
            // Deepest-deficit survivor; once every target is met
            // (rounding slack), least-loaded. Ties toward the lower index.
            let Some(to) = (0..ntiers).filter(|&t| !self.excluded[t]).min_by(|&a, &b| {
                let da = counts[a] as i64 - targets[a] as i64;
                let db = counts[b] as i64 - targets[b] as i64;
                da.cmp(&db).then(a.cmp(&b))
            }) else {
                break; // unreachable: surviving_tiers() > 0 above
            };
            counts[from] -= 1;
            counts[to] += 1;
            steps.push(MigrationStep { subgroup, from, to });
        }
        self.migrations_planned += steps.len() as u64;
        self.metrics.drains.add(steps.len() as u64);
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::allocation::allocate_counts;
    use mlp_testkit::{cases, DEFAULT_CASES};

    fn planner(bw: Vec<f64>, max: usize) -> AdaptivePlanner {
        AdaptivePlanner::new(bw, max)
    }

    #[test]
    fn balanced_placement_plans_nothing() {
        let mut p = planner(vec![1.0, 1.0], 8);
        let placements: Vec<Option<usize>> =
            (0..10).map(|i| Some(i % 2)).collect();
        assert!(p.plan_migrations(&placements).is_empty());
        assert_eq!(p.migrations_planned(), 0);
    }

    #[test]
    fn skewed_placement_moves_toward_target_and_respects_budget() {
        // All 10 durable copies on tier 1, but tier 0 is 3x faster:
        // target is [8, 2] (allocate_counts(10, [3,1])), i.e. 8 moves
        // wanted — the budget caps it at 3 per boundary.
        let mut p = planner(vec![3.0, 1.0], 3);
        let placements: Vec<Option<usize>> = (0..10).map(|_| Some(1)).collect();
        let steps = p.plan_migrations(&placements);
        assert_eq!(steps.len(), 3);
        for (i, s) in steps.iter().enumerate() {
            assert_eq!((s.from, s.to), (1, 0));
            assert_eq!(s.subgroup, i, "lowest-index-first selection");
        }
        assert_eq!(p.migrations_planned(), 3);
    }

    #[test]
    fn host_resident_subgroups_are_never_moved() {
        // The Alternating cache-hit guarantee: retained (host) subgroups
        // stay untouched no matter how skewed the tier counts are.
        let mut p = planner(vec![10.0, 1.0], 16);
        let placements = vec![None, Some(1), None, Some(1), None];
        let steps = p.plan_migrations(&placements);
        assert!(!steps.is_empty());
        for s in &steps {
            assert!(placements[s.subgroup].is_some());
        }
    }

    #[test]
    fn drain_evacuates_every_copy_on_the_excluded_tier() {
        let mut p = planner(vec![2.0, 1.0, 1.0], 0); // budget irrelevant to drain
        p.exclude_tier(1);
        let placements = vec![Some(1), Some(0), None, Some(1), Some(2), Some(1)];
        let steps = p.plan_drain(&placements);
        assert_eq!(steps.len(), 3, "all three tier-1 copies must move");
        for s in &steps {
            assert_eq!(s.from, 1);
            assert_ne!(s.to, 1, "excluded tier can never receive");
        }
        // Deterministic: same inputs, same plan.
        let mut q = planner(vec![2.0, 1.0, 1.0], 0);
        q.exclude_tier(1);
        assert_eq!(q.plan_drain(&placements), steps);
        // Destinations follow the survivor split (2:1 over tiers 0 and 2
        // for 5 durable copies → targets [3, 0, 2]; tier 0 starts at 1,
        // tier 2 at 1 → deficits 2 and 1 → two to tier 0, one to tier 2).
        let to0 = steps.iter().filter(|s| s.to == 0).count();
        let to2 = steps.iter().filter(|s| s.to == 2).count();
        assert_eq!((to0, to2), (2, 1));
    }

    #[test]
    fn drain_is_a_no_op_without_exclusions_or_survivors() {
        let mut p = planner(vec![1.0, 1.0], 4);
        let placements = vec![Some(0), Some(1)];
        assert!(p.plan_drain(&placements).is_empty(), "nothing excluded");
        p.exclude_tier(0);
        p.exclude_tier(1);
        assert!(p.plan_drain(&placements).is_empty(), "no survivors");
        assert_eq!(p.surviving_tiers(), 0);
    }

    #[test]
    fn migrations_never_target_an_excluded_tier() {
        // Tier 1 is 10x "faster" by estimate but excluded: every planned
        // move must land on tier 0 or 2 regardless.
        let mut p = planner(vec![1.0, 10.0, 1.0], 16);
        p.exclude_tier(1);
        let placements: Vec<Option<usize>> = (0..9).map(|i| Some(i % 3)).collect();
        let steps = p.plan_migrations(&placements);
        assert!(!steps.is_empty(), "tier-1 copies must migrate out");
        for s in &steps {
            assert_eq!(s.from, 1, "only the excluded tier is over target");
            assert_ne!(s.to, 1);
        }
    }

    #[test]
    fn drain_metrics_flow_through_the_sink() {
        let trace = TraceSink::enabled();
        let mut p = planner(vec![1.0, 1.0], 0);
        p.attach_trace(&trace);
        p.exclude_tier(1);
        let steps = p.plan_drain(&[Some(1), Some(1), Some(0)]);
        assert_eq!(steps.len(), 2);
        let snap = trace.metrics_snapshot();
        assert_eq!(snap.counter("planner.drains"), Some(2));
        assert_eq!(p.migrations_planned(), 2);
    }

    #[test]
    fn zero_budget_disables_migration() {
        let mut p = planner(vec![10.0, 1.0], 0);
        let placements: Vec<Option<usize>> = (0..10).map(|_| Some(1)).collect();
        assert!(p.plan_migrations(&placements).is_empty());
    }

    #[test]
    fn plans_are_deterministic() {
        let placements: Vec<Option<usize>> =
            (0..20).map(|i| if i % 3 == 0 { None } else { Some(i % 2) }).collect();
        let run = || {
            let mut p = planner(vec![5.0, 2.0], 4);
            p.plan_migrations(&placements)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn replan_counts_and_metrics_flow_through_the_sink() {
        let trace = TraceSink::enabled();
        let mut p = planner(vec![2.0e9, 1.0e9], 2);
        p.attach_trace(&trace);
        p.record(1, 1_000_000_000, 10.0); // tier 1 crawls at 0.1 GB/s
        p.end_iteration();
        let placements: Vec<Option<usize>> = (0..6).map(|i| Some(i % 2)).collect();
        let steps = p.plan_migrations(&placements);
        assert!(!steps.is_empty(), "estimate shift must trigger moves");
        let snap = trace.metrics_snapshot();
        assert_eq!(snap.counter("planner.replans"), Some(1));
        assert_eq!(snap.counter("planner.migrations"), Some(steps.len() as u64));
    }

    #[test]
    fn migration_plans_are_bounded_and_improve_balance() {
        cases(DEFAULT_CASES, |g| {
            let n = g.range(1usize..40);
            let ntiers = g.range(2usize..5);
            let budget = g.range(0usize..10);
            let seed = g.range(0u64..1000);
            let bw: Vec<f64> = (0..ntiers).map(|t| 1.0 + (t as f64) + (seed % 7) as f64).collect();
            let mut p = AdaptivePlanner::new(bw, budget);
            // Pseudo-random placement: some host-resident, rest on tiers.
            let placements: Vec<Option<usize>> = (0..n)
                .map(|i| {
                    let r = (seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64)) >> 33;
                    if r % 5 == 0 { None } else { Some((r as usize) % ntiers) }
                })
                .collect();
            let steps = p.plan_migrations(&placements);
            assert!(steps.len() <= budget);

            let mut counts = vec![0usize; ntiers];
            for p in placements.iter().flatten() { counts[*p] += 1; }
            let durable: usize = counts.iter().sum();
            if durable == 0 {
                assert!(steps.is_empty());
                return;
            }
            let targets = allocate_counts(durable, p.estimates());
            let imbalance = |c: &[usize]| -> usize {
                c.iter().zip(&targets).map(|(&c, &t)| c.abs_diff(t)).sum()
            };
            let before = imbalance(&counts);
            let mut moved = std::collections::HashSet::new();
            for s in &steps {
                // Valid, movable, distinct subgroups; real tier indices.
                assert!(placements[s.subgroup].is_some());
                assert!(moved.insert(s.subgroup), "subgroup moved twice");
                assert!(s.from < ntiers && s.to < ntiers && s.from != s.to);
                counts[s.from] -= 1;
                counts[s.to] += 1;
            }
            let after = imbalance(&counts);
            assert!(after <= before, "plan must not worsen balance");
            if before > 0 && budget > 0 {
                assert!(after < before, "plan must make progress");
            }
        });
    }
}
