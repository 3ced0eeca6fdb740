//! Subgroup-to-tier allocation: the §3.3 performance model.
//!
//! Equation 1: tier `i` with bandwidth `B_i` receives
//! `T_i = ⌈M·B_i / ΣB⌉` of the `M` subgroups, adjusted so `ΣT_i = M` —
//! parallel fetches and flushes across tiers then finish at roughly the
//! same time, so no single path straggles.
//!
//! Bandwidths start from microbenchmarks and are re-estimated from the
//! observed per-subgroup transfer rates after every iteration, adapting to
//! external load shifts on shared tiers (e.g. a busy PFS).

use mlp_trace::Counter;

/// Splits `m` subgroups across tiers proportionally to `bandwidths`
/// (Eq. 1, largest-remainder rounding so the counts sum to exactly `m`).
///
/// # Panics
///
/// Panics if `bandwidths` is empty or contains a non-positive value.
pub fn allocate_counts(m: usize, bandwidths: &[f64]) -> Vec<usize> {
    assert!(!bandwidths.is_empty(), "need at least one tier");
    assert!(
        bandwidths.iter().all(|&b| b > 0.0 && b.is_finite()),
        "bandwidths must be positive"
    );
    let total: f64 = bandwidths.iter().sum();
    let exact: Vec<f64> = bandwidths.iter().map(|b| m as f64 * b / total).collect();
    let mut counts: Vec<usize> = exact.iter().map(|&e| e.floor() as usize).collect();
    let mut assigned: usize = counts.iter().sum();
    // Hand remaining subgroups to the largest fractional remainders.
    // Remainders are materialized once so the comparator is a pure
    // lookup, and ties break toward the lower tier index: the rounding
    // must be a deterministic function of `(m, bandwidths)` because the
    // adaptive planner compares successive plans to decide migrations —
    // a tie resolved differently across calls would read as a bandwidth
    // shift and trigger spurious data movement.
    let rem: Vec<f64> = exact.iter().map(|&e| e - e.floor()).collect();
    let mut order: Vec<usize> = (0..bandwidths.len()).collect();
    order.sort_by(|&a, &b| rem[b].total_cmp(&rem[a]).then(a.cmp(&b)));
    let mut i = 0;
    while assigned < m {
        counts[order[i % order.len()]] += 1;
        assigned += 1;
        i += 1;
    }
    counts
}

/// [`allocate_counts`] with tiers masked out: the split is computed over
/// the surviving tiers only and mapped back to full-length counts, with
/// excluded tiers pinned at 0. The quarantine-and-drain path uses this —
/// a quarantined tier must receive no new placements, but its (stale)
/// bandwidth estimate is still part of the estimator's tier-indexed
/// state.
///
/// # Panics
///
/// Panics if every tier is excluded (callers surface "no surviving
/// tiers" as a typed error before planning) or if a surviving tier's
/// bandwidth is non-positive.
pub fn allocate_counts_excluding(m: usize, bandwidths: &[f64], excluded: &[bool]) -> Vec<usize> {
    assert_eq!(bandwidths.len(), excluded.len(), "mask/tier mismatch");
    let survivors: Vec<usize> = (0..bandwidths.len()).filter(|&t| !excluded[t]).collect();
    assert!(!survivors.is_empty(), "every tier is excluded");
    let sub: Vec<f64> = survivors.iter().map(|&t| bandwidths[t]).collect();
    let sub_counts = allocate_counts(m, &sub);
    let mut counts = vec![0usize; bandwidths.len()];
    for (&t, &c) in survivors.iter().zip(&sub_counts) {
        counts[t] = c;
    }
    counts
}

/// The Eq. 1 deficit rule: of the tiers with a non-zero target, the one
/// that has received the smallest fraction of it so far (ties → lower
/// index); `None` when no tier has a target.
pub fn most_behind(targets: &[usize], done: &[usize]) -> Option<usize> {
    targets
        .iter()
        .zip(done)
        .enumerate()
        .filter(|(_, (&target, _))| target > 0)
        .min_by(|(a, (&ta, &da)), (b, (&tb, &db))| {
            let fa = da as f64 / ta as f64;
            let fb = db as f64 / tb as f64;
            fa.total_cmp(&fb).then(a.cmp(b))
        })
        .map(|(t, _)| t)
}

/// Assigns each of `m` subgroups a tier index, interleaving tiers so
/// consecutive subgroups use different I/O paths where possible (enabling
/// the parallel multi-path fetches of Fig. 6). The per-tier totals equal
/// [`allocate_counts`].
pub fn assign_subgroups(m: usize, bandwidths: &[f64]) -> Vec<usize> {
    let targets = allocate_counts(m, bandwidths);
    let mut placed = vec![0usize; targets.len()];
    (0..m)
        .map(|_| {
            // Weighted round-robin. The targets sum to exactly `m`, so
            // until all `m` are placed some tier is below its target, and
            // a tier below its target is always behind a saturated one.
            let tier = most_behind(&targets, &placed).unwrap_or(0);
            placed[tier] += 1;
            tier
        })
        .collect()
}

/// Adaptive per-tier bandwidth estimation (§3.3): a tier's first real
/// observation replaces the initial microbenchmark value outright (warm
/// start), after which observed per-iteration transfer rates blend in
/// through an exponential moving average. Retries reported by the fault
/// layer discount a tier's observed rate (a path that burns attempts on
/// transient faults is worth less than its raw throughput suggests).
#[derive(Clone)]
pub struct BandwidthEstimator {
    current: Vec<f64>,
    /// Tiers that have folded in at least one real observation. Until
    /// then `current` holds the microbenchmark prior, which can be
    /// systematically off in-engine (contention, per-op overheads), so
    /// the first observation replaces it outright instead of EMA-blending
    /// — the estimator converges in one iteration while later blips are
    /// still damped by `alpha`.
    seen: Vec<bool>,
    pending_bytes: Vec<f64>,
    pending_secs: Vec<f64>,
    pending_ops: Vec<f64>,
    pending_retries: Vec<f64>,
    alpha: f64,
    /// Observations against a tier index the estimator does not track.
    /// Counted instead of panicking: `record` sits on the I/O completion
    /// path, where a bad index from a mis-wired feedback source must not
    /// tear down a worker (hot-path panic-freedom rule).
    dropped: Counter,
}

impl std::fmt::Debug for BandwidthEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BandwidthEstimator")
            .field("current", &self.current)
            .field("alpha", &self.alpha)
            .field("dropped", &self.dropped.get())
            .finish_non_exhaustive()
    }
}

impl BandwidthEstimator {
    /// Starts from microbenchmark bandwidths; `alpha` is the EMA weight of
    /// new observations (the paper adjusts after each iteration; 0.5 reacts
    /// within a couple of iterations without oscillating).
    pub fn new(initial: Vec<f64>, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha in [0, 1]");
        assert!(
            initial.iter().all(|&b| b > 0.0 && b.is_finite()),
            "initial bandwidths must be positive"
        );
        let n = initial.len();
        BandwidthEstimator {
            current: initial,
            seen: vec![false; n],
            pending_bytes: vec![0.0; n],
            pending_secs: vec![0.0; n],
            pending_ops: vec![0.0; n],
            pending_retries: vec![0.0; n],
            alpha,
            dropped: Counter::detached(),
        }
    }

    /// Number of tiers tracked.
    pub fn num_tiers(&self) -> usize {
        self.current.len()
    }

    /// Routes out-of-range observation drops to `counter` (typically the
    /// sink's `planner.dropped_observations`) instead of the detached
    /// default, so a mis-wired feedback source is visible in metrics.
    pub fn attach_dropped_counter(&mut self, counter: Counter) {
        self.dropped = counter;
    }

    /// Observations ignored because their tier index was out of range.
    pub fn dropped_observations(&self) -> u64 {
        self.dropped.get()
    }

    /// Records one observed transfer (fetch or flush) against `tier`.
    ///
    /// An out-of-range `tier` is ignored and counted (see
    /// [`Self::attach_dropped_counter`]) rather than panicking: this is
    /// called from I/O completion paths.
    // lint:hot-root — fed from I/O completion paths every transfer
    // lint:allow(transitive-panic): tier is bounds-checked on entry and
    // every per-tier vec is constructed with the same length
    pub fn record(&mut self, tier: usize, bytes: u64, secs: f64) {
        if tier >= self.current.len() {
            self.dropped.inc();
            return;
        }
        if secs <= 0.0 || !secs.is_finite() {
            return;
        }
        self.pending_bytes[tier] += bytes as f64;
        self.pending_secs[tier] += secs;
        self.pending_ops[tier] += 1.0;
    }

    /// Reports `retries` fault-layer retry attempts against `tier` this
    /// iteration. Folded in at [`Self::end_iteration`] as a multiplicative
    /// discount `ops / (ops + retries)` on the observed bandwidth, so a
    /// flaky path sheds load beyond what its raw throughput loses.
    /// Out-of-range tiers are ignored and counted, like [`Self::record`].
    pub fn record_retries(&mut self, tier: usize, retries: u64) {
        if tier >= self.current.len() {
            self.dropped.inc();
            return;
        }
        self.pending_retries[tier] += retries as f64;
    }

    /// Folds the iteration's observations into the estimates (call once
    /// per iteration).
    pub fn end_iteration(&mut self) {
        for t in 0..self.current.len() {
            if self.pending_secs[t] > 0.0 {
                let mut observed = self.pending_bytes[t] / self.pending_secs[t];
                if self.pending_retries[t] > 0.0 && self.pending_ops[t] > 0.0 {
                    observed *=
                        self.pending_ops[t] / (self.pending_ops[t] + self.pending_retries[t]);
                }
                if observed.is_finite() && observed > 0.0 {
                    self.current[t] = if self.seen[t] {
                        (1.0 - self.alpha) * self.current[t] + self.alpha * observed
                    } else {
                        // Warm start: the first measurement supersedes the
                        // microbenchmark prior at full weight.
                        self.seen[t] = true;
                        observed
                    };
                }
            }
            self.pending_bytes[t] = 0.0;
            self.pending_secs[t] = 0.0;
            self.pending_ops[t] = 0.0;
            self.pending_retries[t] = 0.0;
        }
    }

    /// Current per-tier bandwidth estimates.
    pub fn estimates(&self) -> &[f64] {
        &self.current
    }
}

/// Parses a ratio string like `"2:1"` into relative weights, the
/// user-facing subgroup-distribution override of §3.5 ("a 2:1 split
/// between /local/ and /remote/"). Every component must be positive and
/// finite: `"inf:1"` parses as `f64` but is no bandwidth weight.
pub fn parse_ratio(s: &str) -> Result<Vec<f64>, String> {
    let parts: Result<Vec<f64>, _> = s.split(':').map(|p| p.trim().parse::<f64>()).collect();
    match parts {
        Ok(v) if v.iter().all(|&x| x > 0.0 && x.is_finite()) => Ok(v),
        Ok(_) => Err(format!("{s:?} must have positive, finite components")),
        Err(e) => Err(format!("{s:?} is not numbers separated by ':': {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_testkit::{cases, DEFAULT_CASES};

    #[test]
    fn testbed1_split_is_two_to_one() {
        // NVMe 5.3, PFS 3.6 (min of r/w): 100 subgroups → ~60:40... the
        // paper reports a 2:1 *configured* split; Eq. 1 with raw min
        // bandwidths gives 60/40. With the write-bandwidth-dominant view
        // (5.3 vs 3.6) the fraction on NVMe is ~60%; with the paper's
        // configured 2:1 weights it is ~67%.
        let counts = allocate_counts(99, &[2.0, 1.0]);
        assert_eq!(counts, vec![66, 33]);
        let counts = allocate_counts(100, &[5.3, 3.6]);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert!((58..=62).contains(&counts[0]), "{counts:?}");
    }

    #[test]
    fn single_tier_takes_everything() {
        assert_eq!(allocate_counts(7, &[4.2]), vec![7]);
    }

    #[test]
    fn zero_subgroups_allocates_zero() {
        assert_eq!(allocate_counts(0, &[1.0, 2.0]), vec![0, 0]);
    }

    #[test]
    fn excluded_tiers_receive_nothing_and_survivors_split_everything() {
        // Middle tier quarantined: its 2.0 weight drops out entirely and
        // the 3:1 survivor split covers all 8 subgroups.
        let counts = allocate_counts_excluding(8, &[3.0, 2.0, 1.0], &[false, true, false]);
        assert_eq!(counts, vec![6, 0, 2]);
        assert_eq!(counts.iter().sum::<usize>(), 8);
        // No exclusions degenerates to the plain split.
        assert_eq!(
            allocate_counts_excluding(8, &[3.0, 1.0], &[false, false]),
            allocate_counts(8, &[3.0, 1.0]),
        );
        // A dead tier's estimate may be garbage; it must not be inspected.
        let counts = allocate_counts_excluding(4, &[1.0, f64::NAN], &[false, true]);
        assert_eq!(counts, vec![4, 0]);
    }

    #[test]
    #[should_panic(expected = "every tier is excluded")]
    fn all_excluded_panics() {
        allocate_counts_excluding(4, &[1.0, 2.0], &[true, true]);
    }

    #[test]
    fn assignment_matches_counts_and_interleaves() {
        let bw = [2.0, 1.0];
        let assign = assign_subgroups(9, &bw);
        let counts = allocate_counts(9, &bw);
        for (t, &count) in counts.iter().enumerate() {
            assert_eq!(assign.iter().filter(|&&x| x == t).count(), count);
        }
        // 2:1 interleave: no run of tier 0 longer than 2 (no starving path).
        let mut run = 0;
        for &t in &assign {
            if t == 0 {
                run += 1;
                assert!(run <= 2, "tier 0 run too long in {assign:?}");
            } else {
                run = 0;
            }
        }
    }

    #[test]
    fn estimator_tracks_observed_drop() {
        let mut est = BandwidthEstimator::new(vec![5.3e9, 3.6e9], 0.5);
        // Warm start: the first measurement supersedes the prior outright.
        est.record(1, 36_000_000_000, 10.0);
        est.end_iteration();
        assert_eq!(est.estimates()[0], 5.3e9, "no observation → unchanged");
        assert_eq!(est.estimates()[1], 3.6e9, "first observation snaps");
        // PFS under external load delivers only 1.8 GB/s this iteration;
        // now the EMA damps the swing.
        est.record(1, 18_000_000_000, 10.0);
        est.end_iteration();
        let pfs = est.estimates()[1];
        assert!((2.6e9..2.8e9).contains(&pfs), "EMA midpoint, got {pfs}");
    }

    #[test]
    fn estimator_reallocation_shifts_subgroups() {
        let mut est = BandwidthEstimator::new(vec![5.0e9, 5.0e9], 1.0);
        let before = allocate_counts(100, est.estimates());
        assert_eq!(before, vec![50, 50]);
        est.record(1, 10_000_000_000, 10.0); // tier 1 down to 1 GB/s
        est.end_iteration();
        let after = allocate_counts(100, est.estimates());
        assert!(after[0] > 80, "fast tier absorbs load: {after:?}");
    }

    #[test]
    fn record_out_of_range_is_ignored_and_counted() {
        // Regression (PR 7): an out-of-range tier index used to panic via
        // unchecked `pending_bytes[tier]` on the I/O completion path.
        let mut est = BandwidthEstimator::new(vec![5.3e9, 3.6e9], 0.5);
        let counter = Counter::detached();
        est.attach_dropped_counter(counter.clone());
        est.record(7, 1_000_000, 1.0); // out of range: ignored, counted
        est.record_retries(7, 3);
        est.record(1, 18_000_000_000, 10.0);
        est.end_iteration();
        assert_eq!(est.dropped_observations(), 2);
        assert_eq!(counter.get(), 2);
        // The in-range observation still lands; estimates have no entry
        // for the bogus tier and tier 0 is untouched.
        assert_eq!(est.estimates().len(), 2);
        assert_eq!(est.estimates()[0], 5.3e9);
        assert!(est.estimates()[1] < 3.6e9);
    }

    #[test]
    fn retry_rate_discounts_observed_bandwidth() {
        let clean = {
            let mut est = BandwidthEstimator::new(vec![4.0e9], 1.0);
            est.record(0, 4_000_000_000, 1.0);
            est.end_iteration();
            est.estimates()[0]
        };
        let flaky = {
            let mut est = BandwidthEstimator::new(vec![4.0e9], 1.0);
            est.record(0, 4_000_000_000, 1.0); // same throughput...
            est.record_retries(0, 1); // ...but half the attempts failed
            est.end_iteration();
            est.estimates()[0]
        };
        assert_eq!(clean, 4.0e9);
        assert_eq!(flaky, 2.0e9, "1 op + 1 retry → ops/(ops+retries) = 1/2");
    }

    #[test]
    fn remainder_ties_break_toward_lower_tier_index() {
        // 3 subgroups over two equal tiers: exact shares 1.5 / 1.5; the
        // single leftover must deterministically land on tier 0.
        assert_eq!(allocate_counts(3, &[1.0, 1.0]), vec![2, 1]);
        // Four-way tie, two leftovers: lowest two indices win.
        assert_eq!(allocate_counts(6, &[1.0, 1.0, 1.0, 1.0]), vec![2, 2, 1, 1]);
    }

    #[test]
    fn ratio_parsing() {
        assert_eq!(parse_ratio("2:1").unwrap(), vec![2.0, 1.0]);
        assert_eq!(parse_ratio("1:1:1").unwrap(), vec![1.0, 1.0, 1.0]);
        assert!(parse_ratio("a:b").is_err());
        assert!(parse_ratio("0:1").is_err());
        assert!(parse_ratio("").is_err());
    }

    #[test]
    fn counts_always_sum_to_m() {
        cases(DEFAULT_CASES, |g| {
            let m = g.range(0usize..500);
            let bw = g.vec(1..6, |g| g.range(0.1f64..100.0));
            let counts = allocate_counts(m, &bw);
            assert_eq!(counts.iter().sum::<usize>(), m);
        });
    }

    #[test]
    fn counts_are_proportional_within_one() {
        cases(DEFAULT_CASES, |g| {
            let m = g.range(1usize..500);
            let bw = g.vec(1..6, |g| g.range(0.1f64..100.0));
            let counts = allocate_counts(m, &bw);
            let total: f64 = bw.iter().sum();
            for (c, b) in counts.iter().zip(&bw) {
                let exact = m as f64 * b / total;
                assert!((*c as f64 - exact).abs() <= 1.0 + 1e-9,
                    "count {c} vs exact {exact}");
            }
        });
    }

    #[test]
    fn counts_are_stable_across_runs() {
        cases(DEFAULT_CASES, |g| {
            let m = g.range(0usize..500);
            let bw = g.vec(1..6, |g| g.range(0.1f64..100.0));
            // Largest-remainder rounding is a pure deterministic function
            // of its inputs — including under exact remainder ties.
            assert_eq!(allocate_counts(m, &bw), allocate_counts(m, &bw));
        });
    }

    #[test]
    fn counts_are_monotone_in_bandwidth() {
        cases(DEFAULT_CASES, |g| {
            let m = g.range(0usize..500);
            let bw = g.vec(2..6, |g| g.range(0.1f64..100.0));
            // A strictly faster tier never receives fewer subgroups than a
            // slower one (with index as the documented tie-break).
            let counts = allocate_counts(m, &bw);
            for i in 0..bw.len() {
                for j in 0..bw.len() {
                    if bw[i] > bw[j] {
                        assert!(
                            counts[i] + 1 >= counts[j],
                            "bw {} > {} but counts {} < {} - 1",
                            bw[i], bw[j], counts[i], counts[j]
                        );
                        if bw[i] / bw[j] > 1.0 + 1e-9 {
                            assert!(counts[i] >= counts[j]);
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn assignment_is_a_permutation_of_counts() {
        cases(DEFAULT_CASES, |g| {
            let m = g.range(0usize..300);
            let bw = g.vec(1..5, |g| g.range(0.1f64..100.0));
            let assign = assign_subgroups(m, &bw);
            let counts = allocate_counts(m, &bw);
            assert_eq!(assign.len(), m);
            for (t, &c) in counts.iter().enumerate() {
                assert_eq!(assign.iter().filter(|&&x| x == t).count(), c);
            }
        });
    }
}
