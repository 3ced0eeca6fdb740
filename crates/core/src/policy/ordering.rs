//! Cache-friendly subgroup update ordering (§3.2).
//!
//! Adam updates are embarrassingly parallel across subgroups, so the
//! processing order is free. MLP-Offload alternates between ascending and
//! descending id order: the subgroups left cached in host memory at the
//! end of one iteration (the tail of its order) are exactly the first
//! processed in the next, turning the baseline's cache thrashing into
//! guaranteed hits.

/// How the update phase orders subgroup processing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Ascending ids every iteration (DeepSpeed ZeRO-3's sequential order —
    /// thrashes the host cache).
    Ascending,
    /// Alternate ascending/descending per iteration (MLP-Offload's
    /// "Enable Caching" optimization).
    Alternating,
    /// Descending ids every iteration (ablation reference).
    Descending,
}

impl OrderPolicy {
    /// The processing order of `m` subgroups in 0-based iteration `iter`.
    pub fn order(self, iter: u64, m: usize) -> Vec<usize> {
        match self {
            OrderPolicy::Ascending => (0..m).collect(),
            OrderPolicy::Descending => (0..m).rev().collect(),
            OrderPolicy::Alternating => {
                if iter.is_multiple_of(2) {
                    (0..m).collect()
                } else {
                    (0..m).rev().collect()
                }
            }
        }
    }

    /// Expected host-cache hits in iteration `iter` given `budget`
    /// subgroups are retained across iterations: the retained set is the
    /// tail of the previous order, which the current order visits first
    /// only when the direction flips.
    ///
    /// For a repeating scan the closed form assumes the prefetch
    /// lookahead does not reach the retained tail before the scan starts
    /// evicting it (`budget + lookahead <= m`, or everything fits).
    pub fn expected_hits(self, iter: u64, m: usize, budget: usize) -> usize {
        if iter == 0 {
            return 0; // cold start: nothing resident yet
        }
        match self {
            // Tail of ascending order = highest ids; the next ascending
            // pass visits them last, after they were evicted to make room
            // — unless the whole shard fits and nothing is ever evicted.
            OrderPolicy::Ascending | OrderPolicy::Descending if budget < m => 0,
            _ => budget.min(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_testkit::{cases, DEFAULT_CASES};

    #[test]
    fn ascending_is_identity() {
        assert_eq!(OrderPolicy::Ascending.order(0, 4), vec![0, 1, 2, 3]);
        assert_eq!(OrderPolicy::Ascending.order(1, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn alternating_flips_every_iteration() {
        let p = OrderPolicy::Alternating;
        assert_eq!(p.order(0, 4), vec![0, 1, 2, 3]);
        assert_eq!(p.order(1, 4), vec![3, 2, 1, 0]);
        assert_eq!(p.order(2, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn alternating_consecutive_orders_share_prefix_with_suffix() {
        // The paper's key property: tail(order_k) == head(order_{k+1}).
        let p = OrderPolicy::Alternating;
        let m = 10;
        for iter in 0..5u64 {
            let cur = p.order(iter, m);
            let next = p.order(iter + 1, m);
            let budget = 3;
            let tail: Vec<usize> = cur[m - budget..].iter().rev().copied().collect();
            assert_eq!(&next[..budget], &tail[..], "iter {iter}");
        }
    }

    #[test]
    fn expected_hits_alternating_vs_ascending() {
        assert_eq!(OrderPolicy::Alternating.expected_hits(0, 100, 20), 0);
        assert_eq!(OrderPolicy::Alternating.expected_hits(1, 100, 20), 20);
        assert_eq!(OrderPolicy::Ascending.expected_hits(1, 100, 20), 0);
        assert_eq!(OrderPolicy::Alternating.expected_hits(3, 10, 50), 10);
        assert_eq!(OrderPolicy::Descending.expected_hits(1, 10, 10), 10);
    }

    #[test]
    fn order_is_always_a_permutation() {
        cases(DEFAULT_CASES, |g| {
            let iter = g.range(0u64..10);
            let m = g.range(0usize..200);
            for p in [OrderPolicy::Ascending, OrderPolicy::Alternating, OrderPolicy::Descending] {
                let mut o = p.order(iter, m);
                o.sort_unstable();
                assert_eq!(o, (0..m).collect::<Vec<_>>());
            }
        });
    }
}
