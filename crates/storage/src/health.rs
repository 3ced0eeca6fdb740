//! Per-tier health supervision: circuit breakers over the error
//! taxonomy and latency SLOs.
//!
//! Retries (PR 2) absorb *transient* faults and re-planning (PR 7)
//! absorbs *slow* tiers — but neither handles a tier that keeps failing
//! after retry exhaustion or keeps blowing its latency budget. This
//! module closes that gap with a classic circuit breaker per tier:
//!
//! ```text
//!            failures ≥ threshold                cooldown elapsed
//!  Closed ───────────────────────────▶ Open ───────────────────────▶ HalfOpen
//!    ▲                                  ▲                               │
//!    │    probe successes ≥ threshold   │      any probe failure        │
//!    └──────────────────────────────────┼───────────────────────────────┘
//!                                       │
//!                    trips ≥ max_trips  ▼
//!                                  Quarantined   (permanently open)
//! ```
//!
//! Every transition is **deterministic in the op stream**: trips are
//! driven by consecutive-failure and consecutive-SLO-violation counts,
//! and the open→half-open cooldown is counted in *rejected ops*, not
//! wall-clock time — so seeded fault tests reproduce the same breaker
//! trajectory on every run. The tier's I/O engine (`mlp-aio`) feeds it:
//! each backend attempt is admitted and then observed, and a deadline
//! timeout counts as a failure. When a breaker reaches [`Quarantined`]
//! the engines evacuate the tier's durable copies (quarantine-and-drain,
//! DESIGN.md §15) instead of retrying into it forever.
//!
//! [`Quarantined`]: BreakerState::Quarantined

use std::io;
use std::sync::Arc;
use std::time::Duration;

use mlp_sync::Mutex;
use mlp_trace::TraceSink;

/// The breaker state machine's position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: every op is allowed; failures and SLO violations are
    /// being counted.
    Closed,
    /// Tripped: ops are rejected while the tier cools down.
    Open,
    /// Probing: a limited number of ops are let through; enough
    /// successes close the breaker, any failure re-opens it.
    HalfOpen,
    /// Permanently open: the tier has tripped too many times in a row
    /// and is quarantined — no op will ever be allowed again and its
    /// durable state should be drained to surviving tiers.
    Quarantined,
}

impl BreakerState {
    /// Stable name for logs and meters.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
            BreakerState::Quarantined => "quarantined",
        }
    }

    /// Numeric encoding for the `health.{tier}.state` gauge
    /// (0 closed, 1 half-open, 2 open, 3 quarantined — ordered by
    /// severity so the gauge reads as "how broken").
    pub fn as_gauge(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
            BreakerState::Quarantined => 3,
        }
    }
}

/// Breaker thresholds. Every knob is a count, not a duration (except
/// the SLO itself), keeping the state machine deterministic under
/// seeded fault injection.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthConfig {
    /// Consecutive post-retry failures that trip a closed breaker.
    pub failure_threshold: u32,
    /// Per-op latency budget; `None` disables SLO-driven trips.
    pub latency_slo: Option<Duration>,
    /// Consecutive SLO violations that trip a closed breaker (a slow
    /// tier is a failing tier, just politer about it).
    pub slo_violation_threshold: u32,
    /// Rejected ops an open breaker absorbs before letting probe
    /// traffic through (the deterministic stand-in for a cooldown
    /// timer).
    pub cooldown_rejections: u32,
    /// Probe successes required in half-open to close the breaker.
    pub probe_successes: u32,
    /// Consecutive trips (without an intervening close) after which the
    /// breaker latches [`BreakerState::Quarantined`].
    pub max_trips: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            failure_threshold: 3,
            latency_slo: None,
            slo_violation_threshold: 8,
            cooldown_rejections: 4,
            probe_successes: 2,
            max_trips: 3,
        }
    }
}

impl HealthConfig {
    /// Adds a latency SLO: `violations` consecutive ops over `slo` trip
    /// the breaker.
    pub fn with_latency_slo(mut self, slo: Duration, violations: u32) -> Self {
        self.latency_slo = Some(slo);
        self.slo_violation_threshold = violations.max(1);
        self
    }

    /// A hair-trigger preset for tests: one failure trips, one trip
    /// quarantines.
    pub fn hair_trigger() -> Self {
        HealthConfig {
            failure_threshold: 1,
            latency_slo: None,
            slo_violation_threshold: 1,
            cooldown_rejections: 1,
            probe_successes: 1,
            max_trips: 1,
        }
    }
}

/// Counter snapshot for assertions and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthCounts {
    /// Post-retry failures recorded.
    pub failures: u64,
    /// Latency-SLO violations recorded.
    pub slo_violations: u64,
    /// Closed/half-open → open transitions.
    pub trips: u64,
    /// Ops rejected while open or quarantined.
    pub rejected: u64,
    /// Probe ops admitted in half-open.
    pub probes: u64,
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    consecutive_slo_violations: u32,
    /// Rejections absorbed since the breaker last opened.
    rejections_since_open: u32,
    /// Probe successes since entering half-open.
    probe_successes: u32,
    /// Trips since the breaker last closed.
    trips_since_close: u32,
    counts: HealthCounts,
}

/// One tier's circuit breaker. Thread-safe; clone the [`Arc`] into
/// every layer that observes the tier (the AIO engine records op
/// outcomes, the planner reads the state at iteration boundaries).
#[derive(Debug)]
pub struct TierHealth {
    name: String,
    cfg: HealthConfig,
    inner: Mutex<Inner>,
    trace: TraceSink,
}

impl TierHealth {
    /// A closed breaker for the tier named `name` (the meter-family
    /// key: `health.{name}.*`).
    pub fn new(name: impl Into<String>, cfg: HealthConfig) -> Arc<TierHealth> {
        TierHealth::with_trace(name, cfg, TraceSink::disabled())
    }

    /// As [`TierHealth::new`] with an observability sink: state changes
    /// and counts land on `health.{tier}.*` meters.
    pub fn with_trace(
        name: impl Into<String>,
        cfg: HealthConfig,
        trace: TraceSink,
    ) -> Arc<TierHealth> {
        let h = TierHealth {
            name: name.into(),
            cfg,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                consecutive_slo_violations: 0,
                rejections_since_open: 0,
                probe_successes: 0,
                trips_since_close: 0,
                counts: HealthCounts::default(),
            }),
            trace,
        };
        h.publish_state(BreakerState::Closed);
        Arc::new(h)
    }

    /// The tier name this breaker supervises.
    pub fn tier_name(&self) -> &str {
        &self.name
    }

    /// The configured thresholds.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    fn publish_state(&self, state: BreakerState) {
        if self.trace.is_enabled() {
            self.trace
                .gauge(&format!("health.{}.state", self.name))
                .set(state.as_gauge());
        }
    }

    fn bump(&self, meter: &str, by: u64) {
        if self.trace.is_enabled() {
            self.trace
                .counter(&format!("health.{}.{meter}", self.name))
                .add(by);
        }
    }

    fn trip(&self, inner: &mut Inner) {
        inner.counts.trips += 1;
        inner.trips_since_close += 1;
        inner.consecutive_failures = 0;
        inner.consecutive_slo_violations = 0;
        inner.rejections_since_open = 0;
        inner.probe_successes = 0;
        inner.state = if inner.trips_since_close >= self.cfg.max_trips {
            BreakerState::Quarantined
        } else {
            BreakerState::Open
        };
        self.bump("trips", 1);
        self.publish_state(inner.state);
    }

    /// Asks whether the next op against this tier should be issued.
    /// While open, each rejection counts toward the cooldown; once the
    /// budget is absorbed the breaker moves to half-open and admits
    /// probe traffic.
    pub fn allow(&self) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                inner.counts.probes += 1;
                self.bump("probes", 1);
                true
            }
            BreakerState::Quarantined => {
                inner.counts.rejected += 1;
                self.bump("rejected", 1);
                false
            }
            BreakerState::Open => {
                inner.rejections_since_open += 1;
                inner.counts.rejected += 1;
                self.bump("rejected", 1);
                if inner.rejections_since_open >= self.cfg.cooldown_rejections {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_successes = 0;
                    self.publish_state(BreakerState::HalfOpen);
                }
                false
            }
        }
    }

    /// Records a successful op and its observed latency. In half-open,
    /// enough successes close the breaker; in closed, an SLO violation
    /// streak trips it.
    pub fn record_success(&self, latency: Duration) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Quarantined => {}
            BreakerState::HalfOpen => {
                inner.probe_successes += 1;
                if inner.probe_successes >= self.cfg.probe_successes {
                    inner.state = BreakerState::Closed;
                    inner.trips_since_close = 0;
                    inner.consecutive_failures = 0;
                    inner.consecutive_slo_violations = 0;
                    self.publish_state(BreakerState::Closed);
                }
            }
            BreakerState::Closed | BreakerState::Open => {
                inner.consecutive_failures = 0;
                let violated = self.cfg.latency_slo.is_some_and(|slo| latency > slo);
                if violated {
                    inner.consecutive_slo_violations += 1;
                    inner.counts.slo_violations += 1;
                    self.bump("slo_violations", 1);
                    if inner.state == BreakerState::Closed
                        && inner.consecutive_slo_violations >= self.cfg.slo_violation_threshold
                    {
                        self.trip(&mut inner);
                    }
                } else {
                    inner.consecutive_slo_violations = 0;
                }
            }
        }
    }

    /// Records a post-retry failure. The caller reports the error *after*
    /// the retry layer resolved it — a transient error that exhausted its
    /// retry budget is just as much a failure as a permanent one; the
    /// class only flavors accounting.
    pub fn record_failure(&self, _e: &io::Error) {
        let mut inner = self.inner.lock();
        inner.counts.failures += 1;
        self.bump("failures", 1);
        match inner.state {
            BreakerState::Quarantined | BreakerState::Open => {}
            BreakerState::HalfOpen => {
                // A failed probe re-opens immediately (and may latch
                // quarantine via the trip counter).
                self.trip(&mut inner);
            }
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.cfg.failure_threshold {
                    self.trip(&mut inner);
                }
            }
        }
    }

    /// Latches the breaker permanently open, as if it had exhausted its
    /// trip budget (operator-driven quarantine, or an engine reacting to
    /// unrecoverable data loss).
    pub fn quarantine(&self) {
        let mut inner = self.inner.lock();
        if inner.state != BreakerState::Quarantined {
            inner.counts.trips += 1;
            inner.state = BreakerState::Quarantined;
            self.bump("trips", 1);
            self.publish_state(BreakerState::Quarantined);
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// Whether the breaker has latched permanently open.
    pub fn is_quarantined(&self) -> bool {
        self.state() == BreakerState::Quarantined
    }

    /// Counter snapshot.
    pub fn counts(&self) -> HealthCounts {
        self.inner.lock().counts
    }
}

/// The typed rejection an open or quarantined breaker returns in place
/// of issuing the op. Deliberately **permanent** under
/// [`classify`](crate::classify): retrying into an open breaker is pointless — the
/// open→half-open cooldown is counted in *fresh* ops hitting
/// [`TierHealth::allow`], not in retry spins of one op.
pub fn breaker_rejection(tier: &str, state: BreakerState) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionRefused,
        format!(
            "tier {tier} circuit breaker is {}: op rejected",
            state.as_str()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure() -> io::Error {
        io::Error::new(io::ErrorKind::PermissionDenied, "dead tier")
    }

    #[test]
    fn stays_closed_under_success() {
        let h = TierHealth::new("nvme", HealthConfig::default());
        for _ in 0..100 {
            assert!(h.allow());
            h.record_success(Duration::from_micros(50));
        }
        assert_eq!(h.state(), BreakerState::Closed);
        assert_eq!(h.counts().trips, 0);
    }

    #[test]
    fn consecutive_failures_trip_then_cooldown_then_probe_closes() {
        let cfg = HealthConfig {
            failure_threshold: 3,
            cooldown_rejections: 2,
            probe_successes: 2,
            max_trips: 5,
            ..HealthConfig::default()
        };
        let h = TierHealth::new("pfs", cfg);
        // Two failures with a success in between: no trip (consecutive).
        h.record_failure(&failure());
        h.record_failure(&failure());
        h.record_success(Duration::ZERO);
        h.record_failure(&failure());
        h.record_failure(&failure());
        assert_eq!(h.state(), BreakerState::Closed);
        h.record_failure(&failure());
        assert_eq!(h.state(), BreakerState::Open, "third consecutive trips");
        // Cooldown: two rejections, then half-open.
        assert!(!h.allow());
        assert_eq!(h.state(), BreakerState::Open);
        assert!(!h.allow());
        assert_eq!(h.state(), BreakerState::HalfOpen);
        // Probe successes close it.
        assert!(h.allow());
        h.record_success(Duration::ZERO);
        assert!(h.allow());
        h.record_success(Duration::ZERO);
        assert_eq!(h.state(), BreakerState::Closed);
        let c = h.counts();
        assert_eq!(c.trips, 1);
        assert_eq!(c.rejected, 2);
        assert_eq!(c.probes, 2);
    }

    #[test]
    fn failed_probe_reopens_and_repeated_trips_quarantine() {
        let cfg = HealthConfig {
            failure_threshold: 1,
            cooldown_rejections: 1,
            probe_successes: 1,
            max_trips: 2,
            ..HealthConfig::default()
        };
        let h = TierHealth::new("s3", cfg);
        h.record_failure(&failure());
        assert_eq!(h.state(), BreakerState::Open);
        assert!(!h.allow()); // cooldown absorbed → half-open
        assert_eq!(h.state(), BreakerState::HalfOpen);
        assert!(h.allow()); // probe admitted
        h.record_failure(&failure()); // probe fails → second trip → latch
        assert_eq!(h.state(), BreakerState::Quarantined);
        assert!(h.is_quarantined());
        // Quarantine is permanent: successes cannot revive it.
        assert!(!h.allow());
        h.record_success(Duration::ZERO);
        assert_eq!(h.state(), BreakerState::Quarantined);
    }

    #[test]
    fn latency_slo_streak_trips_like_failures() {
        let cfg = HealthConfig::default().with_latency_slo(Duration::from_millis(1), 3);
        let h = TierHealth::new("pfs", cfg);
        let slow = Duration::from_millis(50);
        h.record_success(slow);
        h.record_success(slow);
        // A fast op resets the streak.
        h.record_success(Duration::from_micros(10));
        h.record_success(slow);
        h.record_success(slow);
        assert_eq!(h.state(), BreakerState::Closed);
        h.record_success(slow);
        assert_eq!(h.state(), BreakerState::Open, "3 consecutive SLO misses");
        assert_eq!(h.counts().slo_violations, 5);
    }

    #[test]
    fn explicit_quarantine_latches() {
        let h = TierHealth::new("nvme", HealthConfig::default());
        h.quarantine();
        assert!(h.is_quarantined());
        assert!(!h.allow());
        assert_eq!(h.counts().trips, 1);
        h.quarantine(); // idempotent
        assert_eq!(h.counts().trips, 1);
    }

    #[test]
    fn meters_track_state_and_counts() {
        let sink = TraceSink::enabled();
        let h = TierHealth::with_trace("nvme", HealthConfig::hair_trigger(), sink.clone());
        h.record_failure(&failure());
        assert!(!h.allow());
        let snap = sink.metrics_snapshot();
        assert_eq!(snap.counter("health.nvme.failures"), Some(1));
        assert_eq!(snap.counter("health.nvme.trips"), Some(1));
        assert_eq!(snap.counter("health.nvme.rejected"), Some(1));
        let state = snap
            .gauges
            .iter()
            .find(|(k, _)| k == "health.nvme.state")
            .map(|(_, v)| *v);
        assert_eq!(state, Some(BreakerState::Quarantined.as_gauge()));
    }
}
