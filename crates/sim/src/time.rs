//! Virtual-time representation and conversion helpers.
//!
//! Simulated time is a monotonically non-decreasing count of nanoseconds
//! since the start of the simulation. Integer nanoseconds keep event ordering
//! exact and runs reproducible; conversions to floating-point seconds are
//! provided for reporting and for the fluid-flow bandwidth math.

/// Simulated time in nanoseconds since the simulation epoch.
pub type SimTime = u64;

/// Nanoseconds per second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// Converts seconds (may be fractional) to a [`SimTime`] duration.
///
/// Negative or non-finite inputs saturate to zero; durations are clamped to
/// `u64::MAX` nanoseconds (~584 years of simulated time).
#[inline]
pub fn secs(s: f64) -> SimTime {
    if s.is_nan() || s <= 0.0 {
        return 0;
    }
    let ns = s * NS_PER_SEC as f64;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    }
}

/// Converts a [`SimTime`] to floating-point seconds.
#[inline]
pub fn to_secs(t: SimTime) -> f64 {
    t as f64 / NS_PER_SEC as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_round_trips_whole_seconds() {
        assert_eq!(secs(1.0), NS_PER_SEC);
        assert_eq!(secs(2.5), 2_500_000_000);
        assert_eq!(to_secs(secs(3.25)), 3.25);
    }

    #[test]
    fn secs_saturates_on_garbage() {
        assert_eq!(secs(-1.0), 0);
        assert_eq!(secs(f64::NAN), 0);
        assert_eq!(secs(f64::INFINITY), u64::MAX);
    }
}
