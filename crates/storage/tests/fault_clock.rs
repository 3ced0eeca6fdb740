//! The fault injector's latency spikes sleep on its injected clock.

use std::sync::Arc;
use std::time::Duration;

use mlp_storage::{Backend, FaultConfig, FaultInjectBackend, MemBackend};
use mlp_testkit::ManualClock;

/// A 30 s spike blocks its call until the clock has passed it, and no
/// longer.
#[test]
fn a_latency_spike_blocks_until_the_clock_passes_it() {
    let clock = Arc::new(ManualClock::new());
    let inner = Arc::new(MemBackend::new("mem"));
    inner.write("k", &[7u8; 64]).unwrap();
    let spikes = FaultConfig::none(3).with_latency_spikes(1.0, Duration::from_secs(30));
    let b = Arc::new(FaultInjectBackend::new(inner, spikes).with_clock(clock.clone()));
    let read = {
        let b = Arc::clone(&b);
        std::thread::spawn(move || b.read("k").map(|v| v.len()))
    };
    while !clock.advance_if(Duration::from_secs(29), |w| w.asleep == 1) {
        std::thread::yield_now();
    }
    assert!(!read.is_finished(), "the spike ended a second early");
    clock.advance(Duration::from_secs(1));
    assert_eq!(read.join().unwrap().unwrap(), 64);
    assert_eq!(b.counts().latency_spikes, 1);
}
