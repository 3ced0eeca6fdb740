//! Turns the samples of a run into named metrics: the end-to-end metrics of
//! an untraced run, and the per-layer attribution of a traced one (the
//! benchmark's own spans, the counts the public API returns, and the events
//! read back from the program's existing sink).

use crate::sut::{EngineChoice, Event, EventKind, IterCounts};
use crate::workloads::{IterSample, Measured, Workload};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

// ---------------------------------------------------------------------------
// the metric tables (BENCHMARK.json lists the same, in the same order)
// ---------------------------------------------------------------------------

/// `(name, unit, better, bound)`: the metrics a user of the system sees,
/// measured with tracing off. `bound` is the share of the parent's median
/// by which a later change may worsen the metric.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("iter_s", "s", "lower", 0.15),
    ("update_mparams_per_s", "Mparam/s", "higher", 0.15),
    // An exact count: any positive bound only has to be smaller than one
    // avoided or added transfer.
    ("tier_bytes_per_param", "B/param", "lower", 0.001),
    ("peak_rss_mib", "MiB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`: the per-layer metrics of a `--trace 1` run.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    ("core.update_s_per_iter", "s", "lower"),
    ("core.accumulate_s_per_iter", "s", "lower"),
    ("core.iter_s_p50", "s", "lower"),
    ("core.iter_s_p90", "s", "lower"),
    ("core.cpu_s_per_iter", "s", "lower"),
    ("core.exposed_s_per_iter", "s", "lower"),
    ("core.overlap_ratio", "ratio", "higher"),
    ("core.cache_hits_per_iter", "count", "higher"),
    ("core.fetches_per_iter", "count", "lower"),
    ("core.flushes_per_iter", "count", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    // Best at the tier's bandwidth share (2/3 on `throttled_mlp`), which
    // the program approaches from below.
    ("core.tier0_byte_share", "ratio", "higher"),
    ("core.io_retries", "count", "lower"),
    ("core.io_errors", "count", "lower"),
    ("optim.kernel_s_per_iter", "s", "lower"),
    ("optim.kernel_calls_per_iter", "count", "lower"),
    ("optim.kernel_mparams_per_s", "Mparam/s", "higher"),
    ("aio.read_ops_per_iter", "count", "lower"),
    ("aio.write_ops_per_iter", "count", "lower"),
    ("aio.read_s_per_iter", "s", "lower"),
    ("aio.write_s_per_iter", "s", "lower"),
    ("aio.read_us_p50", "us", "lower"),
    ("aio.read_us_p90", "us", "lower"),
    ("aio.write_us_p50", "us", "lower"),
    ("aio.write_us_p90", "us", "lower"),
    ("aio.handoff_s_per_iter", "s", "lower"),
    ("storage.tier0_read_s_per_iter", "s", "lower"),
    ("storage.tier0_write_s_per_iter", "s", "lower"),
    ("storage.tier1_read_s_per_iter", "s", "lower"),
    ("storage.tier1_write_s_per_iter", "s", "lower"),
    ("storage.tier0_bytes_per_iter", "B", "lower"),
    ("storage.tier1_bytes_per_iter", "B", "lower"),
    ("tensor.pool_acquires_per_iter", "count", "lower"),
    ("tensor.pool_high_water", "count", "lower"),
    ("tensor.pool_capacity", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.events_per_iter", "count", "lower"),
    ("trace.overflow_events", "count", "lower"),
    ("zero3.grad_bytes_per_param", "B/param", "lower"),
    ("zero3.grad_flush_s_per_iter", "s", "lower"),
    ("zero3.fetches_per_iter", "count", "lower"),
    ("optim.probe_fused_mparams_per_s", "Mparam/s", "higher"),
    ("optim.probe_roofline_share", "ratio", "higher"),
    ("aio.probe_roundtrip_us_p50", "us", "lower"),
    ("aio.probe_roundtrip_us_p99", "us", "lower"),
    ("aio.probe_write_gbps", "GB/s", "higher"),
    ("aio.probe_read_gbps", "GB/s", "higher"),
    ("aio.probe_write_efficiency", "ratio", "higher"),
    ("aio.probe_read_efficiency", "ratio", "higher"),
    ("aio.probe_lock_acquire_ns", "ns", "lower"),
    ("aio.probe_lock_handoff_us", "us", "lower"),
    ("storage.probe_write_gbps", "GB/s", "higher"),
    ("storage.probe_read_gbps", "GB/s", "higher"),
    ("storage.probe_raw_write_gbps", "GB/s", "higher"),
    ("storage.probe_raw_read_gbps", "GB/s", "higher"),
    ("storage.probe_write_roofline_share", "ratio", "higher"),
    ("storage.probe_crc_write_gbps", "GB/s", "higher"),
    ("storage.probe_crc_read_gbps", "GB/s", "higher"),
    ("tensor.probe_pool_acquire_ns", "ns", "lower"),
    ("tensor.probe_memcpy_gbps", "GB/s", "higher"),
    ("tensor.probe_upscale_gbps", "GB/s", "higher"),
];

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in (0, 100]; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The timing a run reports for its iterations: the fastest one.
/// Disturbance on a shared box only ever adds time, and it comes in spells
/// that outlast a run, so the median follows the spells a run happened to
/// see while the minimum follows the code (README.md, "Why the fastest
/// iteration"). The median and the tail are reported per layer
/// (`core.iter_s_p50`, `_p90`). 0 when empty.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nanoseconds of `parent` covered by the union of `children` (each a
/// `(start, end)` pair): a layer's self time is its span minus this.
pub fn covered_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    covered
}

// ---------------------------------------------------------------------------
// end to end (untraced run)
// ---------------------------------------------------------------------------

/// Bytes moved through tiers per parameter in one iteration, from the
/// counts `update` returned.
fn tier_bytes_per_param(w: &Workload, s: &IterSample) -> f64 {
    let c = s.counts.unwrap_or_default();
    let state = (c.fetches + c.flushes) as f64 * w.object_bytes() as f64;
    (state + c.grad_bytes as f64) / w.params() as f64
}

/// The end-to-end metrics, in the order BENCHMARK.json lists them. Timings
/// are the [`fastest`] value over the measured iterations.
pub fn end_to_end(w: &Workload, run: &Measured, setup_s: f64, peak_rss_mib: f64) -> Vec<Metric> {
    let of = |f: fn(&IterSample) -> f64| run.samples.iter().map(f).collect::<Vec<_>>();
    let update_s = fastest(&of(IterSample::update_s));
    let bytes: Vec<f64> = run
        .samples
        .iter()
        .map(|s| tier_bytes_per_param(w, s))
        .collect();
    vec![
        metric("iter_s", fastest(&of(IterSample::iter_s)), "s"),
        metric(
            "update_mparams_per_s",
            ratio(w.params() as f64 / 1e6, update_s),
            "Mparam/s",
        ),
        metric(
            "tier_bytes_per_param",
            ratio(bytes.iter().sum(), bytes.len() as f64),
            "B/param",
        ),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// Whether every iteration moved the bytes the counts of the first one
/// imply: the quantity must repeat exactly within a run.
pub fn tier_bytes_repeat(w: &Workload, run: &Measured) -> bool {
    let mut per_iter = run.samples.iter().map(|s| tier_bytes_per_param(w, s));
    match per_iter.next() {
        Some(first) => per_iter.all(|b| b == first),
        None => true,
    }
}

// ---------------------------------------------------------------------------
// per layer (traced run)
// ---------------------------------------------------------------------------

/// What the engine's public counters said after the traced run.
pub struct EngineCounts {
    pub pool_high_water: u64,
    pub pool_capacity: u64,
    pub io_retries: u64,
    pub io_errors: u64,
    pub overflow_events: u64,
}

fn span(e: &Event) -> (u64, u64) {
    (e.start_ns, e.start_ns + e.dur_ns)
}

/// The per-layer metrics that come from the two measured segments of a
/// `--trace 1` run: `plain` with tracing off (the tail and the overhead
/// base), `traced` with the program's sink on. Probe metrics are added by
/// the caller. All `*_per_iter` values are totals over the traced
/// iterations divided by their count, so `optim.kernel_s_per_iter +
/// core.exposed_s_per_iter == core.update_s_per_iter` holds exactly.
pub fn per_layer(
    w: &Workload,
    plain: &Measured,
    traced: &Measured,
    counts: &EngineCounts,
) -> Vec<Metric> {
    let iters = traced.samples.len() as f64;
    let per_iter = |total: f64| ratio(total, iters);
    let secs = |ns: u64| ns as f64 * 1e-9;
    let total_of = |f: fn(&IterSample) -> f64| traced.samples.iter().map(f).sum::<f64>();

    // Sums over the program's events, iteration by iteration.
    let mut kernel_ns = 0u64;
    let mut kernel_calls = 0u64;
    let mut kernel_covered_ns = 0u64;
    let mut aio_ns = [0u64; 2]; // read, write
    let mut aio_us: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut tier_ns = [[0u64; 2]; 2]; // [tier][read, write]
    let mut tier_bytes = [0u64; 2];
    let mut tier_write_bytes = [0u64; 2];
    let mut pool_acquires = 0u64;
    let mut events = 0u64;
    for (sample, evs) in traced.samples.iter().zip(&traced.events) {
        let update = (sample.grads_flushed_ns, sample.end_ns);
        let mut kernels = Vec::new();
        events += evs.len() as u64;
        for e in evs {
            let dir = match e.kind {
                EventKind::AioRead | EventKind::TierRead => 0,
                _ => 1,
            };
            match e.kind {
                EventKind::UpdateKernel => {
                    kernel_ns += e.dur_ns;
                    kernel_calls += 1;
                    kernels.push(span(e));
                }
                EventKind::AioRead | EventKind::AioWrite => {
                    aio_ns[dir] += e.dur_ns;
                    aio_us[dir].push(e.dur_ns as f64 * 1e-3);
                }
                EventKind::TierRead | EventKind::TierWrite => {
                    let tier = (e.tier.max(0) as usize).min(1);
                    tier_ns[tier][dir] += e.dur_ns;
                    tier_bytes[tier] += e.bytes;
                    if dir == 1 {
                        tier_write_bytes[tier] += e.bytes;
                    }
                }
                EventKind::PoolAcquire => pool_acquires += 1,
                _ => {}
            }
        }
        kernel_covered_ns += covered_ns(update, &kernels);
    }

    let update_s = total_of(IterSample::update_s);
    let all_aio_ns = aio_ns[0] + aio_ns[1];
    let all_tier_ns: u64 = tier_ns.iter().flatten().sum();
    let counted = |f: fn(&IterCounts) -> u64| {
        traced
            .samples
            .iter()
            .filter_map(|s| s.counts.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let (hits, fetches, flushes) = (
        counted(|c| c.cache_hits),
        counted(|c| c.fetches),
        counted(|c| c.flushes),
    );
    let grad_bytes = counted(|c| c.grad_bytes);
    let plain_iter: Vec<f64> = plain.samples.iter().map(IterSample::iter_s).collect();
    let plain_cpu: Vec<f64> = plain.samples.iter().map(|s| s.cpu_s).collect();
    let traced_iter: Vec<f64> = traced.samples.iter().map(IterSample::iter_s).collect();
    let zero3 = |v: f64| {
        if w.engine == EngineChoice::Zero3 {
            v
        } else {
            0.0
        }
    };

    vec![
        // core
        metric("core.update_s_per_iter", per_iter(update_s), "s"),
        metric(
            "core.accumulate_s_per_iter",
            per_iter(total_of(IterSample::accumulate_s)),
            "s",
        ),
        metric("core.iter_s_p50", median(&plain_iter), "s"),
        metric("core.iter_s_p90", percentile(&plain_iter, 90.0), "s"),
        metric("core.cpu_s_per_iter", fastest(&plain_cpu), "s"),
        metric(
            "core.exposed_s_per_iter",
            per_iter(update_s - secs(kernel_covered_ns)),
            "s",
        ),
        metric(
            "core.overlap_ratio",
            ratio(secs(all_aio_ns + kernel_ns), update_s),
            "ratio",
        ),
        metric("core.cache_hits_per_iter", per_iter(hits), "count"),
        metric("core.fetches_per_iter", per_iter(fetches), "count"),
        metric("core.flushes_per_iter", per_iter(flushes), "count"),
        metric("core.cache_hit_ratio", ratio(hits, hits + fetches), "ratio"),
        metric(
            "core.tier0_byte_share",
            ratio(
                tier_write_bytes[0] as f64,
                (tier_write_bytes[0] + tier_write_bytes[1]) as f64,
            ),
            "ratio",
        ),
        metric("core.io_retries", counts.io_retries as f64, "count"),
        metric("core.io_errors", counts.io_errors as f64, "count"),
        // optim
        metric(
            "optim.kernel_s_per_iter",
            per_iter(secs(kernel_covered_ns)),
            "s",
        ),
        metric(
            "optim.kernel_calls_per_iter",
            per_iter(kernel_calls as f64),
            "count",
        ),
        metric(
            "optim.kernel_mparams_per_s",
            ratio(kernel_calls as f64 * w.n as f64 / 1e6, secs(kernel_ns)),
            "Mparam/s",
        ),
        // aio
        metric(
            "aio.read_ops_per_iter",
            per_iter(aio_us[0].len() as f64),
            "count",
        ),
        metric(
            "aio.write_ops_per_iter",
            per_iter(aio_us[1].len() as f64),
            "count",
        ),
        metric("aio.read_s_per_iter", per_iter(secs(aio_ns[0])), "s"),
        metric("aio.write_s_per_iter", per_iter(secs(aio_ns[1])), "s"),
        metric("aio.read_us_p50", median(&aio_us[0]), "us"),
        metric("aio.read_us_p90", percentile(&aio_us[0], 90.0), "us"),
        metric("aio.write_us_p50", median(&aio_us[1]), "us"),
        metric("aio.write_us_p90", percentile(&aio_us[1], 90.0), "us"),
        metric(
            "aio.handoff_s_per_iter",
            per_iter(secs(all_aio_ns.saturating_sub(all_tier_ns))),
            "s",
        ),
        // storage
        metric(
            "storage.tier0_read_s_per_iter",
            per_iter(secs(tier_ns[0][0])),
            "s",
        ),
        metric(
            "storage.tier0_write_s_per_iter",
            per_iter(secs(tier_ns[0][1])),
            "s",
        ),
        metric(
            "storage.tier1_read_s_per_iter",
            per_iter(secs(tier_ns[1][0])),
            "s",
        ),
        metric(
            "storage.tier1_write_s_per_iter",
            per_iter(secs(tier_ns[1][1])),
            "s",
        ),
        metric(
            "storage.tier0_bytes_per_iter",
            per_iter(tier_bytes[0] as f64),
            "B",
        ),
        metric(
            "storage.tier1_bytes_per_iter",
            per_iter(tier_bytes[1] as f64),
            "B",
        ),
        // tensor
        metric(
            "tensor.pool_acquires_per_iter",
            per_iter(pool_acquires as f64),
            "count",
        ),
        metric(
            "tensor.pool_high_water",
            counts.pool_high_water as f64,
            "count",
        ),
        metric("tensor.pool_capacity", counts.pool_capacity as f64, "count"),
        // trace
        metric(
            "trace.overhead_ratio",
            ratio(fastest(&traced_iter), fastest(&plain_iter)),
            "ratio",
        ),
        metric("trace.events_per_iter", per_iter(events as f64), "count"),
        metric(
            "trace.overflow_events",
            counts.overflow_events as f64,
            "count",
        ),
        // zero3
        metric(
            "zero3.grad_bytes_per_param",
            zero3(ratio(per_iter(grad_bytes), w.params() as f64)),
            "B/param",
        ),
        metric(
            "zero3.grad_flush_s_per_iter",
            zero3(per_iter(total_of(IterSample::grad_flush_s))),
            "s",
        ),
        metric("zero3.fetches_per_iter", zero3(per_iter(fetches)), "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(percentile(&v, 90.0), 9.0);
    }

    #[test]
    fn covered_time_is_the_union_clipped_to_the_parent() {
        // Children overlap each other and stick out of the parent.
        assert_eq!(
            covered_ns((10, 100), &[(0, 20), (15, 30), (50, 60), (90, 120)]),
            40
        );
        assert_eq!(covered_ns((10, 100), &[]), 0);
    }
}
