//! Plain-text end-of-run summary: per-tier bytes moved and mean
//! bandwidth, derived from the drained event stream.
//!
//! The Chrome export answers "what happened when"; this module answers
//! the two numbers the paper's tables lead with — how many bytes each
//! storage tier moved in each direction, and at what mean bandwidth
//! (bytes over the *busy* time of that tier/direction, i.e. the sum of
//! span durations, not the wall time of the run).

use std::collections::BTreeMap;

use crate::event::{EventKind, IoDirection, TraceEvent};

/// Aggregated I/O for one `(tier, direction)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TierIo {
    /// Number of I/O spans.
    pub ops: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Summed span durations in nanoseconds.
    pub busy_ns: u64,
}

impl TierIo {
    /// Mean bandwidth in bytes/second over busy time (0 if never busy).
    pub fn mean_bw(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            self.bytes as f64 / (self.busy_ns as f64 / 1e9)
        }
    }
}

/// Per-tier, per-direction I/O totals for one event stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IoSummary {
    /// `(tier, direction) -> totals`, sorted by tier then direction.
    pub per_tier: BTreeMap<(i32, u8), TierIo>,
}

/// Internal direction key: reads sort before writes.
fn dir_key(d: IoDirection) -> u8 {
    match d {
        IoDirection::Read => 0,
        IoDirection::Write => 1,
    }
}

impl IoSummary {
    /// Aggregates every tier-touching I/O span in `events`.
    pub fn from_events(events: &[TraceEvent]) -> IoSummary {
        let mut per_tier: BTreeMap<(i32, u8), TierIo> = BTreeMap::new();
        for ev in events {
            if ev.kind != EventKind::Span || ev.tier < 0 {
                continue;
            }
            let Some(dir) = ev.phase.direction() else {
                continue;
            };
            let slot = per_tier.entry((ev.tier, dir_key(dir))).or_default();
            slot.ops += 1;
            slot.bytes += ev.bytes;
            slot.busy_ns += ev.dur_ns;
        }
        IoSummary { per_tier }
    }

    /// Totals for one tier and direction.
    pub fn tier(&self, tier: i32, dir: IoDirection) -> TierIo {
        self.per_tier
            .get(&(tier, dir_key(dir)))
            .copied()
            .unwrap_or_default()
    }

    /// Total bytes moved across all tiers and directions.
    pub fn total_bytes(&self) -> u64 {
        self.per_tier.values().map(|t| t.bytes).sum()
    }

    /// Renders the summary as an aligned text table. `tier_names` maps
    /// a tier index to a label (indexes past the slice print as
    /// `tier<N>`).
    pub fn render(&self, tier_names: &[&str]) -> String {
        let mut rows: Vec<[String; 5]> = vec![[
            "tier".into(),
            "dir".into(),
            "ops".into(),
            "bytes".into(),
            "mean bandwidth".into(),
        ]];
        for (&(tier, dk), io) in &self.per_tier {
            let name = tier_names
                .get(tier as usize)
                .map(|s| (*s).to_owned())
                .unwrap_or_else(|| format!("tier{tier}"));
            let dir = if dk == 0 { "read" } else { "write" };
            rows.push([
                name,
                dir.into(),
                io.ops.to_string(),
                human_bytes(io.bytes),
                format!("{}/s", human_bytes(io.mean_bw() as u64)),
            ]);
        }
        render_table(&rows)
    }
}

/// `1536 -> "1.5 KiB"`, `0 -> "0 B"`; two significant decimals.
pub fn human_bytes(n: u64) -> String {
    const UNITS: &[&str] = &["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

/// Left-aligns every column to its widest cell, two-space separated.
fn render_table(rows: &[[String; 5]]) -> String {
    let mut widths = [0usize; 5];
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .zip(widths)
            .map(|(cell, w)| format!("{cell:<w$}"))
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
        if i == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::event::{Attrs, Phase};
    use crate::sink::TraceSink;

    fn sample() -> Vec<TraceEvent> {
        let s = TraceSink::with_capacity(16);
        // Tier 0: two reads totalling 3000 bytes over 2 µs busy.
        s.complete_span(
            Phase::Fetch,
            Attrs {
                tier: 0,
                ..Attrs::bytes(1000)
            },
            0,
            1_000,
        );
        s.complete_span(
            Phase::Fetch,
            Attrs {
                tier: 0,
                ..Attrs::bytes(2000)
            },
            1_000,
            2_000,
        );
        // Tier 1: one write of 5000 bytes over 5 µs busy.
        s.complete_span(
            Phase::Flush,
            Attrs {
                tier: 1,
                ..Attrs::bytes(5000)
            },
            0,
            5_000,
        );
        // Compute span and instants are excluded from I/O totals.
        s.complete_span(Phase::Backward, Attrs::NONE, 0, 9_000);
        s.instant(
            Phase::AioRetry,
            Attrs {
                tier: 0,
                ..Attrs::NONE
            },
            10,
        );
        s.events()
    }

    #[test]
    fn aggregates_per_tier_and_direction() {
        let sum = IoSummary::from_events(&sample());
        let r0 = sum.tier(0, IoDirection::Read);
        assert_eq!((r0.ops, r0.bytes, r0.busy_ns), (2, 3000, 2_000));
        assert!((r0.mean_bw() - 1.5e9).abs() < 1.0, "{}", r0.mean_bw());
        let w1 = sum.tier(1, IoDirection::Write);
        assert_eq!((w1.ops, w1.bytes), (1, 5000));
        assert_eq!(sum.tier(1, IoDirection::Read), TierIo::default());
        assert_eq!(sum.total_bytes(), 8000);
    }

    #[test]
    fn render_uses_tier_names_and_aligns() {
        let sum = IoSummary::from_events(&sample());
        let table = sum.render(&["nvme", "pfs"]);
        assert!(table.contains("nvme"), "{table}");
        assert!(table.contains("pfs"), "{table}");
        assert!(table.contains("read"), "{table}");
        assert!(table.contains("write"), "{table}");
        assert!(table.lines().count() >= 4, "{table}");
    }

    #[test]
    fn human_bytes_picks_sane_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(1536), "1.50 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024 * 1024), "3.00 GiB");
    }
}
