//! Property tests for the Chrome `trace_event` exporter: for arbitrary
//! event streams the export must parse back to identical spans, re-emit
//! byte-identically, keep its records in monotone timestamp order, and
//! keep every span's begin/end balanced.

use mlp_testkit::{cases, Gen};
use mlp_trace::{chrome_trace_json, parse_chrome_trace, EventKind, TraceEvent, ALL_PHASES};

/// SplitMix64: one u64 seed → a stream of independent field values.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministically expands one seed into a valid event. `seq` is the
/// index in the stream (unique, as the sink guarantees).
fn event_from_seed(seq: u64, seed: u64) -> TraceEvent {
    let f = |salt: u64| mix(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407));
    let phase = ALL_PHASES[(f(1) % ALL_PHASES.len() as u64) as usize];
    let kind = if f(2) % 3 == 0 { EventKind::Instant } else { EventKind::Span };
    TraceEvent {
        seq,
        kind,
        phase,
        pid: (f(3) % 4) as u32,
        tid: (f(4) % 8) as u32,
        tier: (f(5) % 3) as i32 - 1,
        subgroup: (f(6) % 100) as i64 - 1,
        bytes: f(7) % (1 << 40),
        // Hundreds of virtual seconds, nanosecond resolution.
        ts_ns: f(8) % 500_000_000_000,
        dur_ns: if kind == EventKind::Span { f(9) % 10_000_000_000 } else { 0 },
    }
}

fn events_from_seeds(seeds: &[u64]) -> Vec<TraceEvent> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| event_from_seed(i as u64, s))
        .collect()
}

/// Timestamps of the exported records, in file order.
fn record_timestamps(json: &str) -> Vec<f64> {
    json.lines()
        .filter(|l| l.contains("\"ts\":"))
        .map(|l| {
            let rest = &l[l.find("\"ts\":").expect("ts") + 5..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            rest[..end].parse::<f64>().expect("ts number")
        })
        .collect()
}

/// Cases per property.
const CASES: u64 = 64;

/// parse(emit(events)) == events, exactly.
#[test]
fn export_round_trips_to_identical_spans() {
    cases(CASES, |g| {
        let events = events_from_seeds(&g.vec(0..60, Gen::u64));
        let json = chrome_trace_json(&events);
        let parsed = parse_chrome_trace(&json).expect("exported trace must parse");
        assert_eq!(parsed, events);
    });
}

/// emit(parse(emit(events))) is byte-identical to emit(events).
#[test]
fn re_emission_is_byte_identical() {
    cases(CASES, |g| {
        let events = events_from_seeds(&g.vec(0..60, Gen::u64));
        let first = chrome_trace_json(&events);
        let reparsed = parse_chrome_trace(&first).expect("first export must parse");
        let second = chrome_trace_json(&reparsed);
        assert_eq!(second, first);
    });
}

/// Exported records appear in monotone (non-decreasing) timestamp
/// order, and begin/end marks are balanced for every span.
#[test]
fn output_is_time_ordered_and_balanced() {
    cases(CASES, |g| {
        let events = events_from_seeds(&g.vec(1..60, Gen::u64));
        let json = chrome_trace_json(&events);

        let ts = record_timestamps(&json);
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "timestamps must be non-decreasing: {ts:?}"
        );

        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        let spans = events.iter().filter(|e| e.kind == EventKind::Span).count();
        assert_eq!(begins, spans);
        assert_eq!(begins, ends);
    });
}

/// Corrupting any single span's end record breaks the balance and
/// the parser says so (the validator actually validates).
#[test]
fn parser_rejects_unbalanced_streams() {
    cases(CASES, |g| {
        // Force a span so there is an E record to delete.
        let mut ev = event_from_seed(0, g.u64() | 1);
        ev.kind = EventKind::Span;
        let json = chrome_trace_json(&[ev]);
        let without_end: String = json
            .lines()
            .filter(|l| !l.contains("\"ph\":\"E\""))
            .collect::<Vec<_>>()
            .join("\n")
            // Drop a trailing comma left before the closing bracket.
            .replace(",\n]", "\n]");
        let err = parse_chrome_trace(&without_end).expect_err("must reject");
        assert!(err.contains("begin without end"), "{}", err);
    });
}

#[test]
fn phase_names_survive_the_chrome_name_field() {
    // Every phase in the taxonomy must be expressible and recoverable.
    let events: Vec<TraceEvent> = ALL_PHASES
        .iter()
        .enumerate()
        .map(|(i, &p)| TraceEvent {
            seq: i as u64,
            kind: EventKind::Span,
            phase: p,
            ts_ns: i as u64 * 100,
            dur_ns: 50,
            ..TraceEvent::EMPTY
        })
        .collect();
    let parsed = parse_chrome_trace(&chrome_trace_json(&events)).expect("valid");
    assert_eq!(parsed, events);
}
