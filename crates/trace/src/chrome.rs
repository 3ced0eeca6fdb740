//! Chrome `trace_event` JSON export (and re-import).
//!
//! [`chrome_trace_json`] renders drained events in the Trace Event
//! Format understood by `chrome://tracing` and [Perfetto]: spans become
//! balanced `"B"`/`"E"` pairs on their `(pid, tid)` track, instants
//! become `"i"` marks, and optional process/thread names are emitted as
//! `"M"` metadata records. Timestamps are microseconds with three
//! decimals, preserving the events' nanosecond resolution exactly.
//!
//! [`parse_chrome_trace`] is the inverse: it re-builds [`TraceEvent`]s
//! from an exported file through the in-tree [`crate::json`] reader,
//! verifying on the way that every `"B"` has a matching `"E"`. It
//! exists so tests can prove the export round-trips (parse → re-emit →
//! byte-identical) and so downstream tooling can post-process traces
//! without a JSON dependency.
//!
//! [Perfetto]: https://ui.perfetto.dev

use std::collections::HashMap;

use crate::event::{EventKind, Phase, TraceEvent};
use crate::json::{self, Value};

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// Nanoseconds → microseconds with exactly three decimals (lossless).
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Exports `events` as a Chrome trace (object form, `traceEvents` key).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    chrome_trace_json_named(events, &[], &[])
}

/// [`chrome_trace_json`] plus `process_name` / `thread_name` metadata
/// records: `process_names` maps a pid to a label, `thread_names` maps
/// a `(pid, tid)` pair to a lane label.
pub fn chrome_trace_json_named(
    events: &[TraceEvent],
    process_names: &[(u32, &str)],
    thread_names: &[(u32, u32, &str)],
) -> String {
    // Each entry sorts by (timestamp, event seq, begin-before-end) so
    // the output is deterministic and replays in time order.
    let mut entries: Vec<(u64, u64, u8, String)> = Vec::with_capacity(events.len() * 2);
    for ev in events {
        let name = ev.phase.as_str();
        let common_args = format!(
            "\"seq\":{},\"tier\":{},\"subgroup\":{},\"bytes\":{}",
            ev.seq, ev.tier, ev.subgroup, ev.bytes
        );
        match ev.kind {
            EventKind::Span => {
                entries.push((
                    ev.ts_ns,
                    ev.seq,
                    0,
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"mlp\",\"ph\":\"B\",\"ts\":{},\
                         \"pid\":{},\"tid\":{},\"args\":{{{common_args}}}}}",
                        fmt_us(ev.ts_ns),
                        ev.pid,
                        ev.tid
                    ),
                ));
                entries.push((
                    ev.end_ns(),
                    ev.seq,
                    1,
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"mlp\",\"ph\":\"E\",\"ts\":{},\
                         \"pid\":{},\"tid\":{},\"args\":{{\"seq\":{}}}}}",
                        fmt_us(ev.end_ns()),
                        ev.pid,
                        ev.tid,
                        ev.seq
                    ),
                ));
            }
            EventKind::Instant => {
                entries.push((
                    ev.ts_ns,
                    ev.seq,
                    0,
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"mlp\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{{common_args}}}}}",
                        fmt_us(ev.ts_ns),
                        ev.pid,
                        ev.tid
                    ),
                ));
            }
        }
    }
    entries.sort_by_key(|e| (e.0, e.1, e.2));

    let mut parts: Vec<String> = Vec::with_capacity(entries.len() + 8);
    for (pid, name) in process_names {
        parts.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json::escape(name)
        ));
    }
    for (pid, tid, name) in thread_names {
        parts.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json::escape(name)
        ));
    }
    parts.extend(entries.into_iter().map(|(_, _, _, s)| s));

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&parts.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

// ---------------------------------------------------------------------------
// Re-import
// ---------------------------------------------------------------------------

/// Microseconds (fractional) → nanoseconds, rounding to the nearest.
fn us_to_ns(us: f64) -> u64 {
    (us * 1000.0).round() as u64
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|n| n as u64)
        .ok_or_else(|| format!("event missing numeric `{key}`"))
}

fn field_i64(v: &Value, key: &str) -> Result<i64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|n| n as i64)
        .ok_or_else(|| format!("event missing numeric `{key}`"))
}

/// Parses an exported Chrome trace back into [`TraceEvent`]s, sorted by
/// sequence number.
///
/// Accepts both the object form (`{"traceEvents": [...]}`) and a bare
/// array. Metadata (`"M"`) records are skipped. Fails when a span's
/// begin/end records are unbalanced, when a phase name is unknown, or
/// when the file is not valid JSON — so this doubles as a validator.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let doc = json::parse(text)?;
    let entries = match &doc {
        Value::Arr(items) => items.as_slice(),
        Value::Obj(_) => match doc.get("traceEvents") {
            Some(Value::Arr(items)) => items.as_slice(),
            _ => return Err("missing `traceEvents` array".into()),
        },
        _ => return Err("top level must be an array or object".into()),
    };

    let mut out: Vec<TraceEvent> = Vec::new();
    // Open B records keyed by (pid, tid, seq), awaiting their E.
    let mut open: HashMap<(u32, u32, u64), TraceEvent> = HashMap::new();
    for entry in entries {
        let ph = entry
            .get("ph")
            .and_then(Value::as_str)
            .ok_or("event missing `ph`")?;
        if ph == "M" {
            continue;
        }
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .ok_or("event missing `name`")?;
        let phase: Phase = name.parse()?;
        let pid = field_u64(entry, "pid")? as u32;
        let tid = field_u64(entry, "tid")? as u32;
        let ts_ns = us_to_ns(
            entry
                .get("ts")
                .and_then(Value::as_f64)
                .ok_or("event missing `ts`")?,
        );
        let args = entry.get("args").ok_or("event missing `args`")?;
        let seq = field_u64(args, "seq")?;
        match ph {
            "B" | "i" | "I" => {
                let ev = TraceEvent {
                    seq,
                    kind: if ph == "B" { EventKind::Span } else { EventKind::Instant },
                    phase,
                    pid,
                    tid,
                    tier: field_i64(args, "tier")? as i32,
                    subgroup: field_i64(args, "subgroup")?,
                    bytes: field_u64(args, "bytes")?,
                    ts_ns,
                    dur_ns: 0,
                };
                if ph == "B" {
                    if open.insert((pid, tid, seq), ev).is_some() {
                        return Err(format!("duplicate begin for seq {seq} on {pid}/{tid}"));
                    }
                } else {
                    out.push(ev);
                }
            }
            "E" => {
                let mut ev = open.remove(&(pid, tid, seq)).ok_or_else(|| {
                    format!("end without begin for seq {seq} on {pid}/{tid}")
                })?;
                if ts_ns < ev.ts_ns {
                    return Err(format!("span seq {seq} ends before it begins"));
                }
                ev.dur_ns = ts_ns - ev.ts_ns;
                out.push(ev);
            }
            other => return Err(format!("unsupported ph `{other}`")),
        }
    }
    if let Some((pid, tid, seq)) = open.keys().next() {
        return Err(format!("begin without end for seq {seq} on {pid}/{tid}"));
    }
    out.sort_by_key(|e| e.seq);
    Ok(out)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                seq: 0,
                kind: EventKind::Span,
                phase: Phase::Backward,
                pid: 1,
                tid: 0,
                ts_ns: 1_000,
                dur_ns: 5_500,
                ..TraceEvent::EMPTY
            },
            TraceEvent {
                seq: 1,
                kind: EventKind::Span,
                phase: Phase::Flush,
                pid: 1,
                tid: 2,
                tier: 1,
                subgroup: 7,
                bytes: 4096,
                ts_ns: 2_001,
                dur_ns: 10_000,
            },
            TraceEvent {
                seq: 2,
                kind: EventKind::Instant,
                phase: Phase::AioRetry,
                pid: 1,
                tid: 2,
                tier: 0,
                ts_ns: 3_333,
                ..TraceEvent::EMPTY
            },
        ]
    }

    #[test]
    fn export_parses_back_to_the_same_events() {
        let events = sample_events();
        let json = chrome_trace_json(&events);
        let parsed = parse_chrome_trace(&json).expect("valid trace");
        assert_eq!(parsed, events);
    }

    #[test]
    fn re_emission_is_byte_identical() {
        let json = chrome_trace_json(&sample_events());
        let parsed = parse_chrome_trace(&json).expect("valid trace");
        assert_eq!(chrome_trace_json(&parsed), json);
    }

    #[test]
    fn metadata_records_are_emitted_and_skipped_on_parse() {
        let events = sample_events();
        let json = chrome_trace_json_named(
            &events,
            &[(1, "mlp-offload")],
            &[(1, 0, "compute"), (1, 2, "pfs")],
        );
        assert!(json.contains("process_name"));
        assert!(json.contains("thread_name"));
        assert_eq!(parse_chrome_trace(&json).expect("valid"), events);
    }

    #[test]
    fn unbalanced_spans_are_rejected() {
        let json = r#"{"traceEvents":[
            {"name":"flush","cat":"mlp","ph":"B","ts":1.000,"pid":0,"tid":0,
             "args":{"seq":0,"tier":0,"subgroup":-1,"bytes":8}}
        ]}"#;
        let err = parse_chrome_trace(json).unwrap_err();
        assert!(err.contains("begin without end"), "{err}");

        let json = r#"[{"name":"flush","ph":"E","ts":2.000,"pid":0,"tid":0,"args":{"seq":0}}]"#;
        let err = parse_chrome_trace(json).unwrap_err();
        assert!(err.contains("end without begin"), "{err}");
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in ["", "{", "[{]", "{\"traceEvents\":3}", "[1,2,", "nul"] {
            assert!(parse_chrome_trace(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn timestamps_preserve_nanosecond_resolution() {
        assert_eq!(fmt_us(0), "0.000");
        assert_eq!(fmt_us(1), "0.001");
        assert_eq!(fmt_us(1_234_567), "1234.567");
        assert_eq!(us_to_ns(1234.567), 1_234_567);
        // A large virtual timestamp (hundreds of seconds) survives the
        // f64 round trip.
        let big = 987_654_321_012_345u64;
        let us: f64 = fmt_us(big).parse().expect("number");
        assert_eq!(us_to_ns(us), big);
    }
}
