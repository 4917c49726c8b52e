//! Chrome `trace_event` exporter: turns a drained [`TraceSession`] into a
//! JSON timeline loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Workers map to `tid`s, paired begin/end events fold into complete
//! (`"ph": "X"`) duration events, and unpaired begins are emitted as
//! zero-length spans so a truncated recording still loads.
//!
//! [`TraceSession`]: crate::trace::TraceSession

use crate::event::{Event, EventKind};
use crate::json::Json;
use std::collections::HashMap;

/// Category + open-timestamp key for pairing begin/end kinds.
#[derive(Hash, PartialEq, Eq, Clone, Copy)]
struct SpanKey {
    worker: u32,
    subject: u32,
    cat: &'static str,
}

fn span_parts(kind: EventKind) -> Option<(&'static str, bool)> {
    // (category, is_begin)
    match kind {
        EventKind::FiringStart => Some(("firing", true)),
        EventKind::FiringEnd => Some(("firing", false)),
        EventKind::RingPushStallBegin => Some(("push_stall", true)),
        EventKind::RingPushStallEnd => Some(("push_stall", false)),
        EventKind::RingPopStallBegin => Some(("pop_stall", true)),
        EventKind::RingPopStallEnd => Some(("pop_stall", false)),
        EventKind::Park => Some(("park", true)),
        EventKind::Unpark => Some(("park", false)),
        EventKind::FaultInjected
        | EventKind::StageFailed
        | EventKind::DrainBegin
        | EventKind::WatchdogFire
        | EventKind::SessionAdmitted
        | EventKind::SessionRejected
        | EventKind::CacheHit
        | EventKind::CacheMiss
        | EventKind::SessionQuarantined
        | EventKind::SessionClosed
        | EventKind::SetParam
        | EventKind::Reconfigure
        | EventKind::FissionReplica => None,
    }
}

/// Point-in-time kinds exported as Chrome instant (`"ph": "i"`) events.
fn instant_cat(kind: EventKind) -> Option<&'static str> {
    match kind {
        EventKind::FaultInjected => Some("fault"),
        EventKind::StageFailed => Some("failure"),
        EventKind::DrainBegin => Some("drain"),
        EventKind::WatchdogFire => Some("watchdog"),
        EventKind::FissionReplica => Some("fission"),
        EventKind::SessionAdmitted
        | EventKind::SessionRejected
        | EventKind::CacheHit
        | EventKind::CacheMiss
        | EventKind::SessionQuarantined
        | EventKind::SessionClosed
        | EventKind::SetParam
        | EventKind::Reconfigure => Some("service"),
        _ => None,
    }
}

fn instant_event(kind: EventKind, cat: &'static str, worker: u32, ev: Event) -> Json {
    Json::obj([
        ("name", Json::Str(kind.label().to_string())),
        ("cat", Json::Str(cat.to_string())),
        ("ph", Json::Str("i".into())),
        ("s", Json::Str("t".into())),
        ("ts", Json::Num(ev.ts_ns as f64 / 1000.0)),
        ("pid", Json::Num(0.0)),
        ("tid", Json::Num(worker as f64)),
        (
            "args",
            Json::obj([
                ("subject", Json::Num(ev.subject as f64)),
                ("aux", Json::Num(ev.aux as f64)),
            ]),
        ),
    ])
}

fn span_name(cat: &str, subject: u32, node_names: &[String]) -> String {
    match cat {
        "firing" => node_names
            .get(subject as usize)
            .cloned()
            .unwrap_or_else(|| format!("node{subject}")),
        other => format!("{other} e{subject}"),
    }
}

fn complete_event(
    name: String,
    cat: &'static str,
    worker: u32,
    start_ns: u64,
    dur_ns: u64,
    aux: u64,
) -> Json {
    Json::obj([
        ("name", Json::Str(name)),
        ("cat", Json::Str(cat.to_string())),
        ("ph", Json::Str("X".into())),
        // trace_event timestamps are microseconds; keep sub-us precision.
        ("ts", Json::Num(start_ns as f64 / 1000.0)),
        ("dur", Json::Num(dur_ns as f64 / 1000.0)),
        ("pid", Json::Num(0.0)),
        ("tid", Json::Num(worker as f64)),
        ("args", Json::obj([("aux", Json::Num(aux as f64))])),
    ])
}

/// Build the trace document from `(worker, event)` pairs (as produced by
/// `TraceSession::drain`). `node_names` maps node ids to display names
/// for firing spans; unknown ids fall back to `node<id>`.
pub fn chrome_trace(events: &[(u32, Event)], node_names: &[String]) -> Json {
    let mut out: Vec<Json> = Vec::with_capacity(events.len() / 2 + 8);
    // Stack per key: firings of the same node on the same worker nest
    // (they don't in practice, but the exporter must not corrupt if so).
    let mut open: HashMap<SpanKey, Vec<u64>> = HashMap::new();
    for &(worker, ev) in events {
        let Some((cat, is_begin)) = span_parts(ev.kind) else {
            if let Some(icat) = instant_cat(ev.kind) {
                out.push(instant_event(ev.kind, icat, worker, ev));
            }
            continue;
        };
        let key = SpanKey {
            worker,
            subject: ev.subject,
            cat,
        };
        if is_begin {
            open.entry(key).or_default().push(ev.ts_ns);
        } else if let Some(start) = open.get_mut(&key).and_then(Vec::pop) {
            out.push(complete_event(
                span_name(cat, ev.subject, node_names),
                cat,
                worker,
                start,
                ev.ts_ns.saturating_sub(start),
                ev.aux,
            ));
        }
        // An end with no matching begin is dropped: the ring overwrote or
        // never saw the begin, and a negative-duration span would make
        // the viewer reject the whole file.
    }
    // Truncated recordings leave begins open; emit them zero-length so
    // they are visible rather than silently lost.
    for (key, starts) in open {
        for start in starts {
            out.push(complete_event(
                span_name(key.cat, key.subject, node_names),
                key.cat,
                key.worker,
                start,
                0,
                0,
            ));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, kind: EventKind, subject: u32, aux: u64) -> Event {
        Event {
            ts_ns,
            kind,
            subject,
            aux,
        }
    }

    fn names() -> Vec<String> {
        vec!["src".into(), "scale".into()]
    }

    #[test]
    fn pairs_fold_into_complete_events() {
        let events = vec![
            (0u32, ev(1000, EventKind::FiringStart, 0, 0)),
            (0u32, ev(3000, EventKind::FiringEnd, 0, 17)),
            (1u32, ev(2000, EventKind::RingPopStallBegin, 5, 0)),
            (1u32, ev(2500, EventKind::RingPopStallEnd, 5, 0)),
        ];
        let doc = chrome_trace(&events, &names());
        let traced = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(traced.len(), 2);
        let firing = traced
            .iter()
            .find(|e| e.get("cat").unwrap().as_str() == Some("firing"))
            .unwrap();
        assert_eq!(firing.get("name").unwrap().as_str(), Some("src"));
        assert_eq!(firing.get("ts").unwrap().as_num(), Some(1.0));
        assert_eq!(firing.get("dur").unwrap().as_num(), Some(2.0));
        assert_eq!(firing.get("tid").unwrap().as_num(), Some(0.0));
    }

    #[test]
    fn output_is_parseable_json_with_trace_events() {
        let events = vec![
            (0u32, ev(0, EventKind::Park, 2, 0)),
            (0u32, ev(500, EventKind::Unpark, 2, 0)),
        ];
        let s = chrome_trace(&events, &[]).to_string_compact();
        let parsed = crate::json::parse(&s).unwrap();
        assert!(parsed.get("traceEvents").unwrap().as_arr().is_some());
    }

    #[test]
    fn unpaired_events_do_not_corrupt() {
        let events = vec![
            // End with no begin: dropped.
            (0u32, ev(100, EventKind::FiringEnd, 1, 0)),
            // Begin with no end: emitted zero-length.
            (0u32, ev(200, EventKind::FiringStart, 0, 0)),
        ];
        let doc = chrome_trace(&events, &names());
        let traced = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(traced.len(), 1);
        assert_eq!(traced[0].get("dur").unwrap().as_num(), Some(0.0));
    }

    #[test]
    fn unknown_node_gets_fallback_name() {
        let events = vec![
            (0u32, ev(0, EventKind::FiringStart, 9, 0)),
            (0u32, ev(1, EventKind::FiringEnd, 9, 0)),
        ];
        let doc = chrome_trace(&events, &names());
        let traced = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(traced[0].get("name").unwrap().as_str(), Some("node9"));
    }
}
