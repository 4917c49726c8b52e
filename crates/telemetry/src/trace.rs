//! The recording facade the runtime and VM hooks talk to.
//!
//! [`TraceSession`] owns one [`EventRing`] per worker and [`WorkerTrace`]
//! handles push timestamped events into them. Whether anything is
//! recorded is a run-time choice: [`TraceSession::disabled`] (and
//! [`WorkerTrace::disabled`]) hold no ring, so a hook costs one `Option`
//! test and records nothing.

use crate::event::{Event, EventKind};
use crate::ring::EventRing;
use std::sync::Arc;

/// A recording session: one event ring per worker thread.
pub struct TraceSession {
    rings: Vec<Arc<EventRing>>,
}

impl TraceSession {
    /// A session with `workers` rings of `capacity_per_worker` events
    /// each.
    pub fn new(workers: usize, capacity_per_worker: usize) -> TraceSession {
        TraceSession {
            rings: (0..workers)
                .map(|_| Arc::new(EventRing::with_capacity(capacity_per_worker)))
                .collect(),
        }
    }

    /// A session that records nothing (all handles are inert).
    pub fn disabled() -> TraceSession {
        TraceSession { rings: Vec::new() }
    }

    /// Whether this session can record anything at all.
    pub fn enabled(&self) -> bool {
        !self.rings.is_empty()
    }

    /// The recording handle for worker `i` (inert when out of range or
    /// the session is disabled).
    pub fn worker(&self, i: usize) -> WorkerTrace {
        WorkerTrace {
            ring: self.rings.get(i).cloned(),
        }
    }

    /// Drain all rings into one `(worker, event)` list, merged and
    /// sorted by timestamp.
    pub fn drain(&self) -> Vec<(u32, Event)> {
        let mut out: Vec<(u32, Event)> = Vec::new();
        for (w, ring) in self.rings.iter().enumerate() {
            out.extend(ring.drain().into_iter().map(|e| (w as u32, e)));
        }
        out.sort_by_key(|(_, e)| e.ts_ns);
        out
    }

    /// Total events dropped across all rings (full-ring rejections).
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum()
    }
}

/// One worker's recording handle.
#[derive(Clone, Default)]
pub struct WorkerTrace {
    ring: Option<Arc<EventRing>>,
}

impl WorkerTrace {
    /// A handle that records nothing.
    pub fn disabled() -> WorkerTrace {
        WorkerTrace { ring: None }
    }

    /// Whether records actually land anywhere.
    #[inline]
    pub fn active(&self) -> bool {
        self.ring.is_some()
    }

    /// Record one event, stamped with the current time.
    #[inline]
    pub fn record(&self, kind: EventKind, subject: u32, aux: u64) {
        if let Some(ring) = &self.ring {
            ring.push(Event::now(kind, subject, aux));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_session_records_and_merges() {
        let session = TraceSession::new(2, 64);
        assert!(session.enabled());
        session.worker(0).record(EventKind::FiringStart, 7, 0);
        session.worker(1).record(EventKind::FiringEnd, 7, 42);
        // Out-of-range worker handles are inert rather than panicking.
        let inert = session.worker(9);
        assert!(!inert.active());
        inert.record(EventKind::Park, 0, 0);
        let events = session.drain();
        assert_eq!(events.len(), 2);
        assert!(events.windows(2).all(|w| w[0].1.ts_ns <= w[1].1.ts_ns));
        let workers: Vec<u32> = events.iter().map(|(w, _)| *w).collect();
        assert!(workers.contains(&0) && workers.contains(&1));
    }

    #[test]
    fn disabled_session_is_inert() {
        let session = TraceSession::disabled();
        assert!(!session.enabled());
        let t = session.worker(0);
        assert!(!t.active());
        t.record(EventKind::FiringStart, 1, 0);
        assert!(session.drain().is_empty());
    }
}
