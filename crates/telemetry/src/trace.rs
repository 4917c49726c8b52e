//! The recording facade the runtime and VM hooks talk to.
//!
//! [`TraceSession`] owns one bounded channel per track (a worker thread,
//! or the service's control plane) and [`WorkerTrace`] handles send
//! timestamped events into them. A track is made the first time
//! [`TraceSession::worker`] asks for its index, so a session is never too
//! small for its caller.
//!
//! Recording never blocks: when a track is full the event is dropped and
//! counted, because a tracer that applies backpressure to the system it
//! observes would corrupt the very schedule it is trying to capture. A
//! track is a [`std::sync::mpsc::sync_channel`], so clones of one handle
//! may record from several threads, and each writer's events come out in
//! the order it recorded them.
//!
//! Whether anything is recorded is a run-time choice:
//! [`TraceSession::disabled`] (and [`WorkerTrace::disabled`]) hold no
//! channel, so a hook costs one `Option` test and records nothing.

use crate::event::{Event, EventKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

/// One track: the sending half handed out to recorders, the receiving
/// half [`TraceSession::drain`] empties, and the count of rejected events.
struct Track {
    tx: SyncSender<Event>,
    rx: Receiver<Event>,
    dropped: Arc<AtomicU64>,
}

const POISONED: &str = "a thread panicked holding the trace session's track list";

/// A recording session: one bounded event track per index asked for.
pub struct TraceSession {
    /// Events each track holds; `None` for a session that records nothing.
    capacity: Option<usize>,
    tracks: Mutex<Vec<Track>>,
}

impl TraceSession {
    /// A session whose tracks hold `capacity_per_track` events each (at
    /// least one: a zero-capacity channel would make every record wait
    /// for a drain).
    pub fn new(capacity_per_track: usize) -> TraceSession {
        TraceSession {
            capacity: Some(capacity_per_track.max(1)),
            tracks: Mutex::new(Vec::new()),
        }
    }

    /// A session that records nothing (all handles are inert).
    pub fn disabled() -> TraceSession {
        TraceSession {
            capacity: None,
            tracks: Mutex::new(Vec::new()),
        }
    }

    /// Whether this session can record anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity.is_some()
    }

    /// The recording handle for track `i`, made on first request (inert
    /// when the session is disabled).
    pub fn worker(&self, i: usize) -> WorkerTrace {
        let Some(capacity) = self.capacity else {
            return WorkerTrace::disabled();
        };
        let mut tracks = self.tracks.lock().expect(POISONED);
        while tracks.len() <= i {
            let (tx, rx) = sync_channel(capacity);
            let dropped = Arc::new(AtomicU64::new(0));
            tracks.push(Track { tx, rx, dropped });
        }
        let track = &tracks[i];
        WorkerTrace {
            track: Some((track.tx.clone(), track.dropped.clone())),
        }
    }

    /// Drain every track into one `(track, event)` list, merged and
    /// sorted by timestamp (a stable sort: each track's order survives
    /// equal timestamps).
    pub fn drain(&self) -> Vec<(u32, Event)> {
        let tracks = self.tracks.lock().expect(POISONED);
        let mut out: Vec<(u32, Event)> = Vec::new();
        for (w, track) in tracks.iter().enumerate() {
            out.extend(track.rx.try_iter().map(|e| (w as u32, e)));
        }
        out.sort_by_key(|(_, e)| e.ts_ns);
        out
    }

    /// Total events dropped across all tracks (full-track rejections).
    pub fn dropped(&self) -> u64 {
        let tracks = self.tracks.lock().expect(POISONED);
        tracks
            .iter()
            .map(|t| t.dropped.load(Ordering::Relaxed))
            .sum()
    }
}

/// One track's recording handle; clones record into the same track.
#[derive(Clone, Default)]
pub struct WorkerTrace {
    track: Option<(SyncSender<Event>, Arc<AtomicU64>)>,
}

impl WorkerTrace {
    /// A handle that records nothing.
    pub fn disabled() -> WorkerTrace {
        WorkerTrace { track: None }
    }

    /// Whether records actually land anywhere.
    #[inline]
    pub fn active(&self) -> bool {
        self.track.is_some()
    }

    /// Record one event, stamped with the current time, and say whether
    /// it landed. A full track drops it and counts the drop.
    #[inline]
    pub fn record(&self, kind: EventKind, subject: u32, aux: u64) -> bool {
        let Some((tx, dropped)) = &self.track else {
            return false;
        };
        let sent = tx.try_send(Event::now(kind, subject, aux)).is_ok();
        if !sent {
            dropped.fetch_add(1, Ordering::Relaxed);
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record `n` events with `aux` = 0, 1, ... on `t`.
    fn record_seq(t: &WorkerTrace, n: u64) {
        for aux in 0..n {
            t.record(EventKind::FiringStart, 0, aux);
        }
    }

    fn auxes(events: &[(u32, Event)]) -> Vec<u64> {
        events.iter().map(|(_, e)| e.aux).collect()
    }

    #[test]
    fn enabled_session_records_and_merges() {
        let session = TraceSession::new(64);
        assert!(session.enabled());
        session.worker(0).record(EventKind::FiringStart, 7, 0);
        session.worker(1).record(EventKind::FiringEnd, 7, 42);
        // An index beyond any asked for before gets a track of its own.
        let late = session.worker(9);
        assert!(late.active());
        late.record(EventKind::Park, 0, 0);
        let events = session.drain();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].1.ts_ns <= w[1].1.ts_ns));
        let workers: Vec<u32> = events.iter().map(|(w, _)| *w).collect();
        assert!(workers.contains(&0) && workers.contains(&1) && workers.contains(&9));
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

    /// A zero capacity still holds one event instead of making every
    /// record wait for a drain.
    #[test]
    fn capacity_rounds_up() {
        let session = TraceSession::new(0);
        record_seq(&session.worker(0), 2);
        assert_eq!(auxes(&session.drain()), vec![0]);
        assert_eq!(session.dropped(), 1);
    }

    #[test]
    fn fifo_roundtrip() {
        let session = TraceSession::new(8);
        record_seq(&session.worker(0), 5);
        assert_eq!(auxes(&session.drain()), vec![0, 1, 2, 3, 4]);
        assert_eq!(session.dropped(), 0);
    }

    #[test]
    fn full_track_drops_and_counts() {
        let session = TraceSession::new(8);
        record_seq(&session.worker(0), 10);
        assert_eq!(session.dropped(), 2);
        // The first 8 are intact and in order; the track never overwrites.
        assert_eq!(auxes(&session.drain()), (0..8).collect::<Vec<_>>());
    }

    /// Record far more events than the capacity with interleaved drains:
    /// order must survive every refill.
    #[test]
    fn wraparound_preserves_order() {
        let session = TraceSession::new(8);
        let t = session.worker(0);
        let mut next = 0u64;
        for _ in 0..200 {
            for _ in 0..5 {
                t.record(EventKind::FiringStart, 0, next);
                next += 1;
            }
            let got = auxes(&session.drain());
            assert_eq!(got, (next - 5..next).collect::<Vec<_>>());
        }
        assert_eq!(session.dropped(), 0);
    }

    /// Concurrent writers through clones of one handle (the service's
    /// control plane) while a drain runs: every accepted event comes out
    /// exactly once, each writer's order holds, and nothing is lost
    /// without being counted.
    #[test]
    fn concurrent_writer_stress() {
        const WRITERS: u32 = 4;
        const PER_WRITER: u64 = 20_000;
        let session = TraceSession::new(1024);
        let shared = session.worker(0);
        let done = AtomicU64::new(0);
        let mut last_seen = vec![None::<u64>; WRITERS as usize];
        let mut received = 0u64;
        let accepted: u64 = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (t, done) = (shared.clone(), &done);
                    s.spawn(move || {
                        let mut accepted = 0u64;
                        for seq in 0..PER_WRITER {
                            accepted += t.record(EventKind::FiringStart, w, seq) as u64;
                            if seq % 64 == 0 {
                                std::thread::yield_now();
                            }
                        }
                        done.fetch_add(1, Ordering::Release);
                        accepted
                    })
                })
                .collect();
            // The drain runs until every writer is done and the track is
            // empty.
            loop {
                let writers_done = done.load(Ordering::Acquire) == WRITERS as u64;
                let batch = session.drain();
                if batch.is_empty() && writers_done {
                    break;
                }
                for (_, e) in batch {
                    assert!(e.subject < WRITERS, "corrupt writer id {}", e.subject);
                    assert!(e.aux < PER_WRITER, "corrupt sequence {}", e.aux);
                    let last = &mut last_seen[e.subject as usize];
                    if let Some(prev) = *last {
                        assert!(
                            e.aux > prev,
                            "writer {} went {prev} -> {}",
                            e.subject,
                            e.aux
                        );
                    }
                    *last = Some(e.aux);
                    received += 1;
                }
            }
            writers.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(received, accepted, "accepted events must all come out");
        assert_eq!(accepted + session.dropped(), WRITERS as u64 * PER_WRITER);
    }
}
