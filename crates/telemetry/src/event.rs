//! The fixed-size trace event: what one worker records per interesting
//! moment. `Copy` and small so pushing one is a handful of stores.

/// What happened. Span kinds come in begin/end pairs which the Chrome
/// exporter folds into duration events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum EventKind {
    /// A node firing began (`subject` = node id).
    #[default]
    FiringStart,
    /// The firing completed (`subject` = node id, `aux` = modelled cycles
    /// charged to it, when the recorder knows them).
    FiringEnd,
    /// A producer found its cut-edge ring full and began waiting
    /// (`subject` = edge id).
    RingPushStallBegin,
    /// Space appeared; the producer resumed (`subject` = edge id).
    RingPushStallEnd,
    /// A consumer found its cut-edge ring empty and began waiting
    /// (`subject` = edge id).
    RingPopStallBegin,
    /// Tokens appeared; the consumer resumed (`subject` = edge id).
    RingPopStallEnd,
    /// The spin budget ran out and the thread parked (`subject` = edge id).
    Park,
    /// The thread came back from parking (`subject` = edge id).
    Unpark,
    /// A planned fault was injected (`subject` = node id, `aux` = firing
    /// index it was addressed to).
    FaultInjected,
    /// A stage failed and was reported to the supervisor (`subject` =
    /// node id, `aux` = firing index).
    StageFailed,
    /// The supervisor raised the interrupt flag and workers switched to
    /// the coordinated drain (`subject` = node id of the first failure).
    DrainBegin,
    /// The watchdog escalated a stuck stage (`subject` = node id, `aux` =
    /// nanoseconds the firing had been running).
    WatchdogFire,
    /// The service admitted a session (`subject` = session id, `aux` =
    /// shard it was placed on).
    SessionAdmitted,
    /// The service rejected a submission with `Overloaded` (`subject` =
    /// would-be session id, `aux` = live session count at the time).
    SessionRejected,
    /// A submission was served from the compile-once cache (`subject` =
    /// session id).
    CacheHit,
    /// A submission compiled fresh (`subject` = session id, `aux` =
    /// modelled steady cost of the artifact).
    CacheMiss,
    /// A faulting tenant was quarantined; its co-residents keep firing
    /// (`subject` = session id, `aux` = failing stage).
    SessionQuarantined,
    /// A session finished draining and was closed (`subject` = session
    /// id, `aux` = steady iterations completed).
    SessionClosed,
    /// A parameter change was scheduled on a dynamic-rate session
    /// (`subject` = session id where known, `aux` = the new value).
    SetParam,
    /// A dynamic-rate session swapped configurations at a quiescent
    /// point (`subject` = 1 when the schedule cache served the new
    /// configuration, 0 when it compiled; `aux` = swap ordinal).
    Reconfigure,
    /// A worker hosts one replica of a fissioned stage (`subject` = node
    /// id, `aux` = total replica count).
    FissionReplica,
}

impl EventKind {
    /// Short stable label for exporters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::FiringStart => "firing_start",
            EventKind::FiringEnd => "firing_end",
            EventKind::RingPushStallBegin => "push_stall_begin",
            EventKind::RingPushStallEnd => "push_stall_end",
            EventKind::RingPopStallBegin => "pop_stall_begin",
            EventKind::RingPopStallEnd => "pop_stall_end",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::FaultInjected => "fault_injected",
            EventKind::StageFailed => "stage_failed",
            EventKind::DrainBegin => "drain_begin",
            EventKind::WatchdogFire => "watchdog_fire",
            EventKind::SessionAdmitted => "session_admitted",
            EventKind::SessionRejected => "session_rejected",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::SessionQuarantined => "session_quarantined",
            EventKind::SessionClosed => "session_closed",
            EventKind::SetParam => "set_param",
            EventKind::Reconfigure => "reconfigure",
            EventKind::FissionReplica => "fission_replica",
        }
    }
}

/// One recorded moment. 24 bytes; tracks hold these by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Event {
    /// [`crate::clock::now_ns`] at record time.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Node id for firing events, edge id for ring/park events.
    pub subject: u32,
    /// Kind-specific payload (e.g. modelled cycles for `FiringEnd`).
    pub aux: u64,
}

impl Event {
    /// Convenience constructor stamping the current time.
    #[inline]
    pub fn now(kind: EventKind, subject: u32, aux: u64) -> Event {
        Event {
            ts_ns: crate::clock::now_ns(),
            kind,
            subject,
            aux,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_compact() {
        assert!(std::mem::size_of::<Event>() <= 24);
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            EventKind::FiringStart,
            EventKind::FiringEnd,
            EventKind::RingPushStallBegin,
            EventKind::RingPushStallEnd,
            EventKind::RingPopStallBegin,
            EventKind::RingPopStallEnd,
            EventKind::Park,
            EventKind::Unpark,
            EventKind::FaultInjected,
            EventKind::StageFailed,
            EventKind::DrainBegin,
            EventKind::WatchdogFire,
            EventKind::SessionAdmitted,
            EventKind::SessionRejected,
            EventKind::CacheHit,
            EventKind::CacheMiss,
            EventKind::SessionQuarantined,
            EventKind::SessionClosed,
            EventKind::SetParam,
            EventKind::Reconfigure,
            EventKind::FissionReplica,
        ];
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
