//! Structured event trace: a bounded ring of typed events, each stamped
//! with the simulated clock only, so two runs of a deterministic workload
//! record identical rings.

use copra_simtime::SimInstant;
use copra_trace::{SpanId, TraceId};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Default ring capacity; oldest events are evicted first.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// What happened. Variants mirror the archive stack's layers: tape
/// mechanics, HSM data movement, PFTool scheduling.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EventKind {
    /// A cartridge was mounted into a drive (robot fetch + load + verify).
    TapeMount { drive: u32, tape: String },
    /// A cartridge was dismounted (rewind + unload + robot stow).
    TapeDismount { drive: u32, tape: String },
    /// A mounted drive changed owning storage agent (§6.2 hand-off:
    /// forced rewind + label re-verify).
    AgentHandoff { drive: u32, tape: String },
    /// HSM migrated a file to tape.
    Migrate { bytes: u64 },
    /// HSM recalled a file from tape.
    Recall { bytes: u64 },
    /// An aggregation container filled and was flushed to tape.
    ContainerFill { members: u32, bytes: u64 },
    /// The recall scheduler assigned a tape's requests to a node;
    /// `affinity_hit` is true when the tape was already bound to that node.
    RecallAssign {
        tape: String,
        node: u32,
        affinity_hit: bool,
    },
    /// An idle PFTool worker was handed a job.
    WorkerBusy { rank: u32 },
    /// A PFTool worker finished a job and nothing was queued for it.
    WorkerIdle { rank: u32 },
    /// Manager queue depths at a sampling point.
    QueueSample {
        dirq: u32,
        nameq: u32,
        copyq: u32,
        tapecq: u32,
    },
    /// The fault plane injected a scripted or probabilistic fault.
    FaultInjected { kind: String, detail: String },
    /// The tape library fenced a hard-failed drive (volume freed, all
    /// further operations on the drive rejected).
    DriveFenced { drive: u32 },
    /// A mover/FTA daemon died holding an assignment.
    WorkerDied { rank: u32 },
    /// The manager re-dispatched in-flight work lost to a fault.
    Redispatch { what: String, count: u64 },
    /// A recovery/scrub action repaired torn state after a crash (`what`
    /// names the action: "replay", "rollback", "scrub-orphan", ...).
    Recovery { what: String, detail: String },
    /// Free-form marker (campaign phase boundaries etc).
    Marker { label: String },
}

/// One trace entry: the simulated instant it describes and the typed
/// payload.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Event {
    pub sim_ns: u64,
    pub kind: EventKind,
    /// The trace span that was live when the event fired (fault-plane
    /// events record the span they interrupted). Absent unless a tracer
    /// is armed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub span: Option<(TraceId, SpanId)>,
}

/// Bounded ring buffer of [`Event`]s.
#[derive(Debug)]
pub struct EventRing {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: Mutex<u64>,
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventRing {
    pub fn with_capacity(capacity: usize) -> Self {
        EventRing {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: Mutex::new(0),
        }
    }

    pub fn record(&self, now: SimInstant, kind: EventKind) {
        self.record_with_span(now, kind, None);
    }

    /// Record an event attributed to the trace span it occurred inside.
    pub fn record_with_span(
        &self,
        now: SimInstant,
        kind: EventKind,
        span: Option<(TraceId, SpanId)>,
    ) {
        let event = Event {
            sim_ns: now.as_nanos(),
            kind,
            span,
        };
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            *self.dropped.lock() += 1;
        }
        ring.push_back(event);
    }

    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// How many events were evicted to make room.
    pub fn dropped(&self) -> u64 {
        *self.dropped.lock()
    }

    pub fn to_vec(&self) -> Vec<Event> {
        self.ring.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_in_order() {
        let ring = EventRing::with_capacity(8);
        ring.record(
            SimInstant::from_secs(1),
            EventKind::TapeMount {
                drive: 0,
                tape: "T00001".into(),
            },
        );
        ring.record(SimInstant::from_secs(2), EventKind::Recall { bytes: 42 });
        let events = ring.to_vec();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].sim_ns, 1_000_000_000);
        assert!(matches!(events[1].kind, EventKind::Recall { bytes: 42 }));
    }

    #[test]
    fn events_carry_optional_span_attribution() {
        let ring = EventRing::with_capacity(8);
        ring.record(SimInstant::EPOCH, EventKind::Marker { label: "a".into() });
        ring.record_with_span(
            SimInstant::from_secs(1),
            EventKind::WorkerDied { rank: 4 },
            Some((TraceId(7), SpanId(9))),
        );
        let events = ring.to_vec();
        assert_eq!(events[0].span, None);
        assert_eq!(events[1].span, Some((TraceId(7), SpanId(9))));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = EventRing::with_capacity(4);
        for i in 0..10u64 {
            ring.record(SimInstant::from_nanos(i), EventKind::Migrate { bytes: i });
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.to_vec()[0].sim_ns, 6);
    }
}
