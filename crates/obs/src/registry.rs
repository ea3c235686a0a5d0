//! The shared metric registry: named counters/gauges/histograms plus the
//! event ring, handed around by `Arc`.

use copra_simtime::SimInstant;
use copra_trace::{SpanContext, Tracer};
use parking_lot::RwLock;
use rustc_hash::FxHashMap;
use std::sync::Arc;

use crate::events::{EventKind, EventRing};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::MetricsSnapshot;

/// Registry of named metrics and the event trace.
///
/// Lookup (`counter(name)` etc.) takes a read lock and is expected to be
/// done once per component, with the returned `Arc` handle cached; the
/// handles themselves are lock-free (counters/histograms) or
/// short-mutex (gauge sample ring). The registry itself is shared by
/// `Arc<Registry>` through constructors.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<FxHashMap<String, Arc<Counter>>>,
    gauges: RwLock<FxHashMap<String, Arc<Gauge>>>,
    histograms: RwLock<FxHashMap<String, Arc<Histogram>>>,
    events: EventRing,
    /// Span tracer, fixed at construction ([`Registry::traced`]);
    /// disabled in a [`Registry::new`] registry.
    tracer: Tracer,
}

impl Registry {
    pub fn new() -> Arc<Self> {
        Arc::new(Registry::default())
    }

    /// A registry whose components record spans through `tracer`.
    pub fn traced(tracer: Tracer) -> Arc<Self> {
        Arc::new(Registry {
            tracer,
            ..Registry::default()
        })
    }

    /// Get or create the counter with this name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(self.counters.write().entry(name.to_string()).or_default())
    }

    /// Get or create the gauge with this name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(self.gauges.write().entry(name.to_string()).or_default())
    }

    /// Get or create the histogram with this name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(self.histograms.write().entry(name.to_string()).or_default())
    }

    /// Append a typed event to the trace ring.
    pub fn event(&self, now: SimInstant, kind: EventKind) {
        self.events.record(now, kind);
    }

    /// Append an event attributed to the span it occurred inside.
    pub fn event_with_span(&self, now: SimInstant, kind: EventKind, ctx: Option<SpanContext>) {
        self.events
            .record_with_span(now, kind, ctx.map(|c| (c.trace, c.span)));
    }

    /// The span tracer (disabled unless built [`Registry::traced`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Freeze the registry into plain data.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            events: self.events.to_vec(),
            events_dropped: self.events.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_captures_everything() {
        let reg = Registry::new();
        reg.counter("c").add(5);
        reg.gauge("g").sample(SimInstant::from_secs(1), 7);
        reg.histogram("h").record(100);
        reg.event(
            SimInstant::from_secs(2),
            EventKind::Marker {
                label: "phase".into(),
            },
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.gauge("g").unwrap().value, 7);
        assert_eq!(snap.gauge("g").unwrap().samples.len(), 1);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.events.len(), 1);
        // and the snapshot round-trips through JSON
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn traced_registry_links_events_to_spans_and_untraced_is_disarmed() {
        assert!(!Registry::new().tracer().is_armed());
        let reg = Registry::traced(Tracer::armed(1));
        let t = reg.tracer();
        assert!(t.is_armed());
        let g = t.root("r", 0, SimInstant::EPOCH).unwrap();
        reg.event_with_span(
            SimInstant::EPOCH,
            EventKind::WorkerDied { rank: 1 },
            Some(g.ctx()),
        );
        let snap = reg.snapshot();
        assert_eq!(snap.events[0].span, Some((g.ctx().trace, g.ctx().span)));
    }

    #[test]
    fn registry_is_share_safe() {
        let reg = Registry::new();
        let c = reg.counter("threads");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
