//! Plain-data snapshot types: what a [`crate::Registry`] looks like at a
//! point in time. All types serde round-trip, so snapshots can be dumped
//! to JSON (`--metrics-out`), archived next to experiment results, and
//! reloaded for comparison.

use std::collections::BTreeMap;

pub use crate::events::Event as EventSnapshot;
use crate::metrics::GaugeSample;

/// A gauge at snapshot time: its last value plus the retained sample ring.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct GaugeSnapshot {
    pub value: i64,
    pub samples: Vec<GaugeSample>,
}

/// One occupied log2 bucket: values in `[2^log2, 2^(log2+1))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HistogramBucket {
    pub log2: u32,
    pub count: u64,
}

/// A histogram at snapshot time; empty buckets are omitted.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Everything a registry knows, as plain data. `BTreeMap` keys keep the
/// JSON output deterministically ordered.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    pub events: Vec<EventSnapshot>,
    /// Events evicted from the ring before this snapshot was taken.
    pub events_dropped: u64,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent — counters that never fired
    /// are indistinguishable from counters never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.get(name)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    #[cfg(test)]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize metrics snapshot")
    }

    #[cfg(test)]
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        counters.insert("tape.mounts".to_string(), 12);
        counters.insert("hsm.lan_bytes".to_string(), 1 << 30);
        let mut gauges = BTreeMap::new();
        gauges.insert(
            "pftool.copyq_depth".to_string(),
            GaugeSnapshot {
                value: 3,
                samples: vec![
                    GaugeSample {
                        sim_ns: 10,
                        value: 5,
                    },
                    GaugeSample {
                        sim_ns: 20,
                        value: 3,
                    },
                ],
            },
        );
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "tape.backhitch_penalty_ns".to_string(),
            HistogramSnapshot {
                count: 2,
                sum: 3_000,
                buckets: vec![HistogramBucket { log2: 10, count: 2 }],
            },
        );
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            events: vec![EventSnapshot {
                sim_ns: 42,
                kind: EventKind::RecallAssign {
                    tape: "T00007".into(),
                    node: 3,
                    affinity_hit: true,
                },
                span: None,
            }],
            events_dropped: 1,
        }
    }

    #[test]
    fn json_round_trip() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("parse back");
        assert_eq!(snap, back);
    }

    #[test]
    fn accessors() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter("tape.mounts"), 12);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("pftool.copyq_depth").unwrap().value, 3);
        assert!(snap.gauge("missing").is_none());
        let h = snap.histogram("tape.backhitch_penalty_ns").unwrap();
        assert!((h.mean() - 1_500.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
    }
}
