//! System-wide observability: the device-utilization snapshot and the
//! plain-text campaign dashboard.
//!
//! Every timed resource in the stack — per-node NICs and HBAs, the
//! 2×10GigE trunk links, the server's backbone NIC, and each tape drive —
//! is a [`copra_simtime::Timeline`] whose [`TimelineStats`] accumulate
//! busy time. [`crate::ArchiveSystem::snapshot`] folds those into
//! [`DeviceUtilization`] rows at one horizon (the clock's *now*) and
//! merges them with the shared [`copra_obs::Registry`] snapshot, so one
//! JSON document answers both "how hard did each device work?" (Figures
//! 8–11's framing) and "what did the software layers do?" (mounts,
//! recalls, queue depths, worker churn).

use copra_hsm::TsmServer;
use copra_obs::MetricsSnapshot;
use copra_simtime::{SimInstant, TimelineStats};

/// Utilization of one device timeline at the snapshot horizon.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DeviceUtilization {
    /// Stable key: `trunk.link0`, `nic.node3`, `hba.node3`,
    /// `server.nic`, `tape.drive17`.
    pub name: String,
    /// Total busy time granted, in seconds.
    pub busy_secs: f64,
    /// Reservations granted.
    pub ops: u64,
    /// Payload bytes accounted against the device.
    pub bytes: u64,
    /// Busy fraction of `[EPOCH, horizon]`, clamped to `[0, 1]`.
    pub utilization: f64,
}

impl DeviceUtilization {
    /// Fold one timeline's stats at `horizon`.
    pub fn from_stats(name: impl Into<String>, stats: &TimelineStats, horizon: SimInstant) -> Self {
        DeviceUtilization {
            name: name.into(),
            busy_secs: stats.busy.as_secs_f64(),
            ops: stats.ops,
            bytes: stats.bytes.as_bytes(),
            utilization: stats.utilization(horizon),
        }
    }
}

/// One full observability capture: device utilizations plus the metrics
/// registry (counters, gauges, histograms, event trace).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SystemSnapshot {
    /// Simulated horizon the utilizations were computed against.
    pub sim_now_ns: u64,
    pub devices: Vec<DeviceUtilization>,
    pub metrics: MetricsSnapshot,
}

impl SystemSnapshot {
    /// Capture the HSM side at `now`: `devices` (the cluster's rows, when
    /// the caller has a cluster) followed by the server NIC and every
    /// tape drive, plus the server's metrics registry.
    pub fn of_server(
        server: &TsmServer,
        now: SimInstant,
        mut devices: Vec<DeviceUtilization>,
    ) -> Self {
        devices.push(DeviceUtilization::from_stats(
            "server.nic",
            &server.nic_stats(),
            now,
        ));
        for (i, stats) in server.library().drive_timeline_stats().iter().enumerate() {
            devices.push(DeviceUtilization::from_stats(
                format!("tape.drive{i}"),
                stats,
                now,
            ));
        }
        SystemSnapshot {
            sim_now_ns: now.as_nanos(),
            devices,
            metrics: server.obs().snapshot(),
        }
    }

    /// All devices whose name starts with `prefix` (`"nic."`, `"tape."`).
    pub fn devices_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a DeviceUtilization> {
        self.devices
            .iter()
            .filter(move |d| d.name.starts_with(prefix))
    }

    /// Mean utilization across devices matching `prefix` (0 when none).
    pub fn mean_utilization(&self, prefix: &str) -> f64 {
        let (sum, n) = self
            .devices_with_prefix(prefix)
            .fold((0.0, 0usize), |(s, n), d| (s + d.utilization, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize system snapshot")
    }

    /// Parse a snapshot back from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Render the plain-text campaign dashboard: one line per device plus
    /// the headline software counters — the operator's at-a-glance view.
    pub fn dashboard(&self) -> String {
        let mut out = String::new();
        let horizon = self.sim_now_ns as f64 / 1e9;
        out.push_str(&format!(
            "== campaign dashboard @ {horizon:.1}s simulated ==\n\n"
        ));
        out.push_str(&format!(
            "{:<16} {:>7} {:>12} {:>8} {:>14}\n",
            "device", "util", "busy(s)", "ops", "bytes"
        ));
        for d in &self.devices {
            out.push_str(&format!(
                "{:<16} {:>6.1}% {:>12.1} {:>8} {:>14}\n",
                d.name,
                d.utilization * 100.0,
                d.busy_secs,
                d.ops,
                d.bytes
            ));
        }
        out.push_str("\ncounters:\n");
        for (name, value) in self.metrics.counters.iter() {
            out.push_str(&format!("  {name:<36} {value}\n"));
        }
        if !self.metrics.gauges.is_empty() {
            out.push_str("\ngauges (last value / samples):\n");
            for (name, g) in self.metrics.gauges.iter() {
                out.push_str(&format!(
                    "  {:<36} {} / {}\n",
                    name,
                    g.value,
                    g.samples.len()
                ));
            }
        }
        if !self.metrics.histograms.is_empty() {
            out.push_str("\nhistograms (count / mean):\n");
            for (name, h) in self.metrics.histograms.iter() {
                out.push_str(&format!("  {:<36} {} / {:.0}\n", name, h.count, h.mean()));
            }
        }
        out.push_str(&format!(
            "\nevents: {} recorded, {} dropped\n",
            self.metrics.events.len(),
            self.metrics.events_dropped
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_simtime::{DataSize, SimDuration};

    fn stats(busy_secs: u64, ops: u64, bytes: u64) -> TimelineStats {
        TimelineStats {
            busy: SimDuration::from_secs(busy_secs),
            ops,
            bytes: DataSize::from_bytes(bytes),
            next_free: SimInstant::EPOCH,
        }
    }

    #[test]
    fn device_utilization_folds_horizon() {
        let d = DeviceUtilization::from_stats(
            "nic.node0",
            &stats(25, 4, 1000),
            SimInstant::from_secs(100),
        );
        assert_eq!(d.name, "nic.node0");
        assert!((d.utilization - 0.25).abs() < 1e-12);
        assert_eq!(d.ops, 4);
        assert_eq!(d.bytes, 1000);
    }

    #[test]
    fn snapshot_mean_by_prefix() {
        let snap = SystemSnapshot {
            sim_now_ns: 100_000_000_000,
            devices: vec![
                DeviceUtilization::from_stats(
                    "nic.node0",
                    &stats(20, 1, 0),
                    SimInstant::from_secs(100),
                ),
                DeviceUtilization::from_stats(
                    "nic.node1",
                    &stats(60, 1, 0),
                    SimInstant::from_secs(100),
                ),
                DeviceUtilization::from_stats(
                    "trunk.link0",
                    &stats(50, 1, 0),
                    SimInstant::from_secs(100),
                ),
            ],
            metrics: MetricsSnapshot::default(),
        };
        assert!((snap.mean_utilization("nic.") - 0.4).abs() < 1e-12);
        assert_eq!(snap.mean_utilization("hba."), 0.0);
    }

    #[test]
    fn snapshot_json_roundtrip_and_dashboard() {
        let snap = SystemSnapshot {
            sim_now_ns: 5_000_000_000,
            devices: vec![DeviceUtilization::from_stats(
                "tape.drive0",
                &stats(1, 2, 300),
                SimInstant::from_secs(5),
            )],
            metrics: MetricsSnapshot::default(),
        };
        let json = snap.to_json();
        let back = SystemSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        let dash = snap.dashboard();
        assert!(dash.contains("campaign dashboard"));
        assert!(dash.contains("tape.drive0"));
        assert!(dash.contains("20.0%"));
    }
}
