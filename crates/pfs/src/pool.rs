//! Storage pools — GPFS classes of service.
//!
//! The paper's archive GPFS has a fast FC4 pool (100 TB) where all files
//! land, a slow disk pool for small files, and GPFS 3.2's *external* pools
//! extending the pool metaphor to tape (§4.2.1). Internal pools carry a
//! device bank ([`copra_simtime::TimelinePool`]) that data movement charges
//! simulated time against; external pools have no devices — data "in" them
//! lives in the tape backend.

use copra_simtime::{Bandwidth, DataSize, SimDuration, SimInstant, TimelinePool};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a pool within one `Pfs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PoolId(pub u32);

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool:{}", self.0)
    }
}

/// Static description of a pool, used by [`crate::PfsBuilder`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    pub name: String,
    /// Number of device timelines (disk arrays / LUN groups).
    pub devices: usize,
    /// Per-device streaming bandwidth.
    pub device_bandwidth: Bandwidth,
    /// Per-I/O latency on each device.
    pub device_latency: SimDuration,
    /// Nominal capacity (accounting only; writes past capacity are allowed
    /// but flagged in `usage()` so ILM tests can observe pressure).
    pub capacity: DataSize,
    /// External pools have no local devices; their data lives in the tape
    /// backend.
    pub external: bool,
}

impl PoolConfig {
    /// The paper's fast FC4 disk pool: parallel arrays on the SAN.
    pub fn fast_disk(name: &str, devices: usize, capacity: DataSize) -> Self {
        PoolConfig {
            name: name.to_string(),
            devices,
            device_bandwidth: Bandwidth::mb_per_sec(400),
            device_latency: SimDuration::from_millis(5),
            capacity,
            external: false,
        }
    }

    /// The paper's "slow" pool used to park small files.
    pub fn slow_disk(name: &str, devices: usize, capacity: DataSize) -> Self {
        PoolConfig {
            name: name.to_string(),
            devices,
            device_bandwidth: Bandwidth::mb_per_sec(80),
            device_latency: SimDuration::from_millis(10),
            capacity,
            external: false,
        }
    }

    /// A GPFS 3.2 external pool (tape-backed; no local devices).
    pub fn external(name: &str) -> Self {
        PoolConfig {
            name: name.to_string(),
            devices: 0,
            device_bandwidth: Bandwidth::ZERO,
            device_latency: SimDuration::ZERO,
            capacity: DataSize::ZERO,
            external: true,
        }
    }
}

/// Usage accounting snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolUsage {
    pub used: DataSize,
    pub capacity: DataSize,
    pub files: u64,
}

/// A live pool: configuration + device bank + usage accounting.
pub struct StoragePool {
    id: PoolId,
    config: PoolConfig,
    devices: Option<TimelinePool>,
    usage: Mutex<PoolUsage>,
}

impl StoragePool {
    pub(crate) fn new(id: PoolId, config: PoolConfig) -> Self {
        let devices = if config.external {
            None
        } else {
            assert!(
                config.devices > 0,
                "internal pool {:?} needs at least one device",
                config.name
            );
            Some(TimelinePool::new(
                &format!("pool-{}", config.name),
                config.devices,
                config.device_bandwidth,
                config.device_latency,
            ))
        };
        let capacity = config.capacity;
        StoragePool {
            id,
            config,
            devices,
            usage: Mutex::new(PoolUsage {
                used: DataSize::ZERO,
                capacity,
                files: 0,
            }),
        }
    }

    pub fn id(&self) -> PoolId {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.config.name
    }

    pub fn is_external(&self) -> bool {
        self.config.external
    }

    /// Device bank for charging simulated I/O time (internal pools only).
    pub fn devices(&self) -> Option<&TimelinePool> {
        self.devices.as_ref()
    }

    /// Charge a read/write of `bytes` against the earliest-available device.
    /// External pools charge nothing here (their cost lives on tape).
    pub fn charge_io(&self, ready: SimInstant, bytes: DataSize) -> copra_simtime::Reservation {
        match &self.devices {
            Some(bank) => bank.transfer_earliest(ready, bytes).1,
            None => copra_simtime::Reservation {
                start: ready,
                end: ready,
            },
        }
    }

    pub fn usage(&self) -> PoolUsage {
        *self.usage.lock()
    }

    pub(crate) fn account_add(&self, bytes: DataSize) {
        let mut u = self.usage.lock();
        u.used += bytes;
        u.files += 1;
    }

    pub(crate) fn account_remove(&self, bytes: DataSize) {
        let mut u = self.usage.lock();
        u.used = u.used.saturating_sub(bytes);
        u.files = u.files.saturating_sub(1);
    }

    pub(crate) fn account_resize(&self, old: DataSize, new: DataSize) {
        let mut u = self.usage.lock();
        u.used = u.used.saturating_sub(old) + new;
    }
}

impl fmt::Debug for StoragePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoragePool")
            .field("id", &self.id)
            .field("name", &self.config.name)
            .field("external", &self.config.external)
            .field("usage", &self.usage())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_pool_charges_devices() {
        let p = StoragePool::new(
            PoolId(0),
            PoolConfig {
                name: "fast".to_string(),
                devices: 2,
                device_bandwidth: Bandwidth::mb_per_sec(100),
                device_latency: SimDuration::ZERO,
                capacity: DataSize::gb(1),
                external: false,
            },
        );
        let a = p.charge_io(SimInstant::EPOCH, DataSize::mb(100));
        let b = p.charge_io(SimInstant::EPOCH, DataSize::mb(100));
        // two devices: both finish at 1 s
        assert_eq!(a.end, SimInstant::from_secs(1));
        assert_eq!(b.end, SimInstant::from_secs(1));
        let c = p.charge_io(SimInstant::EPOCH, DataSize::mb(100));
        assert_eq!(c.end, SimInstant::from_secs(2));
    }

    #[test]
    fn external_pool_is_free_locally() {
        let p = StoragePool::new(PoolId(1), PoolConfig::external("tape"));
        let r = p.charge_io(SimInstant::from_secs(9), DataSize::tb(1));
        assert_eq!(r.start, r.end);
        assert!(p.devices().is_none());
        assert!(p.is_external());
    }

    #[test]
    fn usage_accounting() {
        let p = StoragePool::new(
            PoolId(0),
            PoolConfig::fast_disk("fast", 1, DataSize::mb(10)),
        );
        p.account_add(DataSize::mb(6));
        p.account_add(DataSize::mb(6));
        let u = p.usage();
        assert_eq!(u.files, 2);
        assert_eq!(u.used, DataSize::mb(12));
        p.account_remove(DataSize::mb(6));
        assert_eq!(p.usage().used, DataSize::mb(6));
        p.account_resize(DataSize::mb(6), DataSize::mb(2));
        assert_eq!(p.usage().used, DataSize::mb(2));
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn internal_pool_requires_devices() {
        let mut cfg = PoolConfig::fast_disk("x", 1, DataSize::ZERO);
        cfg.devices = 0;
        let _ = StoragePool::new(PoolId(0), cfg);
    }
}
