//! DMAPI managed-region attributes of a file.
//!
//! TSM's space management (HSM for GPFS) distinguishes three residency
//! states, which the integration relies on throughout (§4.2.2). GPFS keeps
//! them per inode through DMAPI, so every inode here carries a typed
//! [`ManagedRegion`] record beside its stat fields; the generic extended
//! attribute map is left to PFTool and FUSE keys.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Residency state of a managed file.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum HsmState {
    /// Data lives only on file-system disk.
    #[default]
    Resident,
    /// Data is on disk *and* a valid copy exists on tape (migration done,
    /// hole not punched yet).
    Premigrated,
    /// Data lives only on tape; the on-disk inode is a stub.
    Migrated,
}

impl HsmState {
    pub fn as_str(self) -> &'static str {
        match self {
            HsmState::Resident => "resident",
            HsmState::Premigrated => "premigrated",
            HsmState::Migrated => "migrated",
        }
    }

    /// True if a tape copy exists.
    pub fn on_tape(self) -> bool {
        matches!(self, HsmState::Premigrated | HsmState::Migrated)
    }

    /// True if the data can be read straight from disk.
    pub fn on_disk(self) -> bool {
        matches!(self, HsmState::Resident | HsmState::Premigrated)
    }
}

impl fmt::Display for HsmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The DMAPI record of one inode: residency, the TSM object holding its
/// tape copy, the logical size of a punched stub, and the object an
/// overwrite made stale (§6.3). A fresh inode is `Resident` with no
/// object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ManagedRegion {
    pub state: HsmState,
    /// TSM object id of the valid tape copy (premigrated and migrated).
    pub objid: Option<u64>,
    /// Pre-punch size of a migrated stub, whose content is empty.
    pub stub_size: Option<u64>,
    /// Object id of a tape copy orphaned by a write to a premigrated file.
    pub orphan_objid: Option<u64>,
}

impl ManagedRegion {
    /// The file's logical size given `on_disk` bytes: a stub's pre-punch
    /// size, else the size on disk.
    pub fn logical_size(&self, on_disk: u64) -> u64 {
        self.stub_size.unwrap_or(on_disk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_predicates() {
        assert!(HsmState::Resident.on_disk());
        assert!(!HsmState::Resident.on_tape());
        assert!(HsmState::Premigrated.on_disk());
        assert!(HsmState::Premigrated.on_tape());
        assert!(!HsmState::Migrated.on_disk());
        assert!(HsmState::Migrated.on_tape());
    }

    #[test]
    fn fresh_region_is_resident_and_sized_by_disk() {
        let region = ManagedRegion::default();
        assert_eq!(region.state, HsmState::Resident);
        assert_eq!(region.logical_size(7), 7);
        let stub = ManagedRegion {
            stub_size: Some(100),
            ..region
        };
        assert_eq!(stub.logical_size(0), 100);
    }
}
