//! Inode identifiers and attributes.

use crate::hsmstate::ManagedRegion;
use copra_simtime::SimInstant;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Inode number. Unique within one file system for its lifetime (inode
/// numbers are not reused; `(ino, generation)` is therefore globally unique
/// too, and higher layers use `ino` as the stable "GPFS file ID" the paper's
/// synchronous deleter keys on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ino(pub u64);

impl fmt::Display for Ino {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ino:{}", self.0)
    }
}

/// File kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FileType {
    Regular,
    Directory,
}

/// Stat-visible attributes of an inode.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InodeAttr {
    pub ino: Ino,
    pub ftype: FileType,
    /// Logical size in bytes (directories report 0).
    pub size: u64,
    /// Owner uid (the trashcan and ILM policies select on this).
    pub uid: u32,
    /// Last data modification.
    pub mtime: SimInstant,
    /// Last access (reads update it; policy rules select on age).
    pub atime: SimInstant,
    /// Last attribute change.
    pub ctime: SimInstant,
    /// DMAPI managed-region record: HSM state, tape object id, stub size.
    pub region: ManagedRegion,
    /// Storage-pool tag, opaque to the `Vfs` (0 unless the creator or
    /// [`crate::RegionWrite::set_pool`] set one).
    pub pool: u8,
    /// Extended attributes: PFTool and FUSE keys (chunk maps, restart
    /// fingerprints). HSM state is not here but in `region`. Shared with
    /// the live inode (copy-on-write): building an attr never deep-copies
    /// the map.
    pub xattrs: Arc<BTreeMap<String, String>>,
}

impl InodeAttr {
    pub fn is_dir(&self) -> bool {
        self.ftype == FileType::Directory
    }

    pub fn is_file(&self) -> bool {
        self.ftype == FileType::Regular
    }

    pub fn xattr(&self, key: &str) -> Option<&str> {
        self.xattrs.get(key).map(|s| s.as_str())
    }
}

/// A borrowed view of one live inode, handed out by `Vfs::par_scan` while
/// the scan holds the inode table's read guard: nothing is cloned.
#[derive(Debug, Clone, Copy)]
pub struct InodeView<'a> {
    pub ino: Ino,
    pub ftype: FileType,
    pub size: u64,
    pub uid: u32,
    pub mtime: SimInstant,
    pub atime: SimInstant,
    pub region: ManagedRegion,
    pub pool: u8,
    pub xattrs: &'a BTreeMap<String, String>,
}

impl InodeView<'_> {
    pub fn is_file(&self) -> bool {
        self.ftype == FileType::Regular
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_helpers() {
        let attr = InodeAttr {
            ino: Ino(7),
            ftype: FileType::Regular,
            size: 10,
            uid: 1000,
            mtime: SimInstant::EPOCH,
            atime: SimInstant::EPOCH,
            ctime: SimInstant::EPOCH,
            region: ManagedRegion::default(),
            pool: 0,
            xattrs: Arc::new(BTreeMap::from([(
                "fuse.chunked".to_string(),
                "1".to_string(),
            )])),
        };
        assert!(attr.is_file());
        assert!(!attr.is_dir());
        assert_eq!(attr.xattr("fuse.chunked"), Some("1"));
        assert_eq!(attr.xattr("missing"), None);
        assert_eq!(Ino(7).to_string(), "ino:7");
    }
}
