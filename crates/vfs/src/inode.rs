//! Inode identifiers and attributes.

use crate::hsmstate::ManagedRegion;
use copra_simtime::SimInstant;
use serde::{Deserialize, Serialize};
use std::fmt;

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

/// ArchiveFUSE's mark on the pieces of a chunked file (§4.1.2-4): the
/// directory that stands for the file, and each chunk in it with the
/// fingerprint restart marking compares (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChunkMark {
    /// A chunked file's directory; `logical` is the file's size.
    Dir { logical: u64 },
    /// One chunk, with the fingerprint of the content written to it.
    Chunk { fingerprint: u64 },
}

/// Stat-visible attributes of an inode. `Vfs::inspect` and `Vfs::par_scan`
/// build one per inode under the inode table's read guard and lend it to
/// their callbacks: nothing is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Storage-pool tag, opaque to the `Vfs` (0 unless the creator set
    /// one).
    pub pool: u8,
    /// ArchiveFUSE's mark, if the inode is part of a chunked file.
    pub chunk_mark: Option<ChunkMark>,
}

impl InodeAttr {
    pub fn is_dir(&self) -> bool {
        self.ftype == FileType::Directory
    }

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
            chunk_mark: Some(ChunkMark::Chunk { fingerprint: 9 }),
        };
        assert!(attr.is_file());
        assert!(!attr.is_dir());
        assert_eq!(attr.chunk_mark, Some(ChunkMark::Chunk { fingerprint: 9 }));
        assert_eq!(Ino(7).to_string(), "ino:7");
    }
}
