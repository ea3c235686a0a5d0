//! TSM object records (the authoritative server-side view).

use copra_simtime::SimInstant;
use copra_tape::TapeAddress;
use serde::{Deserialize, Serialize};

/// How an object's bytes sit on tape.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectKind {
    /// One file = one tape record (classic HSM migration, §6.1's problem
    /// case for small files).
    Simple,
    /// A container holding many small files in one tape transaction
    /// (the aggregation fix). Members reference it.
    Container { member_count: u32 },
    /// A member of an aggregated container: its bytes are `[offset,
    /// offset+len)` inside the container's tape record.
    Member { container: u64, offset: u64 },
}

/// One object in the TSM server database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsmObject {
    pub objid: u64,
    /// Archive-file-system path at store time (TSM keys on node+filespace+
    /// path; we keep the path).
    pub path: String,
    /// GPFS file id (inode) the object belongs to; 0 for containers.
    pub fs_ino: u64,
    /// Where the bytes live. For members this is the *container's* record.
    pub addr: TapeAddress,
    /// Object length (member length for members).
    pub len: u64,
    pub stored_at: SimInstant,
    pub kind: ObjectKind,
}
