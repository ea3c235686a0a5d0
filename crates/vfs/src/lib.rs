//! # copra-vfs — in-memory virtual file system substrate
//!
//! Both parallel file systems in the paper's architecture (the PanFS-like
//! scratch file system and the GPFS-like archive file system) are built on
//! this substrate, as are the tape-resident object images.
//!
//! ## Data model: segments and fingerprints
//!
//! The paper's campaign moved **over four petabytes** in six months. We
//! cannot (and need not) hold real bytes at that scale: file content is a
//! sequence of [`content::Segment`]s, each either
//!
//! * **literal** — real bytes (`bytes::Bytes`), used by unit tests and small
//!   files, or
//! * **synthetic** — a `(seed, stream offset, length)` descriptor whose
//!   bytes are generated deterministically on demand.
//!
//! Copying moves descriptors (cheap) while the virtual-time layer charges
//! the *logical* byte count against devices. Integrity checking (`pfcm`),
//! restart chunk marking and corruption injection all operate on segment
//! fingerprints exactly as they would on data: two contents are equal iff
//! their boundary-normalized segment streams are byte-equal (literal
//! segments are byte-compared, synthetic ones compared by descriptor, and
//! mixed pairs compared by materializing the synthetic side).
//!
//! ## Namespace
//!
//! A classic inode table + directory tree with POSIX-ish operations:
//! `mkdir_p`, `create`, `read`, `write`, `truncate`, `unlink`, `rename`,
//! `readdir`, `stat`, extended attributes, and a recursive walker, plus
//! `create_in`, `mkdir_in` and `lookup` by (directory inode, name). All
//! timestamps are simulated ([`copra_simtime::SimInstant`]). Every inode
//! also carries its DMAPI [`ManagedRegion`] (HSM state, tape object id,
//! stub size) as typed fields, and a one-byte storage-pool tag that the
//! file system above gives it.

pub mod content;
pub mod error;
pub mod fs;
pub mod hsmstate;
pub mod inode;
pub mod path;

pub use content::{synth_byte, Content, Segment, SegmentData};
pub use error::{FsError, FsResult};
pub use fs::{DirEntry, RegionWrite, ScanPath, ShardScanStats, Vfs, WalkEntry};
pub use hsmstate::{HsmState, ManagedRegion};
pub use inode::{ChunkMark, FileType, Ino, InodeAttr};
pub use path::{is_normalized, is_under, join, normalize, parent_and_name, rebase, split};
