//! # copra-pfs — a GPFS-like parallel file system
//!
//! The archive side of the paper's system is IBM GPFS 3.2, chosen for its
//! ILM features (§4.2.1). This crate reproduces the surface the rest of the
//! system consumes:
//!
//! * **Storage pools** (§4.2.1): classes of service backed by device banks —
//!   a fast FC pool where data lands, a slow pool for small files, and
//!   *external* pools that hand file lists to the tape backend.
//! * **Placement rules**: evaluated at create time to choose a pool.
//! * **ILM policy engine**: GPFS-style LIST rules (§4.2.4) with a predicate
//!   language (size, mtime/atime age, uid, path globs, pool, HSM state),
//!   evaluated by a sharded parallel inode scan. GPFS's benchmark claim —
//!   one million inodes scanned in ten minutes — is reproduced by
//!   `bench/tbl_scan`.
//! * **DMAPI managed regions** (§4.2.2): HSM punches holes in migrated
//!   files, leaving a stub whose `stat` still reports the logical size;
//!   reading a stub raises a recall event instead of returning data. The
//!   state lives in each inode's typed [`ManagedRegion`], and every
//!   transition is one inode write.
//!
//! The scratch file system (PanFS in the paper) is the same type with
//! different device parameters and no external pools.

pub mod glob;
pub mod pfs;
pub mod policy;
pub mod pool;

pub use copra_vfs::{HsmState, ManagedRegion};
pub use glob::wildcard_match;
pub use pfs::{Pfs, PfsBuilder, ReadOutcome};
pub use policy::{Action, Cmp, FileRecord, FileView, PolicyEngine, Predicate, Rule, ScanReport};
pub use pool::{PoolConfig, PoolId, StoragePool};
