//! # copra-core — the integrated COTS Parallel Archive System
//!
//! This crate is the paper's *system*: everything below it is a substrate
//! (GPFS stand-in, TSM stand-in, tape library, cluster, PFTool), and this
//! crate wires them into the deployed archive of Figures 2 and 7:
//!
//! * [`system::ArchiveSystem`] — one call builds the whole stack (scratch
//!   PFS ↔ 2×10GigE trunk ↔ FTA cluster ↔ archive GPFS ↔ TSM ↔ 24 LTO-4
//!   drives) with the Roadrunner deployment as the default configuration,
//!   and exposes the user-facing operations: `archive` (pfcp in),
//!   `retrieve` (pfcp out, tape-aware), `list` (pfls), `verify` (pfcm).
//! * [`migrator`] — the custom parallel data migrator (§4.2.4): LIST
//!   policy candidates, size-balanced across FTA nodes, optional
//!   aggregation, with the naive GPFS-policy behaviours kept as baselines.
//! * [`syncdel`] — the synchronous deleter (§4.2.6): file-system delete and
//!   TSM/tape delete issued together, via the indexed catalog, so no
//!   orphans are left and no reconcile walk is ever needed.
//! * [`trashcan`] — the per-user trashcan (§4.2.7): unlinks park files,
//!   un-delete restores them, and a policy-driven purge feeds the
//!   synchronous deleter.
//! * [`jail`] — the chroot-style restricted command environment (§4.2.3)
//!   that keeps tape-oblivious tools like `grep` away from stubs.
//! * [`obs`] — the system-wide observability capture: every device
//!   timeline's utilization plus the shared metrics registry, rendered as
//!   JSON or the plain-text campaign dashboard.
//! * [`search`] — multi-dimensional metadata search over namespace +
//!   catalog (the paper's §7 future-work item, implemented).

pub mod jail;
pub mod migrator;
pub mod obs;
pub mod recovery;
pub mod search;
pub mod syncdel;
pub mod system;
pub mod trashcan;

pub use jail::{Jail, JailError};
pub use migrator::{migrate_candidates, MigrationPolicy, MigrationReport};
pub use obs::{DeviceUtilization, SystemSnapshot};
pub use recovery::{recover, RecoveryReport};
pub use search::{ArchiveSearch, Plan, Query, SearchEntry};
pub use syncdel::{SyncDeleteError, SyncDeleteReport, SyncDeleter};
pub use system::{ArchiveSystem, SystemConfig};
pub use trashcan::Trashcan;
