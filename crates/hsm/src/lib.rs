//! # copra-hsm — a TSM-like backup/archive product with HSM
//!
//! Tivoli Storage Manager supplies the paper's backend (§4.2.2): a central
//! server owning the object database, Hierarchical Storage Management for
//! GPFS via DMAPI, and — crucially — the **LAN-free** data path that moves
//! data from a client node straight to a SAN-attached tape drive while only
//! metadata crosses the network to the server. Multiple LAN-free machines
//! write different tapes independently: that is the parallel-tape-movement
//! enabler of the whole system (Figure 6).
//!
//! This crate implements:
//!
//! * [`server::TsmServer`] — authoritative object DB, object-id allocation,
//!   scratch-volume assignment, the single-NIC LAN bottleneck, export into
//!   the indexed [`copra_metadb::TsmCatalog`] replica, object deletion;
//! * [`agent::StorageAgent`] — per-node mover supporting both
//!   [`agent::DataPath::Lan`] and [`agent::DataPath::LanFree`];
//! * [`hsm::Hsm`] — file-level migrate / premigrate / punch / recall
//!   against a [`copra_pfs::Pfs`], plus the per-node **recall daemons**
//!   with the §6.2 assignment policies ([`hsm::RecallPolicy::Scatter`] vs
//!   [`hsm::RecallPolicy::TapeAffinity`]);
//! * [`aggregate`] — the §6.1 small-file fix: bundle many small files into
//!   one tape transaction, with member-addressable fetches;
//! * [`mod@reconcile`] — the classic tree-walk reconciliation the integration
//!   works so hard to avoid (kept as the baseline for T-SYNCDEL).

pub mod agent;
pub mod aggregate;
pub mod error;
pub mod hsm;
pub mod object;
pub mod reclaim;
pub mod reconcile;
pub mod server;

pub use agent::{DataPath, StorageAgent, Volume};
pub use error::{HsmError, HsmResult};
pub use hsm::{Hsm, PlacementPolicy, RecallPolicy, RecallRequest};
pub use object::{ObjectKind, TsmObject};
pub use reclaim::{reclaim_eligible, reclaim_volume, ReclaimReport};
pub use reconcile::{reconcile, resilver, scrub, ReconcileReport, ResilverReport, ScrubReport};
pub use server::TsmServer;
