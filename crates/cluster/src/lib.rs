//! # copra-cluster — the FTA (File Transfer Agent) cluster substrate
//!
//! The paper's archive frontend runs on a cluster of fifteen x64 machines:
//! ten data movers plus five disk nodes, each with a 10-gigabit Ethernet
//! NIC and an FC4 HBA, joined to the compute side by a two-link 10GigE
//! trunk (§4.3.1, Figure 7). PFTool jobs are launched onto these nodes by
//! MOAB using a CPU-load-sorted machine list refreshed by the LoadManager
//! (§4.1.2-1).
//!
//! This crate models the nodes with per-node NIC/HBA timelines, a shared
//! trunk pool, task-count load tracking and the [`LoadManager`]'s sorted
//! machine list. The batch launcher itself is not modelled.

pub mod fta;
pub mod loadmgr;

pub use fta::{ClusterConfig, FtaCluster, NodeId};
pub use loadmgr::LoadManager;
