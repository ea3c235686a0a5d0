//! # copra-cluster — the FTA (File Transfer Agent) cluster substrate
//!
//! The paper's archive frontend runs on a cluster of fifteen x64 machines:
//! ten data movers plus five disk nodes, each with a 10-gigabit Ethernet
//! NIC and an FC4 HBA, joined to the compute side by a two-link 10GigE
//! trunk (§4.3.1, Figure 7). PFTool jobs are launched onto these nodes by
//! MOAB using a machine list sorted by CPU load (§4.1.2-1).
//!
//! This crate models the nodes with per-node NIC/HBA timelines and a
//! shared trunk pool. Neither the batch launcher nor the load sorting is
//! modelled: a run's machine list is the nodes in id order, which is what
//! a load-sorted list gives when jobs barely overlap, as the paper's
//! campaign's jobs do.

pub mod fta;

pub use fta::{FtaCluster, NodeId};
