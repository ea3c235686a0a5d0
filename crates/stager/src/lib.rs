//! copra-stager — the CASTOR-style stager in front of the HSM.
//!
//! The paper ran one Open Science campaign through PFTool/HPSS; the same
//! COTS stack serving a large user community needs a *scheduler* between
//! clients and the tape fleet (CASTOR's stager is the canonical shape).
//! This crate provides:
//!
//! - **Typed requests** ([`RecallRequest`], [`MigrateRequest`]): the
//!   single entry point carrying who asks, how urgently, and pinning —
//!   replacing ad-hoc positional arguments.
//! - **Fair-share queues** ([`FairShareQueue`]): per-user FIFO lanes,
//!   byte-weighted user and group shares, priorities with aging (no
//!   starvation).
//! - **Admission control** ([`Admission`], [`AdmissionController`]):
//!   bounded in-flight per *healthy* drive and queue watermarks — typed
//!   `Accepted`/`Queued`/`Shed` verdicts instead of unbounded backlogs,
//!   and drive failures shrink capacity instead of stalling the queue.
//! - **The stager pool** ([`StagerPool`]): pinned-LRU disk cache of
//!   recalled (premigrated) files, so a cache-hot recall never touches
//!   tape twice; eviction is just re-punching the hole.
//! - **The orchestrator** ([`Stager`]): fairness-picked, tape-ordered
//!   dispatch rounds (§4.2.5 composed inside fairness), obs metrics and
//!   causal spans end to end.

pub mod admission;
pub mod cache;
pub mod queue;
pub mod request;
pub mod stager;

pub use admission::{Admission, AdmissionController};
pub use cache::{PoolReject, StagerPool};
pub use queue::{FairShareQueue, QueuedRecall};
pub use request::{MigrateRequest, Priority, RecallRequest};
pub use stager::{DispatchReport, RecallCompletion, SchedulerMode, Stager, StagerConfig};

/// A seeded splitmix64 stream for the randomized reference-model tests.
#[cfg(test)]
pub(crate) struct TestRng(pub u64);

#[cfg(test)]
impl TestRng {
    /// A draw in `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        copra_trace::splitmix64(self.0) % n
    }
}
