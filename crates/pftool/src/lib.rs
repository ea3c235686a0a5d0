//! # copra-pftool — the Parallel File Tool
//!
//! The paper's frontend and primary custom contribution (§4.1): an
//! MPI-based parallel tree walker, copier and comparator. The process
//! architecture of Figure 3 is reproduced rank for rank:
//!
//! * **Manager** (rank 0) — conductor: drives the parallel tree walk, owns
//!   the directory queue (`DirQ`), name/stat queue (`NameQ`), copy queue
//!   (`CopyQ`) and the per-tape restore queues (`TapeCQ`s), hands work to
//!   whichever process asks for it, and finalizes the statistics report.
//! * **OutPutProc** (rank 1) — serializes operation output.
//! * **WatchDog** (rank 2) — progress recorder; force-terminates a run
//!   whose data movement stalls in simulated time.
//! * **ReadDir processes** — expose directories for the tree walk.
//! * **Workers** — stat files, move data, compare data.
//! * **TapeProc processes** — restore migrated files, one tape queue at a
//!   time, in ascending tape-sequence order (§4.1.2-2).
//!
//! Every process except the Manager takes work when it is idle, as §4.1.1
//! describes ("all available processes keep sending request messages to
//! the Manager"). The ranks run on one deterministic simulated-time loop
//! ([`engine`]): the Manager gives one queue entry at a time to the idle
//! rank that is free earliest in simulated time and commits completions
//! in simulated-time order, so a run's simulated results never depend on
//! host scheduling.
//!
//! The three user commands are [`api::pfls`], [`api::pfcp`]
//! and [`api::pfcm`] (§4.1.3), with the runtime tunables of §4.1.2
//! collected in [`config::PftoolConfig`].

pub mod api;
pub mod config;
pub mod engine;
pub mod queues;
pub mod report;
pub mod view;
pub mod watchdog;

pub use api::{pfcm, pfcp, pfls};
pub use config::PftoolConfig;
pub use queues::FileMeta;
pub use report::{CompareReport, CopyReport, ListReport, ProgressSample, RunStats};
pub use view::FsView;
