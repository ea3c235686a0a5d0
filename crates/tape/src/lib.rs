//! # copra-tape — tape library simulator
//!
//! The paper's backend is twenty-four LTO-4 drives behind a SAN (§4.3.1).
//! This crate models the *mechanics* that drive every tape phenomenon the
//! paper reports:
//!
//! * **streaming rate** — LTO-4 writes at ~120 MB/s when fed (§6.1 quotes
//!   the rated 100+ MB/s);
//! * **per-transaction backhitch** — HSM writes one file per transaction;
//!   the drive flushes and repositions between transactions, so millions of
//!   8 MB files migrate at ~4 MB/s (§6.1, a ~25× collapse);
//! * **mount / unload / robot** — moving a cartridge costs tens of seconds;
//! * **locate / rewind** — repositioning is proportional to byte distance,
//!   which is why unordered recalls thrash (§4.1.2-2);
//! * **label verification on agent hand-off** — in LAN-free operation a
//!   tape passed between storage agents is re-verified and rewound even
//!   without a physical dismount, the §6.2 "massive performance hit".
//!
//! Tapes store real object images ([`copra_vfs::Content`] descriptors), so
//! recall returns bit-identical data and reconciliation can enumerate
//! orphans; all timing flows through [`copra_simtime`].

pub mod cartridge;
pub mod fleet;
pub mod timing;

pub use cartridge::{Cartridge, TapeAddress, TapeId, TapeRecord};
pub use fleet::{DriveId, DriveStats, FleetStats, LibraryId, TapeError, TapeFleet};
pub use timing::TapeTiming;
