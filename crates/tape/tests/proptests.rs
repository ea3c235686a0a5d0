//! Property tests for the tape fleet's mechanical invariants.

use copra_obs::Registry;
use copra_simtime::{DataSize, SimInstant};
use copra_tape::{DriveId, LibraryId, TapeAddress, TapeError, TapeFleet, TapeId, TapeTiming};
use copra_vfs::Content;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The fleet under test: two libraries of three drives and four tapes
/// each, so library 0 owns drives 0..3 and tapes 0..4, library 1 drives
/// 3..6 and tapes 4..8.
const DRIVES: u32 = 3;
const TAPES: u32 = 4;

#[derive(Debug, Clone)]
enum Op {
    Mount {
        drive: u8,
        tape: u8,
    },
    Dismount {
        drive: u8,
    },
    EnsureMounted {
        tape: u8,
    },
    Write {
        drive: u8,
        agent: u8,
        len: u32,
    },
    ReadBack {
        nth: u8,
        drive: u8,
        agent: u8,
    },
    Delete {
        nth: u8,
    },
    /// Take library 1 offline (or bring it back).
    Offline {
        on: bool,
    },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..6, 0u8..8).prop_map(|(drive, tape)| Op::Mount { drive, tape }),
            (0u8..6).prop_map(|drive| Op::Dismount { drive }),
            (0u8..8).prop_map(|tape| Op::EnsureMounted { tape }),
            (0u8..6, 0u8..3, 1u32..2_000_000).prop_map(|(drive, agent, len)| Op::Write {
                drive,
                agent,
                len
            }),
            (0u8..32, 0u8..6, 0u8..3).prop_map(|(nth, drive, agent)| Op::ReadBack {
                nth,
                drive,
                agent
            }),
            (0u8..32).prop_map(|nth| Op::Delete { nth }),
            any::<bool>().prop_map(|on| Op::Offline { on }),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under arbitrary operation sequences over a two-library fleet:
    /// * every successful write yields a fresh unique (tape, seq) address
    ///   on a tape of the drive's own library;
    /// * reading a live object returns exactly what was written;
    /// * reading a deleted object fails with ObjectDeleted;
    /// * mounting another library's tape fails with NoSuchTape;
    /// * `ensure_mounted` picks a drive of the tape's own library;
    /// * while library 1 is offline exactly its drive operations fail;
    /// * `live_objects` equals the model's view, in (tape, seq) order, and
    ///   `tapes_with_space_in` stays inside its library;
    /// * all reservations move completion time monotonically per drive.
    #[test]
    fn tape_model(ops in ops()) {
        let fleet = TapeFleet::new(2, DRIVES as usize, TAPES as usize, TapeTiming::lto4(), Registry::new());
        let lib_of_drive = |d: DriveId| LibraryId(d.0 / DRIVES);
        let lib_of_tape = |t: TapeId| LibraryId(t.0 / TAPES);
        let mut lib1_offline = false;
        let offline = |lib: LibraryId, lib1_offline: bool| {
            (lib == LibraryId(1) && lib1_offline).then_some(TapeError::LibraryOffline { library: lib })
        };
        // model: addr -> (objid, content-len, alive)
        let mut model: BTreeMap<TapeAddress, (u64, u64, bool)> = BTreeMap::new();
        let mut written: Vec<TapeAddress> = Vec::new();
        let mut next_objid = 1u64;
        let mut now = SimInstant::EPOCH;

        for op in ops {
            match op {
                Op::Mount { drive, tape } => {
                    let (drive, tape) = (DriveId(drive as u32), TapeId(tape as u32));
                    let res = fleet.mount(drive, tape, now);
                    if lib_of_drive(drive) != lib_of_tape(tape) {
                        prop_assert_eq!(res, Err(TapeError::NoSuchTape(tape)));
                        continue;
                    }
                    if let Some(e) = offline(lib_of_drive(drive), lib1_offline) {
                        prop_assert_eq!(res, Err(e));
                        continue;
                    }
                    match res {
                        Ok(t) => {
                            now = now.max(t);
                            prop_assert_eq!(fleet.mounted_tape(drive).unwrap(), Some(tape));
                            prop_assert_eq!(fleet.drive_holding(tape), Some(drive));
                        }
                        Err(TapeError::TapeInUse { tape: t, drive: d }) => {
                            // the holder must really hold it, and not be us
                            prop_assert_eq!(fleet.drive_holding(t), Some(d));
                            prop_assert!(d != drive);
                            prop_assert_eq!(lib_of_drive(d), lib_of_tape(t));
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("mount: {e}"))),
                    }
                }
                Op::Dismount { drive } => {
                    let drive = DriveId(drive as u32);
                    let res = fleet.dismount(drive, now);
                    if let Some(e) = offline(lib_of_drive(drive), lib1_offline) {
                        prop_assert_eq!(res, Err(e));
                        continue;
                    }
                    now = now.max(res.unwrap());
                    prop_assert_eq!(fleet.mounted_tape(drive).unwrap(), None);
                }
                Op::EnsureMounted { tape } => {
                    let tape = TapeId(tape as u32);
                    let res = fleet.ensure_mounted(tape, now);
                    if let Some(e) = offline(lib_of_tape(tape), lib1_offline) {
                        prop_assert_eq!(res, Err(e));
                        continue;
                    }
                    match res {
                        Ok((d, t)) => {
                            now = now.max(t);
                            prop_assert_eq!(lib_of_drive(d), lib_of_tape(tape));
                            prop_assert_eq!(fleet.mounted_tape(d).unwrap(), Some(tape));
                            prop_assert_eq!(fleet.drive_holding(tape), Some(d));
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("ensure_mounted: {e}"))),
                    }
                }
                Op::Write { drive, agent, len } => {
                    let drive = DriveId(drive as u32);
                    let objid = next_objid;
                    let content = Content::synthetic(objid, len as u64);
                    let res = fleet.write_object(drive, agent as u32, objid, content, now);
                    if let Some(e) = offline(lib_of_drive(drive), lib1_offline) {
                        prop_assert_eq!(res.map(|_| ()), Err(e));
                        continue;
                    }
                    match res {
                        Ok((addr, t)) => {
                            now = now.max(t);
                            prop_assert!(!model.contains_key(&addr), "address reuse: {addr:?}");
                            prop_assert_eq!(lib_of_tape(addr.tape), lib_of_drive(drive));
                            model.insert(addr, (objid, len as u64, true));
                            written.push(addr);
                            next_objid += 1;
                        }
                        Err(TapeError::NotMounted(_)) | Err(TapeError::TapeFull(_)) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("write: {e}"))),
                    }
                }
                Op::ReadBack { nth, drive, agent } => {
                    if written.is_empty() {
                        continue;
                    }
                    let drive = DriveId(drive as u32);
                    let addr = written[nth as usize % written.len()];
                    let (objid, len, alive) = model[&addr];
                    let res = fleet.read_object(drive, agent as u32, addr, None, now);
                    if let Some(e) = offline(lib_of_drive(drive), lib1_offline) {
                        prop_assert_eq!(res.map(|_| ()), Err(e));
                        continue;
                    }
                    match res {
                        Ok((content, t)) => {
                            now = now.max(t);
                            prop_assert!(alive, "read of deleted object succeeded");
                            prop_assert_eq!(content.len(), len);
                            prop_assert!(content.eq_content(&Content::synthetic(objid, len)));
                            // reading requires the right tape in the drive
                            prop_assert_eq!(fleet.mounted_tape(drive).unwrap(), Some(addr.tape));
                        }
                        Err(TapeError::WrongTape { .. }) => {}
                        Err(TapeError::ObjectDeleted(a)) => {
                            prop_assert_eq!(a, addr);
                            prop_assert!(!alive);
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("read: {e}"))),
                    }
                }
                Op::Delete { nth } => {
                    if written.is_empty() {
                        continue;
                    }
                    let addr = written[nth as usize % written.len()];
                    let alive = model[&addr].2;
                    // A catalog operation: no drive time, so no outage gate.
                    match fleet.delete_object(addr) {
                        Ok(()) => {
                            prop_assert!(alive, "double delete succeeded");
                            model.get_mut(&addr).unwrap().2 = false;
                        }
                        Err(TapeError::ObjectDeleted(_)) => prop_assert!(!alive),
                        Err(e) => return Err(TestCaseError::fail(format!("delete: {e}"))),
                    }
                }
                Op::Offline { on } => {
                    fleet.set_library_offline(LibraryId(1), on);
                    lib1_offline = on;
                    prop_assert_eq!(fleet.library_offline(LibraryId(1), now), on);
                    prop_assert!(!fleet.library_offline(LibraryId(0), now));
                }
            }
        }
        // Fleet truth equals model truth, in (tape, seq) order.
        let live: Vec<(TapeAddress, u64, u64)> = model
            .iter()
            .filter(|(_, (_, _, alive))| *alive)
            .map(|(a, (o, l, _))| (*a, *o, *l))
            .collect();
        let got = fleet.live_objects();
        prop_assert!(got.windows(2).all(|w| (w[0].0.tape, w[0].0.seq) < (w[1].0.tape, w[1].0.seq)));
        prop_assert_eq!(got, live);
        // Per-library allocation stays inside its library, and the two
        // libraries together offer exactly the fleet-wide pool.
        let one = DataSize::from_bytes(1);
        let mut both = Vec::new();
        for lib in [LibraryId(0), LibraryId(1)] {
            let inside = fleet.tapes_with_space_in(lib, one);
            prop_assert!(inside.iter().all(|&t| lib_of_tape(t) == lib), "{lib}: {inside:?}");
            both.extend(inside);
        }
        let mut all = fleet.tapes_with_space(one);
        both.sort();
        all.sort();
        prop_assert_eq!(both, all);
    }

    /// Sequential writes to one tape produce strictly increasing sequence
    /// numbers and contiguous byte positions.
    #[test]
    fn writes_are_append_only(lens in prop::collection::vec(1u32..5_000_000, 1..20)) {
        let lib = TapeFleet::new(1, 1, 1, TapeTiming::lto4(), Registry::new());
        let mut now = lib.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let mut expected_start = 0u64;
        for (i, len) in lens.iter().enumerate() {
            let (addr, t) = lib
                .write_object(DriveId(0), 0, i as u64, Content::synthetic(1, *len as u64), now)
                .unwrap();
            now = t;
            prop_assert_eq!(addr.seq, i as u32);
            let start = lib
                .with_cartridge(TapeId(0), |c| c.record(addr.seq).unwrap().start)
                .unwrap();
            prop_assert_eq!(start, expected_start);
            expected_start += *len as u64;
        }
        let written = lib
            .with_cartridge(TapeId(0), |c| c.bytes_written())
            .unwrap();
        prop_assert_eq!(written, expected_start);
        prop_assert_eq!(
            lib.tapes_with_space(DataSize::from_bytes(1)).is_empty(),
            expected_start + 1 > TapeTiming::lto4().capacity.as_bytes()
        );
    }
}
