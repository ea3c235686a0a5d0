//! Property tests for the tape library's mechanical invariants.

use copra_simtime::{DataSize, SimInstant};
use copra_tape::{DriveId, TapeAddress, TapeError, TapeId, TapeLibrary, TapeTiming};
use copra_vfs::Content;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Mount { drive: u8, tape: u8 },
    Dismount { drive: u8 },
    Write { drive: u8, agent: u8, len: u32 },
    ReadBack { nth: u8, drive: u8, agent: u8 },
    Delete { nth: u8 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..3, 0u8..4).prop_map(|(drive, tape)| Op::Mount { drive, tape }),
            (0u8..3).prop_map(|drive| Op::Dismount { drive }),
            (0u8..3, 0u8..3, 1u32..2_000_000).prop_map(|(drive, agent, len)| Op::Write {
                drive,
                agent,
                len
            }),
            (0u8..32, 0u8..3, 0u8..3).prop_map(|(nth, drive, agent)| Op::ReadBack {
                nth,
                drive,
                agent
            }),
            (0u8..32).prop_map(|nth| Op::Delete { nth }),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under arbitrary operation sequences:
    /// * every successful write yields a fresh unique (tape, seq) address;
    /// * reading a live object returns exactly what was written;
    /// * reading a deleted object fails with ObjectDeleted;
    /// * `live_objects` equals the model's view;
    /// * all reservations move completion time monotonically per drive.
    #[test]
    fn tape_model(ops in ops()) {
        let lib = TapeLibrary::new(3, 4, TapeTiming::lto4());
        // model: addr -> (objid, content-len, alive)
        let mut model: BTreeMap<TapeAddress, (u64, u64, bool)> = BTreeMap::new();
        let mut written: Vec<TapeAddress> = Vec::new();
        let mut next_objid = 1u64;
        let mut now = SimInstant::EPOCH;

        for op in ops {
            match op {
                Op::Mount { drive, tape } => {
                    match lib.mount(DriveId(drive as u32), TapeId(tape as u32), now) {
                        Ok(t) => {
                            now = now.max(t);
                            prop_assert_eq!(
                                lib.mounted_tape(DriveId(drive as u32)).unwrap(),
                                Some(TapeId(tape as u32))
                            );
                            prop_assert_eq!(
                                lib.drive_holding(TapeId(tape as u32)),
                                Some(DriveId(drive as u32))
                            );
                        }
                        Err(TapeError::TapeInUse { tape: t, drive: d }) => {
                            // the holder must really hold it, and not be us
                            prop_assert_eq!(lib.drive_holding(t), Some(d));
                            prop_assert!(d != DriveId(drive as u32));
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("mount: {e}"))),
                    }
                }
                Op::Dismount { drive } => {
                    let t = lib.dismount(DriveId(drive as u32), now).unwrap();
                    now = now.max(t);
                    prop_assert_eq!(lib.mounted_tape(DriveId(drive as u32)).unwrap(), None);
                }
                Op::Write { drive, agent, len } => {
                    let objid = next_objid;
                    let content = Content::synthetic(objid, len as u64);
                    match lib.write_object(DriveId(drive as u32), agent as u32, objid, content, now) {
                        Ok((addr, t)) => {
                            now = now.max(t);
                            prop_assert!(!model.contains_key(&addr), "address reuse: {addr:?}");
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
                    let addr = written[nth as usize % written.len()];
                    let (objid, len, alive) = model[&addr];
                    match lib.read_object(DriveId(drive as u32), agent as u32, addr, None, now) {
                        Ok((content, t)) => {
                            now = now.max(t);
                            prop_assert!(alive, "read of deleted object succeeded");
                            prop_assert_eq!(content.len(), len);
                            prop_assert!(content.eq_content(&Content::synthetic(objid, len)));
                            // reading requires the right tape in the drive
                            prop_assert_eq!(
                                lib.mounted_tape(DriveId(drive as u32)).unwrap(),
                                Some(addr.tape)
                            );
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
                    match lib.delete_object(addr) {
                        Ok(()) => {
                            prop_assert!(alive, "double delete succeeded");
                            model.get_mut(&addr).unwrap().2 = false;
                        }
                        Err(TapeError::ObjectDeleted(_)) => prop_assert!(!alive),
                        Err(e) => return Err(TestCaseError::fail(format!("delete: {e}"))),
                    }
                }
            }
        }
        // Library truth equals model truth.
        let mut live: Vec<(TapeAddress, u64, u64)> = model
            .iter()
            .filter(|(_, (_, _, alive))| *alive)
            .map(|(a, (o, l, _))| (*a, *o, *l))
            .collect();
        live.sort();
        prop_assert_eq!(lib.live_objects(), live);
    }

    /// Sequential writes to one tape produce strictly increasing sequence
    /// numbers and contiguous byte positions.
    #[test]
    fn writes_are_append_only(lens in prop::collection::vec(1u32..5_000_000, 1..20)) {
        let lib = TapeLibrary::new(1, 1, TapeTiming::lto4());
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
