//! Property tests: pool accounting and HSM state machine invariants under
//! arbitrary operation sequences.

use copra_pfs::{Cmp, HsmState, ManagedRegion, Pfs, PfsBuilder, PoolConfig, Predicate, Rule};
use copra_simtime::{Clock, DataSize, SimDuration, SimInstant};
use copra_vfs::{Content, FsError, FsResult, Ino};
use proptest::prelude::*;
use std::collections::HashMap;

fn archive() -> Pfs {
    PfsBuilder::new("a", Clock::new())
        .pool(PoolConfig::fast_disk("fast", 2, DataSize::tb(1)))
        .pool(PoolConfig::slow_disk("slow", 2, DataSize::tb(1)))
        .placement(vec![
            Rule {
                name: "small".into(),
                action: copra_pfs::Action::Place {
                    pool: "slow".into(),
                },
                predicate: Predicate::SizeBytes(Cmp::Lt, 1000),
            },
            Rule {
                name: "rest".into(),
                action: copra_pfs::Action::Place {
                    pool: "fast".into(),
                },
                predicate: Predicate::True,
            },
        ])
        .build()
}

#[derive(Debug, Clone)]
enum Op {
    Create(u8, u32),
    /// Unlink the file, then create a new one under the same name.
    Recreate(u8, u32),
    Rename(u8, u8),
    WriteAt(u8, u32, u32),
    Truncate(u8, u32),
    Unlink(u8),
    Premigrate(u8),
    Punch(u8),
    Restore(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..12, 0u32..100_000).prop_map(|(f, s)| Op::Create(f, s)),
            (0u8..12, 0u32..2_000).prop_map(|(f, s)| Op::Recreate(f, s)),
            (0u8..12, 0u8..12).prop_map(|(f, g)| Op::Rename(f, g)),
            (0u8..12, 0u32..50_000, 0u32..50_000).prop_map(|(f, o, l)| Op::WriteAt(f, o, l)),
            (0u8..12, 0u32..120_000).prop_map(|(f, s)| Op::Truncate(f, s)),
            (0u8..12).prop_map(Op::Unlink),
            (0u8..12).prop_map(Op::Premigrate),
            (0u8..12).prop_map(Op::Punch),
            (0u8..12).prop_map(Op::Restore),
        ],
        1..60,
    )
}

/// One file of the accounting model: its ino, logical size, HSM state and
/// the pool it must be in.
struct Placed {
    ino: Ino,
    logical: u64,
    state: HsmState,
    pool: &'static str,
}

/// Create `/f{f}` in `pfs` and return its model, placed the way
/// [`archive`]'s rules place a file of `size` bytes.
fn place(pfs: &Pfs, f: u8, size: u32) -> Placed {
    let content = Content::synthetic(u64::from(f), u64::from(size));
    Placed {
        ino: pfs.create_file(&format!("/f{f}"), 0, content).unwrap(),
        logical: u64::from(size),
        state: HsmState::Resident,
        pool: if size < 1000 { "slow" } else { "fast" },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any sequence of namespace + DMAPI operations, against a model
    /// that owns each file's pool (placed by size at create, placed afresh
    /// on re-create):
    /// * `pool_of` and the scan records' `pool`, at 1 and 4 threads, name
    ///   the model's pool;
    /// * per-pool `used` equals the sum of on-disk bytes of its files;
    /// * logical sizes survive punch/restore and rename;
    /// * the HSM state machine only takes legal transitions.
    #[test]
    fn pool_accounting_matches_reality(ops in ops()) {
        let pfs = archive();
        let mut files: HashMap<u8, Placed> = HashMap::new();
        let mut next_objid = 1u64;
        for op in ops {
            match op {
                Op::Create(f, size) => {
                    files.entry(f).or_insert_with(|| place(&pfs, f, size));
                }
                Op::Recreate(f, size) => {
                    if let Some(m) = files.remove(&f) {
                        prop_assert_eq!(pfs.unlink(&format!("/f{f}")).unwrap().size, m.logical);
                        files.insert(f, place(&pfs, f, size));
                    }
                }
                Op::Rename(f, g) => {
                    if files.contains_key(&f) && !files.contains_key(&g) {
                        pfs.rename(&format!("/f{f}"), &format!("/f{g}")).unwrap();
                        let m = files.remove(&f).unwrap();
                        files.insert(g, m);
                    }
                }
                Op::WriteAt(f, off, len) => {
                    if let Some(m) = files.get_mut(&f) {
                        let patch = Content::synthetic(9, len as u64);
                        if m.state == HsmState::Migrated {
                            prop_assert!(pfs.write_at(m.ino, off as u64, patch).is_err());
                            continue;
                        }
                        pfs.write_at(m.ino, off as u64, patch).unwrap();
                        m.logical = m.logical.max(off as u64 + len as u64);
                        m.state = HsmState::Resident; // mutation orphans tape copy
                    }
                }
                Op::Truncate(f, size) => {
                    if let Some(m) = files.get_mut(&f) {
                        if m.state == HsmState::Migrated {
                            prop_assert!(pfs.truncate(m.ino, size as u64).is_err());
                            continue;
                        }
                        pfs.truncate(m.ino, size as u64).unwrap();
                        m.logical = size as u64;
                        m.state = HsmState::Resident;
                    }
                }
                Op::Unlink(f) => {
                    if let Some(m) = files.remove(&f) {
                        let attr = pfs.unlink(&format!("/f{f}")).unwrap();
                        prop_assert_eq!(attr.size, m.logical);
                    }
                }
                Op::Premigrate(f) => {
                    if let Some(m) = files.get_mut(&f) {
                        if m.state == HsmState::Resident {
                            pfs.mark_premigrated(m.ino, next_objid).unwrap();
                            next_objid += 1;
                            m.state = HsmState::Premigrated;
                        }
                    }
                }
                Op::Punch(f) => {
                    if let Some(m) = files.get_mut(&f) {
                        let r = pfs.punch_hole(m.ino);
                        if m.state == HsmState::Premigrated {
                            r.unwrap();
                            m.state = HsmState::Migrated;
                        } else {
                            prop_assert!(r.is_err());
                        }
                    }
                }
                Op::Restore(f) => {
                    if let Some(m) = files.get_mut(&f) {
                        let r = pfs.restore_stub(m.ino, Content::synthetic(1, m.logical));
                        if m.state == HsmState::Migrated {
                            r.unwrap();
                            m.state = HsmState::Premigrated;
                        } else {
                            prop_assert!(r.is_err());
                        }
                    }
                }
            }
            // Invariants after every step.
            let mut per_pool: HashMap<&str, u64> = HashMap::new();
            let mut want: Vec<(String, Ino, String)> = Vec::new();
            for (f, m) in &files {
                let path = format!("/f{f}");
                prop_assert_eq!(pfs.stat(&path).unwrap().size, m.logical, "logical size of f{}", f);
                prop_assert_eq!(pfs.hsm_state(m.ino).unwrap(), m.state);
                prop_assert_eq!(pfs.pool(pfs.pool_of(m.ino)).name(), m.pool, "pool of f{}", f);
                let on_disk = if m.state == HsmState::Migrated { 0 } else { m.logical };
                *per_pool.entry(m.pool).or_default() += on_disk;
                want.push((path, m.ino, m.pool.to_string()));
            }
            want.sort();
            for threads in [1, 4] {
                let got: Vec<(String, Ino, String)> = pfs
                    .scan_records_with(threads)
                    .into_iter()
                    .map(|r| (r.path, r.ino, r.pool))
                    .collect();
                prop_assert_eq!(&got, &want, "scan records at {} threads", threads);
            }
            for pool in pfs.pools() {
                let want = per_pool.get(pool.name()).copied().unwrap_or(0);
                prop_assert_eq!(
                    pool.usage().used.as_bytes(),
                    want,
                    "pool {} accounting",
                    pool.name()
                );
            }
        }
    }
}

/// One DMAPI-level operation on file slot `.0` of the state-machine test.
#[derive(Debug, Clone)]
enum Dmapi {
    Create(u8, u32),
    Premigrate(u8),
    Punch(u8),
    /// Restore with the stub's length (`true`) or one byte too many.
    Restore(u8, bool),
    Demote(u8),
    WriteAt(u8, u32, u32),
    Truncate(u8, u32),
    Unlink(u8),
}

impl Dmapi {
    fn slot(&self) -> u8 {
        match *self {
            Dmapi::Create(f, _)
            | Dmapi::Premigrate(f)
            | Dmapi::Punch(f)
            | Dmapi::Restore(f, _)
            | Dmapi::Demote(f)
            | Dmapi::WriteAt(f, ..)
            | Dmapi::Truncate(f, _)
            | Dmapi::Unlink(f) => f,
        }
    }
}

fn dmapi_ops() -> impl Strategy<Value = Vec<Dmapi>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..4, 0u32..20_000).prop_map(|(f, s)| Dmapi::Create(f, s)),
            (0u8..4).prop_map(Dmapi::Premigrate),
            (0u8..4).prop_map(Dmapi::Punch),
            (0u8..4, prop_oneof![Just(true), Just(true), Just(false)])
                .prop_map(|(f, ok)| Dmapi::Restore(f, ok)),
            (0u8..4).prop_map(Dmapi::Demote),
            (0u8..4, 0u32..30_000, 0u32..10_000).prop_map(|(f, o, l)| Dmapi::WriteAt(f, o, l)),
            (0u8..4, 0u32..30_000).prop_map(|(f, s)| Dmapi::Truncate(f, s)),
            (0u8..4).prop_map(Dmapi::Unlink),
        ],
        1..80,
    )
}

/// The reference model of one file: its managed region, bytes on disk
/// and the two timestamps the transitions stamp.
#[derive(Debug, Clone)]
struct FileModel {
    ino: Ino,
    region: ManagedRegion,
    disk: u64,
    mtime: SimInstant,
    ctime: SimInstant,
}

impl FileModel {
    fn logical(&self) -> u64 {
        self.region.stub_size.unwrap_or(self.disk)
    }

    /// A write or truncate to `len` bytes: refused on a stub; on a
    /// premigrated file it orphans the tape copy (an attribute change).
    fn mutate(&mut self, len: u64, now: SimInstant) -> FsResult<()> {
        if self.region.state == HsmState::Migrated {
            return Err(FsError::PermissionDenied(format!(
                "{} is a migrated stub; recall before writing",
                self.ino
            )));
        }
        self.disk = len;
        self.mtime = now;
        if self.region.state == HsmState::Premigrated {
            self.region.orphan_objid = self.region.objid.or(self.region.orphan_objid);
            self.region.objid = None;
            self.region.state = HsmState::Resident;
            self.ctime = now;
        }
        Ok(())
    }
}

/// Apply a transition, write or truncate to the model; returns the pfs
/// call's expected result, or `None` if the file does not exist.
fn model_step(
    files: &mut HashMap<u8, FileModel>,
    op: &Dmapi,
    now: SimInstant,
    objid: u64,
) -> Option<FsResult<()>> {
    let denied = |what: &str, m: &FileModel, why: &str| {
        Err(FsError::PermissionDenied(format!(
            "{what} on {} in state {}{why}",
            m.ino, m.region.state
        )))
    };
    let m = files.get_mut(&op.slot())?;
    Some(match *op {
        Dmapi::Premigrate(_) => {
            m.region.state = HsmState::Premigrated;
            m.region.objid = Some(objid);
            m.ctime = now;
            Ok(())
        }
        Dmapi::Punch(_) if m.region.state != HsmState::Premigrated => {
            denied("punch_hole", m, " (need premigrated)")
        }
        Dmapi::Punch(_) => {
            m.region.state = HsmState::Migrated;
            m.region.stub_size = Some(m.disk);
            m.disk = 0;
            (m.mtime, m.ctime) = (now, now);
            Ok(())
        }
        Dmapi::Restore(..) if m.region.state != HsmState::Migrated => {
            denied("restore_stub", m, " (need migrated)")
        }
        Dmapi::Restore(_, false) => Err(FsError::InvalidRange {
            len: m.logical(),
            offset: 0,
            requested: m.logical() + 1,
        }),
        Dmapi::Restore(_, true) => {
            m.disk = m.logical();
            m.region.state = HsmState::Premigrated;
            m.region.stub_size = None;
            (m.mtime, m.ctime) = (now, now);
            Ok(())
        }
        Dmapi::Demote(_) if m.region.state == HsmState::Migrated => {
            denied("mark_resident", m, ": stub has no disk copy")
        }
        Dmapi::Demote(_) => {
            m.region.state = HsmState::Resident;
            m.region.objid = None;
            m.region.stub_size = None;
            m.ctime = now;
            Ok(())
        }
        Dmapi::WriteAt(_, off, len) => {
            let end = m.disk.max(u64::from(off) + u64::from(len));
            m.mutate(end, now)
        }
        Dmapi::Truncate(_, len) => m.mutate(u64::from(len), now),
        Dmapi::Create(..) | Dmapi::Unlink(_) => unreachable!("handled by the caller"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random create / premigrate / punch / restore / demote / write /
    /// truncate / unlink sequences against a reference model of the DMAPI
    /// transitions. After every step the pfs must agree with the model on
    /// state, objid, orphan objid, logical and on-disk size, mtime and
    /// ctime, pool accounting and the error of a refused transition (which
    /// leaves the inode untouched); the policy scan's records must agree
    /// with `hsm_state` and `logical_size`.
    #[test]
    fn dmapi_transitions_match_reference_model(ops in dmapi_ops()) {
        let pfs = PfsBuilder::new("a", Clock::new())
            .pool(PoolConfig::fast_disk("fast", 2, DataSize::tb(1)))
            .build();
        let mut files: HashMap<u8, FileModel> = HashMap::new();
        let mut next_objid = 1u64;
        for op in &ops {
            let now = pfs.clock().now() + SimDuration::from_secs(1);
            pfs.clock().advance_to(now);
            let path = |f: &u8| format!("/f{f}");
            match op {
                Dmapi::Create(f, size) => {
                    if files.contains_key(f) {
                        continue;
                    }
                    let content = Content::synthetic(u64::from(*f), u64::from(*size));
                    let ino = pfs.create_file(&path(f), 0, content).unwrap();
                    let region = ManagedRegion::default();
                    let disk = u64::from(*size);
                    files.insert(*f, FileModel { ino, region, disk, mtime: now, ctime: now });
                }
                Dmapi::Unlink(f) => {
                    let Some(m) = files.remove(f) else { continue };
                    let attr = pfs.unlink(&path(f)).unwrap();
                    prop_assert_eq!(attr.size, m.logical());
                    prop_assert_eq!(attr.region, m.region);
                }
                op => {
                    let objid = next_objid;
                    let Some(want) = model_step(&mut files, op, now, objid) else { continue };
                    let ino = files[&op.slot()].ino;
                    let got = match *op {
                        Dmapi::Premigrate(_) => {
                            next_objid += 1;
                            pfs.mark_premigrated(ino, objid)
                        }
                        Dmapi::Punch(_) => pfs.punch_hole(ino),
                        Dmapi::Restore(_, ok) => {
                            let len = pfs.logical_size(ino).unwrap() + u64::from(!ok);
                            pfs.restore_stub(ino, Content::synthetic(3, len))
                        }
                        Dmapi::Demote(_) => pfs.mark_resident(ino),
                        Dmapi::WriteAt(_, off, len) => pfs.write_at(
                            ino,
                            u64::from(off),
                            Content::synthetic(9, u64::from(len)),
                        ),
                        Dmapi::Truncate(_, len) => pfs.truncate(ino, u64::from(len)),
                        Dmapi::Create(..) | Dmapi::Unlink(_) => unreachable!(),
                    };
                    prop_assert_eq!(got, want, "{:?}", op);
                }
            }
            // The pfs agrees with the model on every live file.
            let mut on_disk = 0;
            for (f, m) in &files {
                prop_assert_eq!(pfs.region(m.ino).unwrap(), m.region, "f{} after {:?}", f, op);
                prop_assert_eq!(pfs.hsm_state(m.ino).unwrap(), m.region.state);
                prop_assert_eq!(pfs.hsm_objid(m.ino).unwrap(), m.region.objid);
                prop_assert_eq!(pfs.logical_size(m.ino).unwrap(), m.logical());
                prop_assert_eq!(pfs.stat(&path(f)).unwrap().size, m.logical());
                let raw = pfs.vfs().stat_ino(m.ino).unwrap();
                prop_assert_eq!(raw.size, m.disk);
                prop_assert_eq!(raw.mtime, m.mtime, "mtime of f{} after {:?}", f, op);
                prop_assert_eq!(raw.ctime, m.ctime, "ctime of f{} after {:?}", f, op);
                on_disk += m.disk;
            }
            let usage = pfs.pool_by_name("fast").unwrap().usage();
            prop_assert_eq!(usage.used.as_bytes(), on_disk);
            prop_assert_eq!(usage.files as usize, files.len());
            // So does the policy scan, record by record.
            let records = pfs.scan_records_with(1);
            prop_assert_eq!(records.len(), files.len());
            for r in &records {
                prop_assert_eq!(r.hsm, pfs.hsm_state(r.ino).unwrap());
                prop_assert_eq!(r.size, pfs.logical_size(r.ino).unwrap());
            }
        }
    }
}
