//! The TSM server: authoritative object database, volume assignment, the
//! LAN bottleneck, and the export job feeding the MySQL replica.

mod db;

use crate::error::{HsmError, HsmResult};
use crate::object::{ObjectKind, TsmObject};
use copra_metadb::TsmCatalog;
use copra_simtime::{Bandwidth, DataSize, SimDuration, SimInstant, Timeline};
use copra_tape::{LibraryId, TapeFleet, TapeId};
use parking_lot::RwLock;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Shared {
    library: TapeFleet,
    db: RwLock<db::ObjectDb>,
    /// Copy storage groups: primary object → additional tape copies
    /// (§3.1-7's "multiple copies" ILM requirement).
    copy_groups: RwLock<FxHashMap<u64, Vec<u64>>>,
    /// Co-location groups (§4 feature list item 5): group key → the volume
    /// the group's objects are steered to, so one project's files restore
    /// from few mounts.
    collocation: RwLock<FxHashMap<String, TapeId>>,
    next_objid: AtomicU64,
    /// The server's single network interface: in LAN mode **all object
    /// data** crosses this, making it the transfer bottleneck (§4.2.2).
    nic: Timeline,
    /// Metadata transaction path (latency per operation). LAN-free movers
    /// still pay this for every object.
    meta: Timeline,
}

/// Handle to the server (cheap to clone).
#[derive(Clone)]
pub struct TsmServer {
    shared: Arc<Shared>,
}

impl TsmServer {
    /// A server fronting the tape `library` (one or more failure-domain
    /// libraries), with the given NIC rate and per-transaction metadata
    /// latency.
    pub fn new(library: TapeFleet, nic: Bandwidth, meta_latency: SimDuration) -> Self {
        TsmServer {
            shared: Arc::new(Shared {
                library,
                db: RwLock::default(),
                copy_groups: RwLock::new(FxHashMap::default()),
                collocation: RwLock::new(FxHashMap::default()),
                next_objid: AtomicU64::new(1),
                nic: Timeline::new("tsm-server-nic", nic, SimDuration::from_micros(50)),
                meta: Timeline::latency_only("tsm-server-meta", meta_latency),
            }),
        }
    }

    /// The paper's setup: one pSeries server with a 10GigE NIC and a
    /// few-millisecond object-transaction cost.
    pub fn roadrunner(library: TapeFleet) -> Self {
        TsmServer::new(
            library,
            Bandwidth::gbit_per_sec(10),
            SimDuration::from_millis(2),
        )
    }

    pub fn library(&self) -> &TapeFleet {
        &self.shared.library
    }

    /// The observability registry this server reports into (shared with
    /// its tape library).
    pub fn obs(&self) -> &std::sync::Arc<copra_obs::Registry> {
        self.shared.library.obs()
    }

    /// Statistics of the server NIC timeline (the LAN bottleneck).
    pub fn nic_stats(&self) -> copra_simtime::TimelineStats {
        self.shared.nic.stats()
    }

    /// Allocate a fresh object id: densely from 1, so the exported catalog
    /// can index its rows by objid.
    pub fn alloc_objid(&self) -> u64 {
        self.shared.next_objid.fetch_add(1, Ordering::Relaxed)
    }

    /// Consult the armed fault plane's crash-point site `site`. When a
    /// scripted [`copra_faults::ScheduledFault::CrashPoint`] matches,
    /// returns `Err(HsmError::Crashed)`, which callers let propagate —
    /// the simulated process died here with its mutations half-applied.
    /// Without an armed plane this is free (and uncounted).
    pub fn crash_point(&self, site: &str, now: SimInstant) -> HsmResult<()> {
        if let Some(plane) = self.shared.library.armed_faults() {
            if plane.take_crash_point(site, now) {
                return Err(HsmError::Crashed { site: site.into() });
            }
        }
        Ok(())
    }

    /// Charge one metadata transaction (DB insert/lookup/delete).
    pub fn meta_op(&self, ready: SimInstant) -> SimInstant {
        self.shared.meta.transfer(ready, DataSize::ZERO).end
    }

    /// Charge object data crossing the server NIC (LAN mode only).
    pub fn charge_lan(&self, ready: SimInstant, bytes: DataSize) -> SimInstant {
        self.shared.nic.transfer(ready, bytes).end
    }

    /// Register a stored object.
    pub fn register(&self, obj: TsmObject) {
        self.shared.db.write().insert(obj);
    }

    /// Register stored objects, in order, under one DB write.
    pub fn register_all(&self, objs: impl IntoIterator<Item = TsmObject>) {
        let mut db = self.shared.db.write();
        for obj in objs {
            db.insert(obj);
        }
    }

    pub fn get(&self, objid: u64) -> HsmResult<TsmObject> {
        self.shared
            .db
            .read()
            .get(objid)
            .cloned()
            .ok_or(HsmError::NoSuchObject(objid))
    }

    pub fn contains(&self, objid: u64) -> bool {
        self.shared.db.read().get(objid).is_some()
    }

    pub fn db_len(&self) -> usize {
        self.shared.db.read().len()
    }

    /// Remove an object from the database **without** touching tape (used
    /// when the tape record is already gone, e.g. media loss during
    /// reclamation). Returns the removed object.
    pub fn forget_object(&self, objid: u64) -> Option<TsmObject> {
        self.shared.copy_groups.write().remove(&objid);
        self.shared.db.write().remove(objid)
    }

    /// Snapshot of all objects (reconcile input), objid-sorted.
    pub fn objects(&self) -> Vec<TsmObject> {
        let mut v: Vec<TsmObject> = self.shared.db.read().values().cloned().collect();
        v.sort_by_key(|o| o.objid);
        v
    }

    /// Pick a volume with room for `len` bytes that is not mounted in any
    /// drive (each LAN-free agent streams to its own volume). Falls back to
    /// a mounted volume if every eligible volume is busy. One metadata
    /// transaction is charged.
    pub fn assign_volume(
        &self,
        len: DataSize,
        ready: SimInstant,
    ) -> HsmResult<(TapeId, SimInstant)> {
        self.assign_volume_avoiding(len, None, &[], ready)
    }

    /// Volume assignment that additionally refuses the `avoid` volumes —
    /// replicas must land on a different cartridge than the primary (and
    /// reclamation must not move data onto its own source). `lib` pins the
    /// choice to one library of the fleet, so each replica gets its own
    /// failure domain. Volumes in an offline library are never picked.
    /// Same unmounted-first preference and metadata charge as
    /// [`TsmServer::assign_volume`].
    pub fn assign_volume_avoiding(
        &self,
        len: DataSize,
        lib: Option<LibraryId>,
        avoid: &[TapeId],
        ready: SimInstant,
    ) -> HsmResult<(TapeId, SimInstant)> {
        let t = self.meta_op(ready);
        let fleet = &self.shared.library;
        let with_space = match lib {
            Some(lib) => fleet.tapes_with_space_in(lib, len),
            None => fleet.tapes_with_space(len),
        };
        // An offline library's volumes are unmountable — steer the write
        // to a surviving library instead of burning the mount-retry budget.
        let candidates: Vec<TapeId> = with_space
            .into_iter()
            .filter(|id| {
                !avoid.contains(id)
                    && !fleet
                        .library_of_tape(*id)
                        .is_some_and(|l| fleet.library_offline(l, t))
            })
            .collect();
        if candidates.is_empty() {
            return Err(HsmError::OutOfVolumes {
                needed: len.as_bytes(),
            });
        }
        let unmounted = candidates
            .iter()
            .copied()
            .find(|id| fleet.drive_holding(*id).is_none());
        Ok((unmounted.unwrap_or(candidates[0]), t))
    }

    /// Volume assignment honouring a co-location group: the group's
    /// current volume is reused while it has space; otherwise a new volume
    /// is assigned to the group. One metadata transaction.
    pub fn assign_volume_collocated(
        &self,
        len: DataSize,
        group: &str,
        ready: SimInstant,
    ) -> HsmResult<(TapeId, SimInstant)> {
        if let Some(tape) = self.shared.collocation.read().get(group).copied() {
            let fleet = &self.shared.library;
            let has_space = fleet
                .with_cartridge(tape, |c| c.remaining() >= len)
                .unwrap_or(false);
            // A group's volume stranded in an offline library is not
            // reusable right now; fall through and assign a fresh one.
            let stranded = fleet
                .library_of_tape(tape)
                .is_some_and(|l| fleet.library_offline(l, ready));
            if has_space && !stranded {
                return Ok((tape, self.meta_op(ready)));
            }
        }
        let avoid: Vec<TapeId> = self.shared.collocation.read().values().copied().collect();
        let (tape, t) = match self.assign_volume_avoiding(len, None, &avoid, ready) {
            Ok(ok) => ok,
            // All volumes spoken for by other groups: share.
            Err(HsmError::OutOfVolumes { .. }) => self.assign_volume(len, ready)?,
            Err(e) => return Err(e),
        };
        self.shared
            .collocation
            .write()
            .insert(group.to_string(), tape);
        Ok((tape, t))
    }

    /// The volume currently assigned to a co-location group.
    pub fn collocation_volume(&self, group: &str) -> Option<TapeId> {
        self.shared.collocation.read().get(group).copied()
    }

    // ----- copy storage groups ---------------------------------------------

    /// Record `copy` as an additional tape copy of `primary`.
    pub fn register_copy(&self, primary: u64, copy: u64) {
        self.shared
            .copy_groups
            .write()
            .entry(primary)
            .or_default()
            .push(copy);
    }

    /// Remove one copy registration from `primary`'s group. The copy
    /// object itself is untouched — re-silver uses this to drop a dead
    /// replica's registration after deleting its remnants.
    pub fn deregister_copy(&self, primary: u64, copy: u64) {
        let mut groups = self.shared.copy_groups.write();
        if let Some(v) = groups.get_mut(&primary) {
            v.retain(|&c| c != copy);
            if v.is_empty() {
                groups.remove(&primary);
            }
        }
    }

    /// Every objid registered as a copy of *some* primary — the scrub and
    /// re-silver passes use this to tell primaries from replicas.
    pub fn all_copy_objids(&self) -> Vec<u64> {
        self.shared
            .copy_groups
            .read()
            .values()
            .flatten()
            .copied()
            .collect()
    }

    /// Additional copies registered for an object.
    pub fn copies_of(&self, objid: u64) -> Vec<u64> {
        self.shared
            .copy_groups
            .read()
            .get(&objid)
            .cloned()
            .unwrap_or_default()
    }

    /// Move an object's record address (volume reclamation). Every object
    /// sharing the old address (a container and its members) is rebased.
    pub fn rebase_addr(&self, old: copra_tape::TapeAddress, new: copra_tape::TapeAddress) -> usize {
        self.shared.db.write().rebase(old, new)
    }

    /// Delete an object: DB row plus, when it owns its record, the tape
    /// record. Deleting the last member of a container deletes the
    /// container (and its record) too. One metadata transaction.
    pub fn delete_object(&self, objid: u64, ready: SimInstant) -> HsmResult<SimInstant> {
        // Deleting a primary deletes its copy group first.
        let copies = self.shared.copy_groups.write().remove(&objid);
        let mut t = ready;
        if let Some(copies) = copies {
            for copy in copies {
                match self.delete_object(copy, t) {
                    Ok(end) => t = end,
                    // Simulated process death mid-sweep must surface —
                    // recovery deals with the torn group.
                    Err(e @ HsmError::Crashed { .. }) => return Err(e),
                    // Best effort otherwise: a copy may already be gone.
                    Err(_) => {}
                }
            }
        }
        let t = self.meta_op(t);
        let mut db = self.shared.db.write();
        let obj = db.remove(objid).ok_or(HsmError::NoSuchObject(objid))?;
        // DB row gone, tape record still live: the torn state scrub's
        // record sweep repairs.
        self.crash_point("server.delete.after_db_remove", t)?;
        match obj.kind {
            ObjectKind::Simple => {
                self.shared.library.delete_object(obj.addr)?;
            }
            ObjectKind::Container { .. } => {
                // Refuse while members remain (should not happen through
                // the public API); re-insert and error out.
                let members_remain = db.values().any(
                    |o| matches!(o.kind, ObjectKind::Member { container, .. } if container == objid),
                );
                if members_remain {
                    db.insert(obj);
                    return Err(HsmError::BadMemberRange { objid });
                }
                self.shared.library.delete_object(obj.addr)?;
            }
            ObjectKind::Member { container, .. } => {
                let last = !db.values().any(
                    |o| matches!(o.kind, ObjectKind::Member { container: c, .. } if c == container),
                );
                if last {
                    if let Some(cont) = db.remove(container) {
                        self.shared.library.delete_object(cont.addr)?;
                    }
                }
            }
        }
        Ok(t)
    }

    /// Export the file-visible objects (simple + members) into the indexed
    /// replica — the paper's MySQL dump job (§4.2.5). Containers are
    /// internal and not exported. Rows already identical in the replica
    /// are left untouched (so the catalog generation counts real drift),
    /// and rows whose objects are gone are dropped. Returns rows written.
    ///
    /// The result is that of a full diff, but a re-export into the catalog
    /// this server last exported to is incremental: it checks only the
    /// objids changed since, on the server or through
    /// [`TsmCatalog::record`]/[`TsmCatalog::forget`]. A catalog the server
    /// has not synced (or that another exporter synced since) gets a full
    /// pass.
    pub fn export(&self, catalog: &TsmCatalog) -> usize {
        self.shared.db.write().export(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_obs::Registry;
    use copra_tape::{DriveId, TapeAddress, TapeTiming};
    use copra_vfs::Content;

    fn server() -> TsmServer {
        TsmServer::roadrunner(TapeFleet::new(1, 2, 4, TapeTiming::lto4(), Registry::new()))
    }

    fn simple(objid: u64, ino: u64, addr: TapeAddress, len: u64) -> TsmObject {
        TsmObject {
            objid,
            path: format!("/f{objid}"),
            fs_ino: ino,
            addr,
            len,
            stored_at: SimInstant::EPOCH,
            kind: ObjectKind::Simple,
        }
    }

    #[test]
    fn objid_allocation_is_unique_and_monotone() {
        let s = server();
        let a = s.alloc_objid();
        let b = s.alloc_objid();
        assert!(b > a);
    }

    #[test]
    fn register_get_delete_simple() {
        let s = server();
        let lib = s.library().clone();
        let t0 = lib.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let (addr, t1) = lib
            .write_object(DriveId(0), 0, 7, Content::synthetic(1, 1000), t0)
            .unwrap();
        s.register(simple(7, 42, addr, 1000));
        assert_eq!(s.get(7).unwrap().fs_ino, 42);
        assert!(s.contains(7));
        s.delete_object(7, t1).unwrap();
        assert!(!s.contains(7));
        assert_eq!(s.get(7), Err(HsmError::NoSuchObject(7)));
        // tape record gone too
        assert!(lib.live_objects().is_empty());
    }

    #[test]
    fn member_deletion_reclaims_container_when_last() {
        let s = server();
        let lib = s.library().clone();
        let t0 = lib.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let (addr, _) = lib
            .write_object(DriveId(0), 0, 100, Content::synthetic(1, 2000), t0)
            .unwrap();
        s.register(TsmObject {
            objid: 100,
            path: "/container".into(),
            fs_ino: 0,
            addr,
            len: 2000,
            stored_at: SimInstant::EPOCH,
            kind: ObjectKind::Container { member_count: 2 },
        });
        for (objid, off) in [(101u64, 0u64), (102, 1000)] {
            s.register(TsmObject {
                objid,
                path: format!("/m{objid}"),
                fs_ino: objid,
                addr,
                len: 1000,
                stored_at: SimInstant::EPOCH,
                kind: ObjectKind::Member {
                    container: 100,
                    offset: off,
                },
            });
        }
        s.delete_object(101, SimInstant::EPOCH).unwrap();
        assert!(s.contains(100), "container survives first member delete");
        assert_eq!(lib.live_objects().len(), 1);
        s.delete_object(102, SimInstant::EPOCH).unwrap();
        assert!(!s.contains(100), "container reclaimed with last member");
        assert!(lib.live_objects().is_empty());
    }

    #[test]
    fn container_delete_refused_while_members_live() {
        let s = server();
        let addr = TapeAddress {
            tape: TapeId(0),
            seq: 0,
        };
        s.register(TsmObject {
            objid: 1,
            path: "/c".into(),
            fs_ino: 0,
            addr,
            len: 10,
            stored_at: SimInstant::EPOCH,
            kind: ObjectKind::Container { member_count: 1 },
        });
        s.register(TsmObject {
            objid: 2,
            path: "/m".into(),
            fs_ino: 5,
            addr,
            len: 10,
            stored_at: SimInstant::EPOCH,
            kind: ObjectKind::Member {
                container: 1,
                offset: 0,
            },
        });
        assert!(s.delete_object(1, SimInstant::EPOCH).is_err());
        assert!(s.contains(1));
    }

    #[test]
    fn assign_volume_prefers_unmounted() {
        let s = server();
        let lib = s.library().clone();
        lib.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let (tape, _) = s.assign_volume(DataSize::mb(1), SimInstant::EPOCH).unwrap();
        assert_ne!(tape, TapeId(0), "mounted volume should be skipped");
    }

    #[test]
    fn assign_volume_avoiding_stays_inside_the_given_library() {
        use copra_tape::TapeFleet;
        let fleet = TapeFleet::new(2, 2, 4, TapeTiming::lto4(), Registry::new());
        let s = TsmServer::roadrunner(fleet);
        for lib in [LibraryId(0), LibraryId(1)] {
            let (tape, _) = s
                .assign_volume_avoiding(DataSize::mb(1), Some(lib), &[], SimInstant::EPOCH)
                .unwrap();
            assert_eq!(
                s.library().library_of_tape(tape),
                Some(lib),
                "assignment for {lib} landed on the wrong library"
            );
        }
        // avoid-list is honoured inside the constrained set too
        let all_lib1: Vec<TapeId> = (4..8).map(TapeId).collect();
        assert!(matches!(
            s.assign_volume_avoiding(
                DataSize::mb(1),
                Some(LibraryId(1)),
                &all_lib1,
                SimInstant::EPOCH
            ),
            Err(HsmError::OutOfVolumes { .. })
        ));
    }

    #[test]
    fn assign_volume_errors_when_nothing_fits() {
        let timing = TapeTiming {
            capacity: DataSize::mb(1),
            ..TapeTiming::lto4()
        };
        let s = TsmServer::roadrunner(TapeFleet::new(1, 1, 1, timing, Registry::new()));
        assert!(matches!(
            s.assign_volume(DataSize::mb(2), SimInstant::EPOCH),
            Err(HsmError::OutOfVolumes { .. })
        ));
    }

    #[test]
    fn export_writes_and_prunes_replica() {
        let s = server();
        let addr = TapeAddress {
            tape: TapeId(3),
            seq: 9,
        };
        s.register(simple(1, 11, addr, 100));
        s.register(TsmObject {
            objid: 2,
            path: "/c".into(),
            fs_ino: 0,
            addr,
            len: 10,
            stored_at: SimInstant::EPOCH,
            kind: ObjectKind::Container { member_count: 0 },
        });
        let catalog = TsmCatalog::new();
        let n = s.export(&catalog);
        assert_eq!(n, 1, "containers are not exported");
        let row = catalog.lookup(1).unwrap();
        assert_eq!((row.tape, row.seq), (3, 9));
        // object disappears server-side; export prunes the replica
        s.forget_object(1);
        s.export(&catalog);
        assert!(catalog.lookup(1).is_none());
    }

    #[test]
    fn meta_ops_serialize_on_the_server() {
        let s = TsmServer::new(
            TapeFleet::new(1, 1, 1, TapeTiming::lto4(), Registry::new()),
            Bandwidth::gbit_per_sec(10),
            SimDuration::from_millis(2),
        );
        let t1 = s.meta_op(SimInstant::EPOCH);
        let t2 = s.meta_op(SimInstant::EPOCH);
        assert_eq!(t1, SimInstant::from_nanos(2_000_000));
        assert_eq!(t2, SimInstant::from_nanos(4_000_000));
    }
}
