//! A fleet of tape libraries behind one routing facade.
//!
//! The paper's site has a single library; replication (TALICS³-style)
//! needs several, each with its own robot, drives and media, so a
//! whole-library outage fences one failure domain without touching the
//! others. [`TapeFleet`] owns N [`TapeLibrary`] instances with disjoint
//! global drive/tape id ranges and routes every address-carrying
//! operation to the owning library — callers keep using plain
//! [`TapeId`]/[`DriveId`]/[`TapeAddress`] values and never name a library
//! explicitly. A single-library fleet behaves bit-identically to the
//! bare library it wraps.

use crate::cartridge::{Cartridge, TapeAddress, TapeId};
use crate::library::{DriveId, LibraryId, LibraryStats, TapeError, TapeLibrary};
use crate::timing::TapeTiming;
use copra_faults::FaultPlane;
use copra_obs::Registry;
use copra_simtime::{DataSize, SimDuration, SimInstant, TimelineStats};
use copra_vfs::Content;
use std::sync::Arc;

/// N libraries, one id namespace. Cheap to clone (a `Vec` of shared
/// library handles).
#[derive(Clone)]
pub struct TapeFleet {
    libraries: Arc<Vec<TapeLibrary>>,
}

impl From<TapeLibrary> for TapeFleet {
    fn from(lib: TapeLibrary) -> Self {
        TapeFleet {
            libraries: Arc::new(vec![lib]),
        }
    }
}

impl TapeFleet {
    /// `count` identical libraries of `drives` drives and `tapes` volumes
    /// each, with disjoint global id ranges, all reporting into `obs`.
    pub fn new_uniform(
        count: usize,
        drives: usize,
        tapes: usize,
        timing: TapeTiming,
        obs: Arc<Registry>,
    ) -> Self {
        assert!(count > 0, "fleet needs at least one library");
        let libraries = (0..count)
            .map(|i| {
                TapeLibrary::with_identity(
                    LibraryId(i as u32),
                    (i * drives) as u32,
                    (i * tapes) as u32,
                    drives,
                    tapes,
                    timing,
                    obs.clone(),
                )
            })
            .collect();
        TapeFleet {
            libraries: Arc::new(libraries),
        }
    }

    /// The member libraries, in id order.
    pub fn libraries(&self) -> &[TapeLibrary] {
        &self.libraries
    }

    pub fn library_count(&self) -> usize {
        self.libraries.len()
    }

    /// The library owning `tape`.
    pub fn library_for_tape(&self, tape: TapeId) -> Result<&TapeLibrary, TapeError> {
        self.libraries
            .iter()
            .find(|l| l.owns_tape(tape))
            .ok_or(TapeError::NoSuchTape(tape))
    }

    /// The library owning `drive`.
    pub fn library_for_drive(&self, drive: DriveId) -> Result<&TapeLibrary, TapeError> {
        self.libraries
            .iter()
            .find(|l| l.owns_drive(drive))
            .ok_or(TapeError::NoSuchDrive(drive))
    }

    /// Which library id owns `tape`, if any.
    pub fn library_of_tape(&self, tape: TapeId) -> Option<LibraryId> {
        self.library_for_tape(tape).ok().map(|l| l.lib_id())
    }

    /// The shared observability registry (every library reports into it).
    pub fn obs(&self) -> &Arc<Registry> {
        self.libraries[0].obs()
    }

    /// The (uniform) drive timing model.
    pub fn timing(&self) -> &TapeTiming {
        self.libraries[0].timing()
    }

    /// Arm a fault plane on every member library.
    pub fn arm_faults(&self, plane: Arc<FaultPlane>) {
        for l in self.libraries.iter() {
            l.arm_faults(plane.clone());
        }
    }

    /// The armed fault plane, if any.
    pub fn armed_faults(&self) -> Option<Arc<FaultPlane>> {
        self.libraries[0].armed_faults()
    }

    /// Total drives across the fleet.
    pub fn drive_count(&self) -> usize {
        self.libraries.iter().map(|l| l.drive_count()).sum()
    }

    /// Total volumes across the fleet.
    pub fn tape_count(&self) -> usize {
        self.libraries.iter().map(|l| l.tape_count()).sum()
    }

    /// Every drive id in the fleet, in library then id order.
    pub fn drives(&self) -> impl Iterator<Item = DriveId> + '_ {
        self.libraries.iter().flat_map(|l| l.drives())
    }

    pub fn is_fenced(&self, drive: DriveId) -> Result<bool, TapeError> {
        self.library_for_drive(drive)?.is_fenced(drive)
    }

    /// Is the library owning `tape` offline at `now`?
    pub fn tape_library_offline(&self, tape: TapeId, now: SimInstant) -> bool {
        self.library_for_tape(tape)
            .map(|l| l.is_offline(now))
            .unwrap_or(false)
    }

    pub fn with_cartridge<R>(
        &self,
        id: TapeId,
        f: impl FnOnce(&Cartridge) -> R,
    ) -> Result<R, TapeError> {
        self.library_for_tape(id)?.with_cartridge(id, f)
    }

    pub fn mounted_tape(&self, drive: DriveId) -> Result<Option<TapeId>, TapeError> {
        self.library_for_drive(drive)?.mounted_tape(drive)
    }

    pub fn drive_holding(&self, tape: TapeId) -> Option<DriveId> {
        self.library_for_tape(tape).ok()?.drive_holding(tape)
    }

    /// Volumes with at least `len` bytes free, globally emptiest-first
    /// across every library (ties break on tape id).
    pub fn tapes_with_space(&self, len: DataSize) -> Vec<TapeId> {
        let mut v: Vec<(u64, TapeId)> = self
            .libraries
            .iter()
            .flat_map(|l| l.tape_fill_levels(len))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, id)| id).collect()
    }

    /// Volumes with space inside library `lib` only — replica placement
    /// pins each copy to its own failure domain.
    pub fn tapes_with_space_in(&self, lib: LibraryId, len: DataSize) -> Vec<TapeId> {
        self.libraries
            .iter()
            .find(|l| l.lib_id() == lib)
            .map(|l| l.tapes_with_space(len))
            .unwrap_or_default()
    }

    pub fn mount(
        &self,
        drive: DriveId,
        tape: TapeId,
        ready: SimInstant,
    ) -> Result<SimInstant, TapeError> {
        self.library_for_drive(drive)?.mount(drive, tape, ready)
    }

    pub fn dismount(&self, drive: DriveId, ready: SimInstant) -> Result<SimInstant, TapeError> {
        self.library_for_drive(drive)?.dismount(drive, ready)
    }

    pub fn ensure_mounted(
        &self,
        tape: TapeId,
        ready: SimInstant,
    ) -> Result<(DriveId, SimInstant), TapeError> {
        self.library_for_tape(tape)?.ensure_mounted(tape, ready)
    }

    pub fn write_object(
        &self,
        drive: DriveId,
        agent: u32,
        objid: u64,
        content: Content,
        ready: SimInstant,
    ) -> Result<(TapeAddress, SimInstant), TapeError> {
        self.library_for_drive(drive)?
            .write_object(drive, agent, objid, content, ready)
    }

    /// [`TapeLibrary::read_object`] on the library that owns `drive`.
    pub fn read_object(
        &self,
        drive: DriveId,
        agent: u32,
        addr: TapeAddress,
        range: Option<(u64, u64)>,
        ready: SimInstant,
    ) -> Result<(Content, SimInstant), TapeError> {
        self.library_for_drive(drive)?
            .read_object(drive, agent, addr, range, ready)
    }

    pub fn delete_object(&self, addr: TapeAddress) -> Result<(), TapeError> {
        self.library_for_tape(addr.tape)?.delete_object(addr)
    }

    pub fn damage_record(&self, addr: TapeAddress) -> Result<(), TapeError> {
        self.library_for_tape(addr.tape)?.damage_record(addr)
    }

    pub fn reclaimable_volumes(&self, threshold: f64) -> Vec<TapeId> {
        self.libraries
            .iter()
            .flat_map(|l| l.reclaimable_volumes(threshold))
            .collect()
    }

    pub fn erase_volume(&self, tape: TapeId) -> Result<(), TapeError> {
        self.library_for_tape(tape)?.erase_volume(tape)
    }

    /// All live objects across every library, in (tape, seq) order.
    pub fn live_objects(&self) -> Vec<(TapeAddress, u64, u64)> {
        self.libraries
            .iter()
            .flat_map(|l| l.live_objects())
            .collect()
    }

    /// Cheapest-replica routing input: estimated time-to-first-byte for
    /// the record at `addr`, `None` when its library is offline or the
    /// record is gone.
    pub fn recall_cost_estimate(&self, addr: TapeAddress, now: SimInstant) -> Option<SimDuration> {
        self.library_for_tape(addr.tape)
            .ok()?
            .recall_cost_estimate(addr, now)
    }

    /// Fleet-wide mechanical statistics (per-drive in global id order).
    pub fn stats(&self) -> LibraryStats {
        let mut out = LibraryStats::default();
        for l in self.libraries.iter() {
            let s = l.stats();
            out.per_drive.extend(s.per_drive);
            out.totals.mounts += s.totals.mounts;
            out.totals.dismounts += s.totals.dismounts;
            out.totals.label_verifies += s.totals.label_verifies;
            out.totals.rewinds += s.totals.rewinds;
            out.totals.locates += s.totals.locates;
            out.totals.backhitches += s.totals.backhitches;
            out.totals.bytes_written += s.totals.bytes_written;
            out.totals.bytes_read += s.totals.bytes_read;
            out.totals.handoffs += s.totals.handoffs;
            out.drain = out.drain.max(s.drain);
            out.busy += s.busy;
        }
        out
    }

    /// Per-drive timeline statistics in global drive-id order.
    pub fn drive_timeline_stats(&self) -> Vec<TimelineStats> {
        self.libraries
            .iter()
            .flat_map(|l| l.drive_timeline_stats())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> TapeFleet {
        TapeFleet::new_uniform(n, 2, 4, TapeTiming::lto4(), Registry::new())
    }

    #[test]
    fn routing_by_global_ids_reaches_the_owning_library() {
        let f = fleet(3);
        assert_eq!(f.library_count(), 3);
        assert_eq!(f.drive_count(), 6);
        assert_eq!(f.tape_count(), 12);
        assert_eq!(f.library_of_tape(TapeId(0)), Some(LibraryId(0)));
        assert_eq!(f.library_of_tape(TapeId(5)), Some(LibraryId(1)));
        assert_eq!(f.library_of_tape(TapeId(11)), Some(LibraryId(2)));
        assert_eq!(f.library_of_tape(TapeId(12)), None);
        // Write in library 1, read back through routed ids only.
        let (d, t0) = f.ensure_mounted(TapeId(5), SimInstant::EPOCH).unwrap();
        assert!(f.library_for_drive(d).unwrap().lib_id() == LibraryId(1));
        let content = Content::synthetic(5, 2 << 20);
        let (addr, t1) = f.write_object(d, 1, 77, content.clone(), t0).unwrap();
        assert_eq!(addr.tape, TapeId(5));
        let (back, _) = f.read_object(d, 1, addr, None, t1).unwrap();
        assert!(back.eq_content(&content));
        assert_eq!(f.live_objects().len(), 1);
    }

    #[test]
    fn single_library_fleet_matches_bare_library_timings() {
        let bare = TapeLibrary::new(2, 4, TapeTiming::lto4());
        let f: TapeFleet = TapeLibrary::new(2, 4, TapeTiming::lto4()).into();
        let (db, tb) = bare.ensure_mounted(TapeId(0), SimInstant::EPOCH).unwrap();
        let (df, tf) = f.ensure_mounted(TapeId(0), SimInstant::EPOCH).unwrap();
        assert_eq!((db, tb), (df, tf));
        let c = Content::synthetic(1, 8 << 20);
        let (_, wb) = bare.write_object(db, 1, 1, c.clone(), tb).unwrap();
        let (_, wf) = f.write_object(df, 1, 1, c, tf).unwrap();
        assert_eq!(wb, wf, "fleet wrapper adds zero simulated cost");
    }

    #[test]
    fn allocation_order_is_globally_emptiest_first() {
        let f = fleet(2);
        let (d, t0) = f.ensure_mounted(TapeId(0), SimInstant::EPOCH).unwrap();
        f.write_object(d, 1, 1, Content::synthetic(1, 1 << 20), t0)
            .unwrap();
        let order = f.tapes_with_space(DataSize::mb(1));
        assert_eq!(order.len(), 8);
        // The written tape sorts last; empty tapes sort by id across
        // libraries.
        assert_eq!(order[0], TapeId(1));
        assert_eq!(*order.last().unwrap(), TapeId(0));
        assert!(order.contains(&TapeId(4)), "library 1 volumes included");
        // Per-library constrained allocation stays inside the domain.
        let in1 = f.tapes_with_space_in(LibraryId(1), DataSize::mb(1));
        assert_eq!(in1, vec![TapeId(4), TapeId(5), TapeId(6), TapeId(7)]);
    }

    #[test]
    fn offline_routing_flags_only_the_dead_library() {
        let f = fleet(2);
        let now = SimInstant::EPOCH;
        let (d, t0) = f.ensure_mounted(TapeId(0), now).unwrap();
        let (a0, t1) = f
            .write_object(d, 1, 1, Content::synthetic(1, 1 << 20), t0)
            .unwrap();
        let (d1, t2) = f.ensure_mounted(TapeId(4), t1).unwrap();
        let (a1, t3) = f
            .write_object(d1, 1, 2, Content::synthetic(2, 1 << 20), t2)
            .unwrap();
        f.libraries()[0].set_offline(true);
        assert!(f.tape_library_offline(TapeId(0), t3));
        assert!(!f.tape_library_offline(TapeId(4), t3));
        assert!(f.recall_cost_estimate(a0, t3).is_none());
        assert!(f.recall_cost_estimate(a1, t3).is_some());
        assert!(matches!(
            f.ensure_mounted(TapeId(0), t3),
            Err(TapeError::LibraryOffline { .. })
        ));
        let (back, _) = f.read_object(d1, 1, a1, None, t3).unwrap();
        assert!(back.eq_content(&Content::synthetic(2, 1 << 20)));
    }
}
