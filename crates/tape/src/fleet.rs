//! The tape fleet: drives, cartridges, robots, and the operations HSM
//! movers issue.
//!
//! The paper's site has a single library; replication (TALICS³-style)
//! needs several, each a failure domain with its own robot, drives and
//! media, so a whole-library outage fences one domain without touching the
//! others. [`TapeFleet`] owns every drive and cartridge under one global id
//! namespace: with `D` drives and `T` tapes per library, library `l` owns
//! drives `l·D..(l+1)·D` and tapes `l·T..(l+1)·T`, so the owner of any id
//! is arithmetic. Callers pass plain [`DriveId`]/[`TapeId`]/[`TapeAddress`]
//! values and name a [`LibraryId`] only to place a replica or to take a
//! library offline.
//!
//! Every operation returns the simulated instant at which it completes;
//! durations are computed from drive mechanics (mount, locate, backhitch,
//! hand-off rewinds) and reserved FIFO on the owning drive's timeline, so
//! concurrent movers queue realistically.

use crate::cartridge::{Cartridge, TapeAddress, TapeId};
use crate::timing::TapeTiming;
use copra_faults::FaultPlane;
use copra_obs::{Counter, EventKind, Registry};
use copra_simtime::{DataSize, SimDuration, SimInstant, Timeline, TimelineStats};
use copra_vfs::Content;
use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Drive identifier, global across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DriveId(pub u32);

impl fmt::Display for DriveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "drive{}", self.0)
    }
}

/// Tape library identifier (site / robot complex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LibraryId(pub u32);

impl fmt::Display for LibraryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lib{}", self.0)
    }
}

/// Why a tape operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeError {
    NoSuchDrive(DriveId),
    /// The tape does not exist, or belongs to another library than the
    /// drive asked to mount it.
    NoSuchTape(TapeId),
    NotMounted(DriveId),
    WrongTape {
        drive: DriveId,
        mounted: Option<TapeId>,
        wanted: TapeId,
    },
    TapeInUse {
        tape: TapeId,
        drive: DriveId,
    },
    TapeFull(TapeId),
    NoSuchRecord(TapeAddress),
    ObjectDeleted(TapeAddress),
    /// The record's media span is unreadable.
    MediaError(TapeAddress),
    /// Volume still holds live objects; reclamation must move them first.
    VolumeNotEmpty(TapeId),
    /// The drive hard-failed and is fenced; pick another drive.
    DriveFailed(DriveId),
    /// A transient I/O error (recoverable with a retry) after a latency
    /// spike on the drive.
    TransientIo(DriveId),
    /// Every drive in the tape's library is fenced.
    NoHealthyDrive,
    /// The whole library (all drives + robot) is offline; recalls must
    /// fail over to a replica in another library until it returns.
    LibraryOffline {
        library: LibraryId,
    },
}

impl fmt::Display for TapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeError::NoSuchDrive(d) => write!(f, "no such drive: {d}"),
            TapeError::NoSuchTape(t) => write!(f, "no such tape: {t}"),
            TapeError::NotMounted(d) => write!(f, "no tape mounted in {d}"),
            TapeError::WrongTape {
                drive,
                mounted,
                wanted,
            } => write!(f, "{drive} has {mounted:?} mounted, wanted {wanted}"),
            TapeError::TapeInUse { tape, drive } => {
                write!(f, "{tape} is mounted in {drive}")
            }
            TapeError::TapeFull(t) => write!(f, "tape full: {t}"),
            TapeError::NoSuchRecord(a) => write!(f, "no record {} on {}", a.seq, a.tape),
            TapeError::ObjectDeleted(a) => {
                write!(f, "record {} on {} was deleted", a.seq, a.tape)
            }
            TapeError::MediaError(a) => {
                write!(f, "media error reading record {} on {}", a.seq, a.tape)
            }
            TapeError::VolumeNotEmpty(t) => {
                write!(f, "volume {t} still holds live objects")
            }
            TapeError::DriveFailed(d) => write!(f, "{d} hard-failed and is fenced"),
            TapeError::TransientIo(d) => write!(f, "transient I/O error on {d}"),
            TapeError::NoHealthyDrive => write!(f, "no healthy drive in the library"),
            TapeError::LibraryOffline { library } => {
                write!(
                    f,
                    "library {library} is offline (all drives and robot fenced)"
                )
            }
        }
    }
}

impl std::error::Error for TapeError {}

/// Per-drive mechanical counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriveStats {
    pub mounts: u64,
    pub dismounts: u64,
    pub label_verifies: u64,
    pub rewinds: u64,
    pub locates: u64,
    pub backhitches: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub handoffs: u64,
}

/// Aggregate fleet counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FleetStats {
    /// Per-drive counters in global drive-id order.
    pub per_drive: Vec<DriveStats>,
    pub totals: DriveStats,
    /// Latest completion instant across all drives.
    pub drain: SimInstant,
    /// Total busy time across all drives.
    pub busy: SimDuration,
}

struct DriveState {
    mounted: Option<TapeId>,
    /// Byte position of the head on the mounted tape.
    head_bytes: u64,
    /// Storage agent (node) that last touched this drive's tape. A change
    /// of agent forces rewind + label verification (§6.2).
    last_agent: Option<u32>,
    /// Hard-failed: the drive rejects all work and is skipped by
    /// [`TapeFleet::ensure_mounted`]. Its volume was freed at fence time
    /// so recovery can remount it on a healthy drive.
    fenced: bool,
    timeline: Timeline,
    stats: DriveStats,
}

/// Cached registry handles: looked up once at construction so the
/// per-operation cost is a relaxed atomic add, not a map lookup.
struct TapeMetrics {
    mounts: Arc<Counter>,
    dismounts: Arc<Counter>,
    rewinds: Arc<Counter>,
    locates: Arc<Counter>,
    label_verifies: Arc<Counter>,
    backhitches: Arc<Counter>,
    handoffs: Arc<Counter>,
    bytes_written: Arc<Counter>,
    bytes_read: Arc<Counter>,
    backhitch_penalty_ns: Arc<copra_obs::Histogram>,
    handoff_penalty_ns: Arc<copra_obs::Histogram>,
    /// Per-drive (backhitch count, accumulated backhitch penalty ns),
    /// indexed by global drive id.
    per_drive: Vec<(Arc<Counter>, Arc<Counter>)>,
}

impl TapeMetrics {
    fn new(obs: &Registry, drives: usize) -> Self {
        TapeMetrics {
            mounts: obs.counter("tape.mounts"),
            dismounts: obs.counter("tape.dismounts"),
            rewinds: obs.counter("tape.rewinds"),
            locates: obs.counter("tape.locates"),
            label_verifies: obs.counter("tape.label_verifies"),
            backhitches: obs.counter("tape.backhitches"),
            handoffs: obs.counter("tape.handoffs"),
            bytes_written: obs.counter("tape.bytes_written"),
            bytes_read: obs.counter("tape.bytes_read"),
            backhitch_penalty_ns: obs.histogram("tape.backhitch_penalty_ns"),
            handoff_penalty_ns: obs.histogram("tape.handoff_penalty_ns"),
            per_drive: (0..drives)
                .map(|g| {
                    (
                        obs.counter(&format!("tape.drive{g}.backhitches")),
                        obs.counter(&format!("tape.drive{g}.backhitch_penalty_ns")),
                    )
                })
                .collect(),
        }
    }
}

/// One library as a failure domain: its robot, its outage state and the
/// global id ranges of its drives and tapes.
struct Library {
    id: LibraryId,
    robot: Timeline,
    /// Manual whole-library outage toggle (tests / operator action); the
    /// fault plane's scheduled windows OR with this.
    forced_offline: AtomicBool,
    /// Whether the current outage has been counted (one injection per
    /// outage, not per rejected operation).
    outage_noted: AtomicBool,
    /// Drives of this library fenced so far (a fence is permanent).
    fenced: AtomicUsize,
    drives: Range<u32>,
    tapes: Range<u32>,
}

struct Shared {
    timing: TapeTiming,
    libraries: Vec<Library>,
    /// Every drive, indexed by global drive id.
    drives: Vec<Mutex<DriveState>>,
    /// Every cartridge, indexed by global tape id.
    cartridges: Vec<Mutex<Cartridge>>,
    /// tape -> drive currently holding it
    mounted_in: Mutex<FxHashMap<u32, DriveId>>,
    /// Armed fault plane; `None` keeps every operation on the zero-cost
    /// fault-free path.
    faults: RwLock<Option<Arc<FaultPlane>>>,
    obs: Arc<Registry>,
    metrics: TapeMetrics,
}

/// Every library, drive and cartridge of the site behind one API (cheap
/// to clone).
#[derive(Clone)]
pub struct TapeFleet {
    shared: Arc<Shared>,
}

impl TapeFleet {
    /// `libraries` identical libraries of `drives` drives and `tapes`
    /// volumes each, with disjoint global id ranges, all reporting into
    /// `obs`.
    pub fn new(
        libraries: usize,
        drives: usize,
        tapes: usize,
        timing: TapeTiming,
        obs: Arc<Registry>,
    ) -> Self {
        assert!(libraries > 0, "fleet needs at least one library");
        assert!(drives > 0 && tapes > 0, "library needs drives and tapes");
        let (d, t) = (drives as u32, tapes as u32);
        let drive_states = (0..libraries * drives)
            .map(|g| {
                Mutex::new(DriveState {
                    mounted: None,
                    head_bytes: 0,
                    last_agent: None,
                    fenced: false,
                    timeline: Timeline::new(
                        format!("tape-drive-{g}"),
                        timing.stream,
                        SimDuration::ZERO,
                    ),
                    stats: DriveStats::default(),
                })
            })
            .collect();
        let cartridges = (0..libraries * tapes)
            .map(|g| Mutex::new(Cartridge::new(TapeId(g as u32), timing.capacity)))
            .collect();
        let libraries = (0..libraries as u32)
            .map(|l| Library {
                id: LibraryId(l),
                robot: Timeline::latency_only(format!("robot-{l}"), SimDuration::ZERO),
                forced_offline: AtomicBool::new(false),
                outage_noted: AtomicBool::new(false),
                fenced: AtomicUsize::new(0),
                drives: l * d..(l + 1) * d,
                tapes: l * t..(l + 1) * t,
            })
            .collect::<Vec<_>>();
        let metrics = TapeMetrics::new(&obs, libraries.len() * drives);
        TapeFleet {
            shared: Arc::new(Shared {
                timing,
                libraries,
                drives: drive_states,
                cartridges,
                mounted_in: Mutex::new(FxHashMap::default()),
                faults: RwLock::new(None),
                obs,
                metrics,
            }),
        }
    }

    /// The registry every library reports into.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.shared.obs
    }

    /// Arm a fault plane: from now on every operation boundary consults
    /// it for scheduled drive failures, media errors, robot jams,
    /// transient I/O and library outages.
    pub fn arm_faults(&self, plane: Arc<FaultPlane>) {
        *self.shared.faults.write() = Some(plane);
    }

    /// The armed fault plane, if any — HSM agents read it to pick their
    /// retry policy.
    pub fn armed_faults(&self) -> Option<Arc<FaultPlane>> {
        self.shared.faults.read().clone()
    }

    pub fn library_count(&self) -> usize {
        self.shared.libraries.len()
    }

    /// Total drives across the fleet.
    pub fn drive_count(&self) -> usize {
        self.shared.drives.len()
    }

    /// Every drive id in the fleet, in id (and so library) order.
    pub fn drives(&self) -> impl Iterator<Item = DriveId> {
        (0..self.shared.drives.len() as u32).map(DriveId)
    }

    /// The library owning `drive` (uniform construction makes it a
    /// division).
    fn drive_owner(&self, drive: DriveId) -> Result<&Library, TapeError> {
        let s = &self.shared;
        s.libraries
            .get(drive.0 as usize / (s.drives.len() / s.libraries.len()))
            .ok_or(TapeError::NoSuchDrive(drive))
    }

    /// The library owning `tape`.
    fn tape_owner(&self, tape: TapeId) -> Result<&Library, TapeError> {
        let s = &self.shared;
        s.libraries
            .get(tape.0 as usize / (s.cartridges.len() / s.libraries.len()))
            .ok_or(TapeError::NoSuchTape(tape))
    }

    /// Which library owns `tape`, if any.
    pub fn library_of_tape(&self, tape: TapeId) -> Option<LibraryId> {
        self.tape_owner(tape).ok().map(|l| l.id)
    }

    /// Force library `lib` offline (or back online) — the manual
    /// counterpart of a scheduled [`copra_faults::ScheduledFault::LibraryOffline`]
    /// window. Panics if the fleet has no library `lib`.
    pub fn set_library_offline(&self, lib: LibraryId, offline: bool) {
        let l = &self.shared.libraries[lib.0 as usize];
        l.forced_offline.store(offline, Ordering::Relaxed);
        if !offline {
            l.outage_noted.store(false, Ordering::Relaxed);
        }
    }

    /// Is library `lib` offline at `now` (manual toggle or a scheduled
    /// outage window)? Pure query — does not count the injection. An
    /// unknown library is never offline.
    pub fn library_offline(&self, lib: LibraryId, now: SimInstant) -> bool {
        self.shared
            .libraries
            .get(lib.0 as usize)
            .is_some_and(|l| self.is_offline(l, now))
    }

    /// Drives neither fenced nor in a library offline at `now`, from
    /// each library's fence count (no drive lock).
    pub fn healthy_drives(&self, now: SimInstant) -> usize {
        self.shared
            .libraries
            .iter()
            .filter(|l| !self.is_offline(l, now))
            .map(|l| l.drives.len() - l.fenced.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether library `lib` is offline at `now`, counting the outage if
    /// it has not been noted yet. Callers that *route around* a dead
    /// library (replica placement) observe the outage without ever issuing
    /// a rejected operation — this keeps `faults.library_outages` honest
    /// for them.
    pub fn note_outage(&self, lib: LibraryId, now: SimInstant) -> bool {
        self.shared
            .libraries
            .get(lib.0 as usize)
            .is_some_and(|l| self.observe_outage(l, now))
    }

    fn is_offline(&self, lib: &Library, now: SimInstant) -> bool {
        lib.forced_offline.load(Ordering::Relaxed)
            || self
                .armed_faults()
                .is_some_and(|p| p.library_offline_at(lib.id.0, now))
    }

    /// Whether `lib` is offline at `now`; the first observation of an
    /// outage counts the injection once.
    fn observe_outage(&self, lib: &Library, now: SimInstant) -> bool {
        let offline = self.is_offline(lib, now);
        if offline && !lib.outage_noted.swap(true, Ordering::Relaxed) {
            if let Some(p) = self.armed_faults() {
                p.note_library_outage(lib.id.0, now);
            }
        }
        offline
    }

    /// Gate a drive/robot operation on its library being online. When the
    /// outage window closes the note re-arms for the next outage.
    fn check_online(&self, lib: &Library, now: SimInstant) -> Result<(), TapeError> {
        if self.observe_outage(lib, now) {
            return Err(TapeError::LibraryOffline { library: lib.id });
        }
        lib.outage_noted.store(false, Ordering::Relaxed);
        Ok(())
    }

    /// Gate an operation on drive health: an already-fenced drive rejects
    /// it, and a drive whose scheduled hard-failure instant has passed is
    /// fenced here — volume freed so recovery can remount it elsewhere.
    fn check_drive_health(
        &self,
        st: &mut DriveState,
        drive: DriveId,
        now: SimInstant,
    ) -> Result<(), TapeError> {
        if st.fenced {
            return Err(TapeError::DriveFailed(drive));
        }
        let plane = self.armed_faults();
        if let Some(p) = plane {
            if p.drive_fails_by(drive.0, now) {
                st.fenced = true;
                self.drive_owner(drive)?
                    .fenced
                    .fetch_add(1, Ordering::Relaxed);
                st.head_bytes = 0;
                st.last_agent = None;
                if let Some(tape) = st.mounted.take() {
                    self.shared.mounted_in.lock().remove(&tape.0);
                }
                p.note_fence(drive.0, now);
                return Err(TapeError::DriveFailed(drive));
            }
        }
        Ok(())
    }

    /// Consult the plane for a transient I/O fault on `drive`; on a hit
    /// the latency spike is charged to the drive before the error returns.
    fn check_transient_io(
        &self,
        st: &mut DriveState,
        drive: DriveId,
        now: SimInstant,
    ) -> Result<(), TapeError> {
        let plane = self.armed_faults();
        if let Some(p) = plane {
            if let Some(spike) = p.take_transient_io(drive.0, now) {
                st.timeline.reserve(now, spike);
                return Err(TapeError::TransientIo(drive));
            }
        }
        Ok(())
    }

    fn drive(&self, id: DriveId) -> Result<&Mutex<DriveState>, TapeError> {
        self.shared
            .drives
            .get(id.0 as usize)
            .ok_or(TapeError::NoSuchDrive(id))
    }

    fn cartridge(&self, id: TapeId) -> Result<&Mutex<Cartridge>, TapeError> {
        self.shared
            .cartridges
            .get(id.0 as usize)
            .ok_or(TapeError::NoSuchTape(id))
    }

    /// Inspect a cartridge (reconcile walks records this way).
    pub fn with_cartridge<R>(
        &self,
        id: TapeId,
        f: impl FnOnce(&Cartridge) -> R,
    ) -> Result<R, TapeError> {
        Ok(f(&self.cartridge(id)?.lock()))
    }

    /// Which tape a drive holds.
    pub fn mounted_tape(&self, drive: DriveId) -> Result<Option<TapeId>, TapeError> {
        Ok(self.drive(drive)?.lock().mounted)
    }

    /// Which drive holds a tape, if any.
    pub fn drive_holding(&self, tape: TapeId) -> Option<DriveId> {
        self.shared.mounted_in.lock().get(&tape.0).copied()
    }

    /// Volumes with at least `len` bytes free, emptiest-first (ties break
    /// on tape id) — the scratch-pool allocator the HSM server uses.
    pub fn tapes_with_space(&self, len: DataSize) -> Vec<TapeId> {
        self.emptiest_first(&self.shared.cartridges, len)
    }

    /// Volumes with space inside library `lib` only — replica placement
    /// pins each copy to its own failure domain.
    pub fn tapes_with_space_in(&self, lib: LibraryId, len: DataSize) -> Vec<TapeId> {
        self.shared
            .libraries
            .get(lib.0 as usize)
            .map(|l| {
                let r = l.tapes.start as usize..l.tapes.end as usize;
                self.emptiest_first(&self.shared.cartridges[r], len)
            })
            .unwrap_or_default()
    }

    fn emptiest_first(&self, cartridges: &[Mutex<Cartridge>], len: DataSize) -> Vec<TapeId> {
        let cap = self.shared.timing.capacity.as_bytes();
        let mut v: Vec<(u64, TapeId)> = cartridges
            .iter()
            .map(|c| {
                let c = c.lock();
                (c.bytes_written(), c.id())
            })
            .filter(|(written, _)| written + len.as_bytes() <= cap)
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, id)| id).collect()
    }

    /// Mount `tape` in `drive` (dismounting whatever is there). No-op if
    /// already mounted in that drive. Returns the completion instant. A
    /// drive mounts only its own library's tapes.
    pub fn mount(
        &self,
        drive: DriveId,
        tape: TapeId,
        ready: SimInstant,
    ) -> Result<SimInstant, TapeError> {
        let lib = self.drive_owner(drive)?;
        if !lib.tapes.contains(&tape.0) {
            return Err(TapeError::NoSuchTape(tape));
        }
        self.check_online(lib, ready)?;
        let mut st = self.shared.drives[drive.0 as usize].lock();
        self.check_drive_health(&mut st, drive, ready)?;
        if st.mounted == Some(tape) {
            return Ok(ready);
        }
        {
            let mounted_in = self.shared.mounted_in.lock();
            if let Some(holder) = mounted_in.get(&tape.0) {
                return Err(TapeError::TapeInUse {
                    tape,
                    drive: *holder,
                });
            }
        }
        let t = &self.shared.timing;
        let m = &self.shared.metrics;
        let mut cursor = ready;
        // Dismount current volume: rewind + unload on the drive, robot put-away.
        if let Some(old) = st.mounted {
            let rewind = t.rewind_time(DataSize::from_bytes(st.head_bytes));
            let r = st.timeline.reserve(cursor, rewind + t.unload);
            cursor = r.end;
            st.stats.rewinds += u64::from(!rewind.is_zero());
            st.stats.dismounts += 1;
            m.rewinds.add(u64::from(!rewind.is_zero()));
            m.dismounts.inc();
            let r = lib.robot.reserve(cursor, t.robot_move);
            cursor = r.end;
            self.shared.mounted_in.lock().remove(&old.0);
            self.shared.obs.event(
                cursor,
                EventKind::TapeDismount {
                    drive: drive.0,
                    tape: old.to_string(),
                },
            );
        }
        // Robot fetches the new volume (a scripted jam stalls the fetch).
        let jam = self
            .armed_faults()
            .and_then(|p| p.take_robot_jam(cursor))
            .unwrap_or(SimDuration::ZERO);
        let r = lib.robot.reserve(cursor, t.robot_move + jam);
        cursor = r.end;
        // Drive loads, threads and verifies the label.
        let r = st.timeline.reserve(cursor, t.mount + t.label_verify);
        cursor = r.end;
        st.mounted = Some(tape);
        st.head_bytes = 0;
        st.last_agent = None;
        st.stats.mounts += 1;
        st.stats.label_verifies += 1;
        m.mounts.inc();
        m.label_verifies.inc();
        self.shared.mounted_in.lock().insert(tape.0, drive);
        self.shared.obs.event(
            cursor,
            EventKind::TapeMount {
                drive: drive.0,
                tape: tape.to_string(),
            },
        );
        Ok(cursor)
    }

    /// Dismount whatever the drive holds (rewind + unload + robot).
    pub fn dismount(&self, drive: DriveId, ready: SimInstant) -> Result<SimInstant, TapeError> {
        let lib = self.drive_owner(drive)?;
        self.check_online(lib, ready)?;
        let mut st = self.shared.drives[drive.0 as usize].lock();
        self.check_drive_health(&mut st, drive, ready)?;
        let Some(old) = st.mounted else {
            return Ok(ready);
        };
        let t = &self.shared.timing;
        let m = &self.shared.metrics;
        let rewind = t.rewind_time(DataSize::from_bytes(st.head_bytes));
        let r = st.timeline.reserve(ready, rewind + t.unload);
        st.stats.rewinds += u64::from(!rewind.is_zero());
        st.stats.dismounts += 1;
        m.rewinds.add(u64::from(!rewind.is_zero()));
        m.dismounts.inc();
        let r2 = lib.robot.reserve(r.end, t.robot_move);
        st.mounted = None;
        st.head_bytes = 0;
        st.last_agent = None;
        self.shared.mounted_in.lock().remove(&old.0);
        self.shared.obs.event(
            r2.end,
            EventKind::TapeDismount {
                drive: drive.0,
                tape: old.to_string(),
            },
        );
        Ok(r2.end)
    }

    /// Mount `tape` somewhere convenient in its own library: the drive
    /// already holding it, an idle empty drive, else the drive that frees
    /// up soonest. Returns (drive, mount completion).
    pub fn ensure_mounted(
        &self,
        tape: TapeId,
        ready: SimInstant,
    ) -> Result<(DriveId, SimInstant), TapeError> {
        let lib = self.tape_owner(tape)?;
        self.check_online(lib, ready)?;
        if let Some(d) = self.drive_holding(tape) {
            // The holder may carry a hard-failure scheduled before `ready`;
            // fence it here instead of bouncing every caller off a dead
            // mount, and fall through to pick a healthy drive.
            let mut st = self.shared.drives[d.0 as usize].lock();
            if self.check_drive_health(&mut st, d, ready).is_ok() {
                return Ok((d, ready));
            }
        }
        // Prefer an empty drive; otherwise evict from the one free soonest.
        // Fenced drives (and drives due to fail by `ready`) are skipped.
        let mut candidates: Vec<(bool, SimInstant, u32)> = Vec::new();
        for g in lib.drives.clone() {
            let mut st = self.shared.drives[g as usize].lock();
            if self.check_drive_health(&mut st, DriveId(g), ready).is_err() {
                continue;
            }
            candidates.push((st.mounted.is_some(), st.timeline.next_free(), g));
        }
        candidates.sort_unstable(); // occupied=false first, then earliest free, then id
        let Some(&(_, _, first)) = candidates.first() else {
            return Err(TapeError::NoHealthyDrive);
        };
        let drive = DriveId(first);
        let end = self.mount(drive, tape, ready)?;
        Ok((drive, end))
    }

    /// Charge the §6.2 hand-off penalty if `agent` differs from the last
    /// agent that used this drive's tape: the tape rewinds and the label is
    /// re-verified even though it never physically dismounts.
    fn agent_handoff(
        &self,
        st: &mut DriveState,
        drive: DriveId,
        agent: u32,
        ready: SimInstant,
    ) -> SimInstant {
        let timing = &self.shared.timing;
        match st.last_agent {
            Some(a) if a == agent => ready,
            None => {
                st.last_agent = Some(agent);
                ready
            }
            Some(_) => {
                let rewind = timing.rewind_time(DataSize::from_bytes(st.head_bytes));
                let r = st.timeline.reserve(ready, rewind + timing.label_verify);
                st.head_bytes = 0;
                st.last_agent = Some(agent);
                st.stats.handoffs += 1;
                st.stats.rewinds += u64::from(!rewind.is_zero());
                st.stats.label_verifies += 1;
                let m = &self.shared.metrics;
                m.handoffs.inc();
                m.rewinds.add(u64::from(!rewind.is_zero()));
                m.label_verifies.inc();
                m.handoff_penalty_ns
                    .record(r.end.saturating_since(ready).as_nanos());
                if let Some(tape) = st.mounted {
                    self.shared.obs.event(
                        r.end,
                        EventKind::AgentHandoff {
                            drive: drive.0,
                            tape: tape.to_string(),
                        },
                    );
                }
                r.end
            }
        }
    }

    /// Write an object at end-of-data of the tape in `drive`, as storage
    /// agent `agent`. One object = one transaction (backhitch charged).
    pub fn write_object(
        &self,
        drive: DriveId,
        agent: u32,
        objid: u64,
        content: Content,
        ready: SimInstant,
    ) -> Result<(TapeAddress, SimInstant), TapeError> {
        let len = content.len();
        self.check_online(self.drive_owner(drive)?, ready)?;
        let mut st = self.shared.drives[drive.0 as usize].lock();
        self.check_drive_health(&mut st, drive, ready)?;
        let tape = st.mounted.ok_or(TapeError::NotMounted(drive))?;
        self.check_transient_io(&mut st, drive, ready)?;
        let t = &self.shared.timing;
        let cursor = self.agent_handoff(&mut st, drive, agent, ready);

        let mut cart = self.cartridge(tape)?.lock();
        let eod = cart.bytes_written();
        let seq = cart
            .append(objid, content)
            .ok_or(TapeError::TapeFull(tape))?;
        // Position to EOD if not already there, then backhitch + stream.
        let dist = eod.abs_diff(st.head_bytes);
        let locate = t.locate_time(DataSize::from_bytes(dist));
        let r = st.timeline.transfer_with_overhead(
            cursor,
            DataSize::from_bytes(len),
            locate + t.backhitch,
        );
        st.head_bytes = eod + len;
        st.stats.locates += u64::from(dist > 0);
        st.stats.backhitches += 1;
        st.stats.bytes_written += len;
        let m = &self.shared.metrics;
        m.locates.add(u64::from(dist > 0));
        m.backhitches.inc();
        m.bytes_written.add(len);
        m.backhitch_penalty_ns.record(t.backhitch.as_nanos());
        let (count, penalty) = &m.per_drive[drive.0 as usize];
        count.inc();
        penalty.add(t.backhitch.as_nanos());
        Ok((TapeAddress { tape, seq }, r.end))
    }

    /// Read the record at `addr` through `drive` as storage agent `agent`:
    /// all of it, or with `range = Some((offset, len))` only those bytes
    /// (a member of an aggregated container, §6.1), for which the drive
    /// locates to the member's position inside the record and streams
    /// only the member. A whole-record read returns the record's content
    /// as written.
    pub fn read_object(
        &self,
        drive: DriveId,
        agent: u32,
        addr: TapeAddress,
        range: Option<(u64, u64)>,
        ready: SimInstant,
    ) -> Result<(Content, SimInstant), TapeError> {
        self.check_online(self.drive_owner(drive)?, ready)?;
        let mut st = self.shared.drives[drive.0 as usize].lock();
        self.check_drive_health(&mut st, drive, ready)?;
        let mounted = st.mounted;
        if mounted != Some(addr.tape) {
            return Err(TapeError::WrongTape {
                drive,
                mounted,
                wanted: addr.tape,
            });
        }
        self.check_transient_io(&mut st, drive, ready)?;
        let t = &self.shared.timing;
        let cursor = self.agent_handoff(&mut st, drive, agent, ready);

        let cart = self.cartridge(addr.tape)?.lock();
        let rec = cart.record(addr.seq).ok_or(TapeError::NoSuchRecord(addr))?;
        let injected = self
            .armed_faults()
            .is_some_and(|p| p.take_media_error(addr.tape.0, addr.seq, cursor));
        if rec.damaged || injected {
            return Err(TapeError::MediaError(addr));
        }
        let content = rec.content.as_ref().ok_or(TapeError::ObjectDeleted(addr))?;
        let (offset, len) = range.unwrap_or((0, rec.len));
        if offset + len > rec.len {
            return Err(TapeError::NoSuchRecord(addr));
        }
        let data = match range {
            Some(_) => content.slice(offset, len),
            None => content.clone(),
        };
        let target = rec.start + offset;
        let dist = target.abs_diff(st.head_bytes);
        let locate = t.locate_time(DataSize::from_bytes(dist));
        let r = st
            .timeline
            .transfer_with_overhead(cursor, DataSize::from_bytes(len), locate);
        st.head_bytes = target + len;
        st.stats.locates += u64::from(dist > 0);
        st.stats.bytes_read += len;
        let m = &self.shared.metrics;
        m.locates.add(u64::from(dist > 0));
        m.bytes_read.add(len);
        Ok((data, r.end))
    }

    /// Delete an object's record (a TSM database operation — no drive time;
    /// the span stays occupied until volume reclamation).
    pub fn delete_object(&self, addr: TapeAddress) -> Result<(), TapeError> {
        let mut cart = self.cartridge(addr.tape)?.lock();
        match cart.record(addr.seq) {
            None => Err(TapeError::NoSuchRecord(addr)),
            Some(r) if r.is_deleted() => Err(TapeError::ObjectDeleted(addr)),
            Some(_) => {
                cart.delete(addr.seq);
                Ok(())
            }
        }
    }

    /// Failure injection / media aging: mark a record's span unreadable.
    pub fn damage_record(&self, addr: TapeAddress) -> Result<(), TapeError> {
        let mut cart = self.cartridge(addr.tape)?.lock();
        if cart.damage(addr.seq) {
            Ok(())
        } else {
            Err(TapeError::NoSuchRecord(addr))
        }
    }

    /// Volumes whose dead-space fraction is at least `threshold` —
    /// reclamation candidates, in tape-id order.
    pub fn reclaimable_volumes(&self, threshold: f64) -> Vec<TapeId> {
        self.shared
            .cartridges
            .iter()
            .filter_map(|c| {
                let c = c.lock();
                (c.bytes_written() > 0 && c.reclaimable_fraction() >= threshold).then(|| c.id())
            })
            .collect()
    }

    /// Wipe a fully-dead volume back to scratch (must not be mounted and
    /// must hold no live objects).
    pub fn erase_volume(&self, tape: TapeId) -> Result<(), TapeError> {
        let cart = self.cartridge(tape)?;
        if let Some(drive) = self.drive_holding(tape) {
            return Err(TapeError::TapeInUse { tape, drive });
        }
        if cart.lock().erase() {
            Ok(())
        } else {
            Err(TapeError::VolumeNotEmpty(tape))
        }
    }

    /// All live objects across the fleet: (address, objid, len), in
    /// (tape, seq) order — the reconcile agent's view of tape truth.
    pub fn live_objects(&self) -> Vec<(TapeAddress, u64, u64)> {
        let mut out = Vec::new();
        for c in &self.shared.cartridges {
            let c = c.lock();
            for r in c.records() {
                if !r.is_deleted() {
                    out.push((
                        TapeAddress {
                            tape: c.id(),
                            seq: r.seq,
                        },
                        r.objid,
                        r.len,
                    ));
                }
            }
        }
        out
    }

    /// Estimated time until the record at `addr` could start streaming —
    /// the cheapest-replica routing input. Already-mounted volumes cost
    /// queue wait + locate distance, unmounted ones a full robot fetch +
    /// mount + label verify + locate from BOT. `None` when the record's
    /// library is offline or the record does not exist — recall routing
    /// treats that replica as unavailable.
    pub fn recall_cost_estimate(&self, addr: TapeAddress, now: SimInstant) -> Option<SimDuration> {
        if self.is_offline(self.tape_owner(addr.tape).ok()?, now) {
            return None;
        }
        let start = {
            let cart = self.cartridge(addr.tape).ok()?.lock();
            let rec = cart.record(addr.seq)?;
            if rec.is_deleted() || rec.damaged {
                return None;
            }
            rec.start
        };
        let t = &self.shared.timing;
        // A fenced drive never holds a volume: fencing frees it.
        Some(match self.drive_holding(addr.tape) {
            Some(d) => {
                let st = self.shared.drives[d.0 as usize].lock();
                let wait = st.timeline.next_free().saturating_since(now);
                wait + t.locate_time(DataSize::from_bytes(start.abs_diff(st.head_bytes)))
            }
            None => {
                t.robot_move + t.mount + t.label_verify + t.locate_time(DataSize::from_bytes(start))
            }
        })
    }

    /// Mechanical + time statistics.
    pub fn stats(&self) -> FleetStats {
        let mut per_drive = Vec::with_capacity(self.shared.drives.len());
        let mut totals = DriveStats::default();
        let mut drain = SimInstant::EPOCH;
        let mut busy = SimDuration::ZERO;
        for d in &self.shared.drives {
            let st = d.lock();
            per_drive.push(st.stats);
            totals.mounts += st.stats.mounts;
            totals.dismounts += st.stats.dismounts;
            totals.label_verifies += st.stats.label_verifies;
            totals.rewinds += st.stats.rewinds;
            totals.locates += st.stats.locates;
            totals.backhitches += st.stats.backhitches;
            totals.bytes_written += st.stats.bytes_written;
            totals.bytes_read += st.stats.bytes_read;
            totals.handoffs += st.stats.handoffs;
            let tl = st.timeline.stats();
            drain = drain.max(tl.next_free);
            busy += tl.busy;
        }
        FleetStats {
            per_drive,
            totals,
            drain,
            busy,
        }
    }

    /// Per-drive timeline statistics (busy time, ops, bytes, next free),
    /// indexed by global drive id — the substrate for utilization
    /// reporting.
    pub fn drive_timeline_stats(&self) -> Vec<TimelineStats> {
        self.shared
            .drives
            .iter()
            .map(|d| d.lock().timeline.stats())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_simtime::Bandwidth;

    fn fleet(libraries: usize, drives: usize, tapes: usize) -> TapeFleet {
        TapeFleet::new(
            libraries,
            drives,
            tapes,
            TapeTiming::lto4(),
            Registry::new(),
        )
    }

    /// The one-library fleet most tests drive: two drives, four tapes.
    fn lib() -> TapeFleet {
        fleet(1, 2, 4)
    }

    #[test]
    fn mount_charges_robot_and_drive() {
        let l = lib();
        let end = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        // robot 8 + mount 15 + verify 3 = 26 s
        assert_eq!(end, SimInstant::from_secs(26));
        assert_eq!(l.mounted_tape(DriveId(0)).unwrap(), Some(TapeId(0)));
        assert_eq!(l.drive_holding(TapeId(0)), Some(DriveId(0)));
        // remount of same tape is free
        assert_eq!(l.mount(DriveId(0), TapeId(0), end).unwrap(), end);
    }

    #[test]
    fn tape_cannot_be_in_two_drives() {
        let l = lib();
        l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        assert_eq!(
            l.mount(DriveId(1), TapeId(0), SimInstant::EPOCH),
            Err(TapeError::TapeInUse {
                tape: TapeId(0),
                drive: DriveId(0)
            })
        );
    }

    #[test]
    fn write_then_read_roundtrip() {
        let l = lib();
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let content = Content::synthetic(7, 10 << 20);
        let (addr, t1) = l
            .write_object(DriveId(0), 1, 42, content.clone(), t0)
            .unwrap();
        assert_eq!(
            addr,
            TapeAddress {
                tape: TapeId(0),
                seq: 0
            }
        );
        assert!(t1 > t0);
        let (back, t2) = l.read_object(DriveId(0), 1, addr, None, t1).unwrap();
        assert!(back.eq_content(&content));
        assert!(t2 > t1);
    }

    #[test]
    fn sequential_read_avoids_locates_but_backward_seeks() {
        let l = fleet(1, 1, 1);
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let mut cursor = t0;
        let mut addrs = Vec::new();
        for i in 0..4u64 {
            let (a, end) = l
                .write_object(DriveId(0), 1, i, Content::synthetic(i, 50 << 20), cursor)
                .unwrap();
            addrs.push(a);
            cursor = end;
        }
        let locates_after_write = l.stats().totals.locates;
        // Head is at EOD. Read in order: first read locates back to 0, then
        // the rest stream sequentially with no locate.
        for a in &addrs {
            let (_, end) = l.read_object(DriveId(0), 1, *a, None, cursor).unwrap();
            cursor = end;
        }
        let s = l.stats();
        assert_eq!(s.totals.locates - locates_after_write, 1);
        // Reading backwards now seeks every time.
        for a in addrs.iter().rev() {
            let (_, end) = l.read_object(DriveId(0), 1, *a, None, cursor).unwrap();
            cursor = end;
        }
        assert!(l.stats().totals.locates - s.totals.locates >= 3);
    }

    #[test]
    fn agent_handoff_costs_rewind_and_verify() {
        let l = fleet(1, 1, 1);
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let (a0, t1) = l
            .write_object(DriveId(0), 1, 1, Content::synthetic(1, 100 << 20), t0)
            .unwrap();
        // same agent reads: no handoff
        let (_, t2) = l.read_object(DriveId(0), 1, a0, None, t1).unwrap();
        assert_eq!(l.stats().totals.handoffs, 0);
        // different agent: handoff penalty
        let (_, t3) = l.read_object(DriveId(0), 2, a0, None, t2).unwrap();
        let s = l.stats();
        assert_eq!(s.totals.handoffs, 1);
        assert_eq!(s.totals.label_verifies, 2); // mount + handoff
        assert!(t3 - t2 > t2 - t1, "handoff read should be slower");
    }

    #[test]
    fn tape_full_reported() {
        let timing = TapeTiming {
            capacity: DataSize::mb(1),
            ..TapeTiming::lto4()
        };
        let l = TapeFleet::new(1, 1, 1, timing, Registry::new());
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let r = l.write_object(DriveId(0), 1, 1, Content::synthetic(1, 2 << 20), t0);
        assert_eq!(r.unwrap_err(), TapeError::TapeFull(TapeId(0)));
    }

    #[test]
    fn delete_and_reconcile_view() {
        let l = lib();
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let (a0, t1) = l
            .write_object(DriveId(0), 1, 10, Content::synthetic(1, 1000), t0)
            .unwrap();
        let (a1, _) = l
            .write_object(DriveId(0), 1, 11, Content::synthetic(2, 1000), t1)
            .unwrap();
        l.delete_object(a0).unwrap();
        assert_eq!(l.delete_object(a0), Err(TapeError::ObjectDeleted(a0)));
        let live = l.live_objects();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].0, a1);
        assert_eq!(live[0].1, 11);
        assert!(matches!(
            l.read_object(DriveId(0), 1, a0, None, t1),
            Err(TapeError::ObjectDeleted(_))
        ));
    }

    #[test]
    fn dismount_then_remount_elsewhere() {
        let l = lib();
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let t1 = l.dismount(DriveId(0), t0).unwrap();
        assert!(t1 > t0);
        assert_eq!(l.mounted_tape(DriveId(0)).unwrap(), None);
        let t2 = l.mount(DriveId(1), TapeId(0), t1).unwrap();
        assert!(t2 > t1);
        assert_eq!(l.drive_holding(TapeId(0)), Some(DriveId(1)));
    }

    #[test]
    fn mount_evicts_previous_volume() {
        let l = lib();
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let t1 = l.mount(DriveId(0), TapeId(1), t0).unwrap();
        // eviction costs unload + two robot moves + mount + verify
        let min_expected = t0
            + TapeTiming::lto4().unload
            + TapeTiming::lto4().robot_move * 2
            + TapeTiming::lto4().mount
            + TapeTiming::lto4().label_verify;
        assert_eq!(t1, min_expected);
        assert_eq!(l.drive_holding(TapeId(0)), None);
        assert_eq!(l.mounted_tape(DriveId(0)).unwrap(), Some(TapeId(1)));
    }

    #[test]
    fn ensure_mounted_prefers_holder_then_empty() {
        let l = lib();
        let (d0, _) = l.ensure_mounted(TapeId(0), SimInstant::EPOCH).unwrap();
        let (d0_again, t) = l
            .ensure_mounted(TapeId(0), SimInstant::from_secs(100))
            .unwrap();
        assert_eq!(d0, d0_again);
        assert_eq!(t, SimInstant::from_secs(100)); // already mounted: free
        let (d1, _) = l.ensure_mounted(TapeId(1), SimInstant::EPOCH).unwrap();
        assert_ne!(d0, d1, "second tape should go to the empty drive");
    }

    #[test]
    fn tape_error_display_messages() {
        let addr = TapeAddress {
            tape: TapeId(3),
            seq: 7,
        };
        let cases: Vec<(TapeError, &str)> = vec![
            (TapeError::NoSuchDrive(DriveId(1)), "no such drive: drive1"),
            (TapeError::NoSuchTape(TapeId(2)), "no such tape: VOL00002"),
            (
                TapeError::NotMounted(DriveId(0)),
                "no tape mounted in drive0",
            ),
            (
                TapeError::WrongTape {
                    drive: DriveId(1),
                    mounted: Some(TapeId(2)),
                    wanted: TapeId(3),
                },
                "drive1 has Some(TapeId(2)) mounted, wanted VOL00003",
            ),
            (
                TapeError::TapeInUse {
                    tape: TapeId(1),
                    drive: DriveId(0),
                },
                "VOL00001 is mounted in drive0",
            ),
            (TapeError::TapeFull(TapeId(4)), "tape full: VOL00004"),
            (TapeError::NoSuchRecord(addr), "no record 7 on VOL00003"),
            (
                TapeError::ObjectDeleted(addr),
                "record 7 on VOL00003 was deleted",
            ),
            (
                TapeError::MediaError(addr),
                "media error reading record 7 on VOL00003",
            ),
            (
                TapeError::VolumeNotEmpty(TapeId(9)),
                "volume VOL00009 still holds live objects",
            ),
            (
                TapeError::DriveFailed(DriveId(5)),
                "drive5 hard-failed and is fenced",
            ),
            (
                TapeError::TransientIo(DriveId(6)),
                "transient I/O error on drive6",
            ),
            (TapeError::NoHealthyDrive, "no healthy drive in the library"),
            (
                TapeError::LibraryOffline {
                    library: LibraryId(2),
                },
                "library lib2 is offline (all drives and robot fenced)",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn offline_library_rejects_reads_until_it_returns() {
        use copra_faults::FaultPlan;
        let l = lib();
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let content = Content::synthetic(8, 1 << 20);
        let (addr, t1) = l
            .write_object(DriveId(0), 1, 1, content.clone(), t0)
            .unwrap();
        l.arm_faults(
            FaultPlan::new(3)
                .offline_library_until(0, SimInstant::from_secs(100), SimInstant::from_secs(500))
                .arm(l.obs().clone()),
        );
        // Before the window the read-path is untouched.
        let (_, t2) = l.read_object(DriveId(0), 1, addr, None, t1).unwrap();
        // Inside the window every drive/robot operation is rejected.
        let off = SimInstant::from_secs(200);
        let want = TapeError::LibraryOffline {
            library: LibraryId(0),
        };
        assert_eq!(
            l.read_object(DriveId(0), 1, addr, None, off).unwrap_err(),
            want
        );
        assert_eq!(
            l.read_object(DriveId(0), 1, addr, Some((0, 100)), off)
                .unwrap_err(),
            want
        );
        assert_eq!(l.ensure_mounted(TapeId(0), off).unwrap_err(), want);
        assert_eq!(
            l.write_object(DriveId(0), 1, 2, Content::synthetic(9, 100), off)
                .unwrap_err(),
            want
        );
        assert!(l.library_offline(LibraryId(0), off));
        assert!(l.recall_cost_estimate(addr, off).is_none());
        // After the window the mount survived and the data reads clean.
        let back = SimInstant::from_secs(600);
        assert!(!l.library_offline(LibraryId(0), back));
        let (got, _) = l
            .read_object(DriveId(0), 1, addr, None, back.max(t2))
            .unwrap();
        assert!(got.eq_content(&content));
        // One outage observed, counted once despite many rejections.
        assert_eq!(l.obs().snapshot().counter("faults.library_outages"), 1);
    }

    #[test]
    fn manual_offline_toggle_round_trips() {
        let l = lib();
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        l.set_library_offline(LibraryId(0), true);
        assert!(matches!(
            l.ensure_mounted(TapeId(0), t0),
            Err(TapeError::LibraryOffline { .. })
        ));
        l.set_library_offline(LibraryId(0), false);
        assert_eq!(l.ensure_mounted(TapeId(0), t0).unwrap(), (DriveId(0), t0));
    }

    #[test]
    fn damaged_and_deleted_records_fail_reads_precisely() {
        let l = lib();
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let (a0, t1) = l
            .write_object(DriveId(0), 1, 10, Content::synthetic(1, 4096), t0)
            .unwrap();
        let (a1, t2) = l
            .write_object(DriveId(0), 1, 11, Content::synthetic(2, 4096), t1)
            .unwrap();
        l.damage_record(a0).unwrap();
        assert_eq!(
            l.read_object(DriveId(0), 1, a0, None, t2).unwrap_err(),
            TapeError::MediaError(a0)
        );
        assert_eq!(
            l.read_object(DriveId(0), 1, a0, Some((0, 100)), t2)
                .unwrap_err(),
            TapeError::MediaError(a0)
        );
        // The neighbor record is untouched.
        let (_, t3) = l.read_object(DriveId(0), 1, a1, None, t2).unwrap();
        l.delete_object(a1).unwrap();
        assert_eq!(
            l.read_object(DriveId(0), 1, a1, None, t3).unwrap_err(),
            TapeError::ObjectDeleted(a1)
        );
        assert_eq!(
            l.read_object(DriveId(0), 1, a1, Some((0, 100)), t3)
                .unwrap_err(),
            TapeError::ObjectDeleted(a1)
        );
    }

    #[test]
    fn scheduled_drive_failure_fences_and_frees_the_volume() {
        use copra_faults::FaultPlan;
        let l = lib();
        l.arm_faults(
            FaultPlan::new(11)
                .fail_drive(0, SimInstant::from_secs(100))
                .arm(l.obs().clone()),
        );
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let (addr, _) = l
            .write_object(DriveId(0), 1, 1, Content::synthetic(1, 1 << 20), t0)
            .unwrap();
        let late = SimInstant::from_secs(200);
        assert_eq!(
            l.read_object(DriveId(0), 1, addr, None, late).unwrap_err(),
            TapeError::DriveFailed(DriveId(0))
        );
        assert_eq!(l.healthy_drives(late), 1, "drive 0 fenced");
        assert_eq!(l.drive_holding(TapeId(0)), None, "volume freed at fence");
        // Recovery path: the tape remounts on the healthy drive and the
        // object is readable again.
        let (d, t) = l.ensure_mounted(TapeId(0), late).unwrap();
        assert_eq!(d, DriveId(1));
        let (back, _) = l.read_object(d, 1, addr, None, t).unwrap();
        assert!(back.eq_content(&Content::synthetic(1, 1 << 20)));
        let snap = l.obs().snapshot();
        assert_eq!(snap.counter("faults.fences"), 1);
        assert_eq!(snap.counter("faults.drive_failures"), 1);
    }

    #[test]
    fn all_drives_fenced_is_no_healthy_drive() {
        use copra_faults::FaultPlan;
        let l = lib();
        l.arm_faults(
            FaultPlan::new(11)
                .fail_drive(0, SimInstant::EPOCH)
                .fail_drive(1, SimInstant::EPOCH)
                .arm(l.obs().clone()),
        );
        assert_eq!(
            l.ensure_mounted(TapeId(0), SimInstant::from_secs(1)),
            Err(TapeError::NoHealthyDrive)
        );
    }

    #[test]
    fn healthy_drives_matches_a_per_drive_scan() {
        use copra_faults::FaultPlan;
        let f = fleet(2, 3, 4);
        let at = SimInstant::from_secs;
        f.arm_faults(
            FaultPlan::new(11)
                .fail_drive(0, at(10))
                .fail_drive(4, at(20))
                .fail_drive(5, at(1000))
                .offline_library_until(1, at(50), at(100))
                .arm(f.obs().clone()),
        );
        let scan = |now| {
            let libs = f.shared.libraries.iter();
            libs.filter(|l| !f.is_offline(l, now))
                .flat_map(|l| l.drives.clone())
                .filter(|&g| !f.shared.drives[g as usize].lock().fenced)
                .count()
        };
        // (instant, healthy drives after every drive's mount there): a
        // fence lands when an operation consults the failed drive, and
        // an offline library's mounts fail before any drive is consulted.
        for (secs, want) in [(0, 6), (15, 5), (30, 4), (60, 2), (100, 4), (2000, 3)] {
            let now = at(secs);
            assert_eq!(f.healthy_drives(now), scan(now), "before {secs}s");
            for g in 0..6 {
                let _ = f.mount(DriveId(g), TapeId(g / 3 * 4 + g % 3), now);
            }
            assert_eq!(f.healthy_drives(now), scan(now), "at {secs}s");
            assert_eq!(f.healthy_drives(now), want, "at {secs}s");
        }
        f.set_library_offline(LibraryId(0), true);
        assert_eq!(f.healthy_drives(at(2000)), 1);
        assert_eq!(f.healthy_drives(at(2000)), scan(at(2000)));
    }

    #[test]
    fn robot_jam_delays_exactly_one_mount() {
        use copra_faults::FaultPlan;
        let l = lib();
        l.arm_faults(
            FaultPlan::new(11)
                .jam_robot(SimInstant::EPOCH, SimDuration::from_secs(40))
                .arm(l.obs().clone()),
        );
        let end = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        // robot (8 + 40 jam) + mount 15 + verify 3
        assert_eq!(end, SimInstant::from_secs(66));
        // The jam was consumed: the next mount runs at mechanical speed.
        let end2 = l.mount(DriveId(1), TapeId(1), end).unwrap();
        assert_eq!(end2, end + SimDuration::from_secs(26));
    }

    #[test]
    fn transient_io_errors_spike_latency_and_are_retryable() {
        use copra_faults::FaultPlan;
        let l = fleet(1, 1, 1);
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        l.arm_faults(
            FaultPlan::new(5)
                .transient_io(1.0, SimDuration::from_secs(5))
                .arm(l.obs().clone()),
        );
        let content = Content::synthetic(9, 1 << 20);
        assert_eq!(
            l.write_object(DriveId(0), 1, 1, content.clone(), t0)
                .unwrap_err(),
            TapeError::TransientIo(DriveId(0))
        );
        // Re-arm with a clean plan (the retry path normally just tries
        // again later); the spike stays charged to the drive timeline.
        l.arm_faults(FaultPlan::new(5).arm(l.obs().clone()));
        let (_, end) = l.write_object(DriveId(0), 1, 1, content, t0).unwrap();
        assert!(
            end >= t0 + SimDuration::from_secs(5),
            "spike occupies drive"
        );
    }

    #[test]
    fn injected_media_errors_clear_after_their_hits() {
        use copra_faults::FaultPlan;
        let l = fleet(1, 1, 1);
        let t0 = l.mount(DriveId(0), TapeId(0), SimInstant::EPOCH).unwrap();
        let content = Content::synthetic(3, 1 << 20);
        let (addr, t1) = l
            .write_object(DriveId(0), 1, 1, content.clone(), t0)
            .unwrap();
        l.arm_faults(
            FaultPlan::new(4)
                .media_error(addr.tape.0, addr.seq, 2)
                .arm(l.obs().clone()),
        );
        assert_eq!(
            l.read_object(DriveId(0), 1, addr, None, t1).unwrap_err(),
            TapeError::MediaError(addr)
        );
        assert_eq!(
            l.read_object(DriveId(0), 1, addr, None, t1).unwrap_err(),
            TapeError::MediaError(addr)
        );
        // Hits exhausted: the soft error clears and the data is intact.
        let (back, _) = l.read_object(DriveId(0), 1, addr, None, t1).unwrap();
        assert!(back.eq_content(&content));
        assert_eq!(l.obs().snapshot().counter("faults.media_errors"), 2);
    }

    #[test]
    fn tapes_with_space_sorted_emptiest_first() {
        let timing = TapeTiming::frictionless(Bandwidth::mb_per_sec(100), DataSize::mb(10));
        let l = TapeFleet::new(1, 1, 3, timing, Registry::new());
        let t0 = l.mount(DriveId(0), TapeId(1), SimInstant::EPOCH).unwrap();
        l.write_object(DriveId(0), 1, 1, Content::synthetic(1, 5 << 20), t0)
            .unwrap();
        let v = l.tapes_with_space(DataSize::mb(1));
        assert_eq!(v[0], TapeId(0).min(TapeId(2)).min(TapeId(0)));
        assert!(v.contains(&TapeId(1)));
        // nothing fits 20 MB
        assert!(l.tapes_with_space(DataSize::mb(20)).is_empty());
    }

    #[test]
    fn global_ids_route_to_the_owning_library() {
        let f = fleet(3, 2, 4);
        assert_eq!(f.library_count(), 3);
        assert_eq!(f.drive_count(), 6);
        assert_eq!(f.library_of_tape(TapeId(0)), Some(LibraryId(0)));
        assert_eq!(f.library_of_tape(TapeId(5)), Some(LibraryId(1)));
        assert_eq!(f.library_of_tape(TapeId(11)), Some(LibraryId(2)));
        assert_eq!(f.library_of_tape(TapeId(12)), None);
        // Unknown ids are rejected, the drive first; a drive mounts only
        // its own library's tapes.
        assert_eq!(
            f.mount(DriveId(6), TapeId(12), SimInstant::EPOCH),
            Err(TapeError::NoSuchDrive(DriveId(6)))
        );
        assert_eq!(
            f.mount(DriveId(2), TapeId(0), SimInstant::EPOCH),
            Err(TapeError::NoSuchTape(TapeId(0)))
        );
        // Write in library 1 and read back through global ids only.
        let (d, t0) = f.ensure_mounted(TapeId(5), SimInstant::EPOCH).unwrap();
        assert_eq!(d, DriveId(2), "first drive of the owning library");
        let content = Content::synthetic(5, 2 << 20);
        let (addr, t1) = f.write_object(d, 1, 77, content.clone(), t0).unwrap();
        assert_eq!(addr.tape, TapeId(5));
        assert_eq!(f.drive_holding(TapeId(5)), Some(d));
        let (back, _) = f.read_object(d, 1, addr, None, t1).unwrap();
        assert!(back.eq_content(&content));
        assert_eq!(f.live_objects().len(), 1);
        let (d2, _) = f.ensure_mounted(TapeId(6), t1).unwrap();
        assert_eq!(d2, DriveId(3), "empty drive picked under global ids");
    }

    #[test]
    fn allocation_order_is_globally_emptiest_first() {
        let f = fleet(2, 2, 4);
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
        let f = fleet(2, 2, 4);
        let now = SimInstant::EPOCH;
        let (d, t0) = f.ensure_mounted(TapeId(0), now).unwrap();
        let (a0, t1) = f
            .write_object(d, 1, 1, Content::synthetic(1, 1 << 20), t0)
            .unwrap();
        let (d1, t2) = f.ensure_mounted(TapeId(4), t1).unwrap();
        let (a1, t3) = f
            .write_object(d1, 1, 2, Content::synthetic(2, 1 << 20), t2)
            .unwrap();
        f.set_library_offline(LibraryId(0), true);
        assert!(f.library_offline(LibraryId(0), t3));
        assert!(!f.library_offline(LibraryId(1), t3));
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
