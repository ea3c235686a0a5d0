//! Storage agents — the per-node data movers.
//!
//! In LAN mode every byte flows client → network → server → drive; with
//! multiple clients the server NIC saturates. In LAN-free mode the bytes
//! flow client → FC HBA → SAN → drive and only object metadata touches the
//! server, so agents on different nodes stream to different tapes fully in
//! parallel (paper Figure 6).

use crate::error::{HsmError, HsmResult};
use crate::object::{ObjectKind, TsmObject};
use crate::server::TsmServer;
use copra_cluster::{FtaCluster, NodeId};
use copra_faults::{FaultPlane, RetryPolicy};
use copra_obs::{Counter, EventKind};
use copra_simtime::{DataSize, SimInstant};
use copra_tape::{DriveId, LibraryId, TapeError, TapeId};
use copra_vfs::Content;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which path object data takes (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataPath {
    /// Through the central server's NIC (the bottleneck).
    Lan,
    /// Client → SAN → drive; metadata only to the server.
    LanFree,
}

/// Which volume a [`StorageAgent::store`] lands on. Every variant maps to
/// exactly one server assignment call; only [`Volume::Agent`] is sticky.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Volume<'a> {
    /// The agent's own streaming volume, reused while it has room — the
    /// common migrate path.
    Agent,
    /// The co-location group's volume (§4 feature list item 5): restoring
    /// a whole group then needs the fewest mounts.
    Group(&'a str),
    /// A volume of library `lib` other than the `avoid` volumes — replica
    /// placement, one failure domain per copy.
    InLibrary { lib: LibraryId, avoid: &'a [TapeId] },
}

struct AgentState {
    /// The (drive, volume) pair this agent is currently streaming to.
    current: Option<(DriveId, TapeId)>,
}

/// Cached registry handles for the data-movement counters.
struct AgentMetrics {
    lan_bytes: Arc<Counter>,
    lanfree_bytes: Arc<Counter>,
    container_fills: Arc<Counter>,
}

struct Shared {
    node: NodeId,
    cluster: FtaCluster,
    server: TsmServer,
    state: Mutex<AgentState>,
    metrics: AgentMetrics,
}

/// A storage agent bound to one FTA node (cheap to clone).
#[derive(Clone)]
pub struct StorageAgent {
    shared: Arc<Shared>,
}

impl StorageAgent {
    pub fn new(node: NodeId, cluster: FtaCluster, server: TsmServer) -> Self {
        let obs = server.obs();
        let metrics = AgentMetrics {
            lan_bytes: obs.counter("hsm.lan_bytes"),
            lanfree_bytes: obs.counter("hsm.lanfree_bytes"),
            container_fills: obs.counter("hsm.container_fills"),
        };
        StorageAgent {
            shared: Arc::new(Shared {
                node,
                cluster,
                server,
                state: Mutex::new(AgentState { current: None }),
                metrics,
            }),
        }
    }

    /// Move `len` bytes between this node and a drive from `t`, counting
    /// them to the path's byte counter. LAN-free crosses the node's SAN
    /// link; LAN crosses the node NIC and the server NIC, in data-flow
    /// order (`to_tape`: node first). Returns the arrival instant.
    fn move_data(
        &self,
        data_path: DataPath,
        len: DataSize,
        t: SimInstant,
        to_tape: bool,
    ) -> SimInstant {
        let (node, cluster, server) = (self.shared.node, &self.shared.cluster, &self.shared.server);
        match data_path {
            DataPath::Lan => {
                self.shared.metrics.lan_bytes.add(len.as_bytes());
                if to_tape {
                    let t = cluster.charge_nic(node, t, len).end;
                    server.charge_lan(t, len)
                } else {
                    let t = server.charge_lan(t, len);
                    cluster.charge_nic(node, t, len).end
                }
            }
            DataPath::LanFree => {
                self.shared.metrics.lanfree_bytes.add(len.as_bytes());
                cluster.charge_san(node, t, len).end
            }
        }
    }

    pub fn server(&self) -> &TsmServer {
        &self.shared.server
    }

    /// Identifier used for tape hand-off detection.
    fn agent_id(&self) -> u32 {
        self.shared.node.0
    }

    /// The armed fault plane (if any) and the retry policy recoveries use:
    /// backoff-with-jitter under a plan, otherwise eight immediate
    /// attempts — the fault-free baseline's sim timings.
    fn recovery(&self) -> (Option<Arc<FaultPlane>>, RetryPolicy) {
        let plane = self.shared.server.library().armed_faults();
        let policy = plane
            .as_ref()
            .map_or(RetryPolicy::immediate(8), |p| p.retry());
        (plane, policy)
    }

    /// A mount attempt worth retrying: volume races with other agents and
    /// injected faults whose recovery is "try again elsewhere/later".
    fn mount_retryable(e: &TapeError) -> bool {
        matches!(
            e,
            TapeError::TapeInUse { .. } | TapeError::DriveFailed(_) | TapeError::TransientIo(_)
        )
    }

    /// Mount a volume with room for `len`, chosen by `volume`. Returns
    /// (drive, mount-completion instant). Only [`Volume::Agent`] reuses
    /// and records the agent's sticky current volume.
    fn ensure_volume(
        &self,
        volume: Volume<'_>,
        len: DataSize,
        ready: SimInstant,
    ) -> HsmResult<(DriveId, SimInstant)> {
        let server = &self.shared.server;
        let lib = server.library();
        let mut sticky = (volume == Volume::Agent).then(|| self.shared.state.lock());
        // Reuse the current volume while it has space. A volume stranded
        // in an offline library is unusable, not an error: forget it and
        // place the write elsewhere.
        if let Some(st) = sticky.as_deref_mut() {
            if let Some((drive, tape)) = st.current {
                if lib
                    .library_of_tape(tape)
                    .is_some_and(|l| lib.library_offline(l, ready))
                {
                    st.current = None;
                } else {
                    let has_space = lib.with_cartridge(tape, |c| c.remaining() >= len)?;
                    let still_ours = lib.mounted_tape(drive)? == Some(tape);
                    if has_space && still_ours {
                        return Ok((drive, ready));
                    }
                }
            }
        }
        // Ask the server for a volume and mount it, under the retry
        // budget: volume races with other agents and fenced/flaky drives
        // back off and try again.
        let (plane, policy) = self.recovery();
        let mut cursor = ready;
        let mut attempt = 0u32;
        loop {
            let (tape, t) = match volume {
                Volume::Agent => server.assign_volume(len, cursor)?,
                Volume::Group(group) => server.assign_volume_collocated(len, group, cursor)?,
                Volume::InLibrary { lib, avoid } => {
                    server.assign_volume_avoiding(len, Some(lib), avoid, cursor)?
                }
            };
            cursor = t;
            match lib.ensure_mounted(tape, cursor) {
                Ok((drive, end)) => {
                    if let Some(st) = sticky.as_deref_mut() {
                        st.current = Some((drive, tape));
                    }
                    if attempt > 0 {
                        if let Some(p) = &plane {
                            p.note_recovery(end.saturating_since(ready));
                        }
                    }
                    return Ok((drive, end));
                }
                Err(ref e) if Self::mount_retryable(e) && attempt + 1 < policy.budget => {
                    let delay = policy.delay(tape.0 as u64, attempt);
                    cursor += delay;
                    if let Some(p) = &plane {
                        p.note_retry(delay);
                    }
                    attempt += 1;
                }
                Err(TapeError::TapeInUse { .. }) => {
                    return Err(HsmError::OutOfVolumes {
                        needed: len.as_bytes(),
                    })
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Write `objid` with recovery: a full/stolen volume rolls to a fresh
    /// one (the pre-existing behavior), a fenced drive re-places the
    /// object through `ensure_volume` (which now skips it), and transient
    /// I/O errors back off and retry in place — all under the retry budget.
    /// Re-placement goes through the same `volume`, so a group or replica
    /// write never falls back onto the agent's sticky volume.
    fn write_with_recovery(
        &self,
        volume: Volume<'_>,
        objid: u64,
        content: Content,
        len: DataSize,
        mut drive: DriveId,
        mut t: SimInstant,
    ) -> HsmResult<(copra_tape::TapeAddress, SimInstant)> {
        let server = &self.shared.server;
        let (plane, policy) = self.recovery();
        // The baseline keeps the historical "retry once" semantics; a plan
        // gets its full budget.
        let budget = policy.budget.max(2);
        let first = t;
        let mut attempt = 0u32;
        loop {
            match server
                .library()
                .write_object(drive, self.agent_id(), objid, content.clone(), t)
            {
                Ok((addr, end)) => {
                    if attempt > 0 {
                        if let Some(p) = &plane {
                            p.note_recovery(end.saturating_since(first));
                        }
                    }
                    return Ok((addr, end));
                }
                Err(
                    TapeError::TapeFull(_) | TapeError::WrongTape { .. } | TapeError::NotMounted(_),
                ) if attempt + 1 < budget => {
                    self.forget_volume(volume);
                    (drive, t) = self.ensure_volume(volume, len, t)?;
                    attempt += 1;
                }
                Err(TapeError::DriveFailed(_)) if attempt + 1 < budget => {
                    let delay = policy.delay(objid, attempt);
                    if let Some(p) = &plane {
                        p.note_retry(delay);
                    }
                    self.forget_volume(volume);
                    (drive, t) = self.ensure_volume(volume, len, t + delay)?;
                    attempt += 1;
                }
                Err(TapeError::TransientIo(_)) if attempt + 1 < budget => {
                    let delay = policy.delay(objid, attempt);
                    if let Some(p) = &plane {
                        p.note_retry(delay);
                    }
                    t += delay;
                    attempt += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Drop the sticky current volume before re-placing an agent write.
    fn forget_volume(&self, volume: Volume<'_>) {
        if volume == Volume::Agent {
            self.release_volume();
        }
    }

    /// Store one object (one tape transaction) on the volume `volume`
    /// picks. Returns (objid, completion). A
    /// [`TapeError::LibraryOffline`] from a [`Volume::InLibrary`] target
    /// propagates: the caller decides whether to degrade the write and
    /// re-silver later.
    pub fn store(
        &self,
        path: &str,
        fs_ino: u64,
        content: Content,
        ready: SimInstant,
        data_path: DataPath,
        volume: Volume<'_>,
    ) -> HsmResult<(u64, SimInstant)> {
        let len = DataSize::from_bytes(content.len());
        let server = &self.shared.server;
        let objid = server.alloc_objid();
        // Open-transaction metadata hop.
        let t = server.meta_op(ready);
        let (drive, t) = self.ensure_volume(volume, len, t)?;
        // Move the data to the drive, then write the tape record,
        // recovering from volume rolls, fenced drives and transient I/O
        // under the retry budget.
        let stored_at = self.move_data(data_path, len, t, true);
        let (addr, t) = self.write_with_recovery(volume, objid, content, len, drive, stored_at)?;
        // Tape record written, DB row not yet registered: the torn state
        // scrub's record sweep repairs.
        server.crash_point("agent.store.after_write", t)?;
        // Close-transaction metadata hop and DB insert.
        let t = server.meta_op(t);
        server.register(TsmObject {
            objid,
            path: path.to_string(),
            fs_ino,
            addr,
            len: len.as_bytes(),
            stored_at,
            kind: ObjectKind::Simple,
        });
        Ok((objid, t))
    }

    /// Store many small files as **one aggregated container** — a single
    /// tape transaction (§6.1's fix). Each member is (path, ino, content),
    /// moved into the container image and its catalog row; the container
    /// and its members are registered under one DB write. Returns the
    /// member object ids (one per input file, in order) and the completion
    /// instant.
    pub fn store_container(
        &self,
        members: Vec<(String, u64, Content)>,
        ready: SimInstant,
        data_path: DataPath,
    ) -> HsmResult<(Vec<u64>, SimInstant)> {
        assert!(!members.is_empty(), "container needs at least one member");
        let server = &self.shared.server;
        let container_id = server.alloc_objid();
        let member_ids: Vec<u64> = members.iter().map(|_| server.alloc_objid()).collect();
        let member_count = members.len() as u32;
        // Concatenate member payloads into the container image.
        let mut image = Content::empty();
        let mut rows = Vec::with_capacity(members.len());
        for (path, fs_ino, content) in members {
            rows.push((path, fs_ino, image.len(), content.len()));
            image.extend(content);
        }
        let len = DataSize::from_bytes(image.len());
        let t = server.meta_op(ready);
        let (drive, t) = self.ensure_volume(Volume::Agent, len, t)?;
        let stored_at = self.move_data(data_path, len, t, true);
        let (addr, t) =
            self.write_with_recovery(Volume::Agent, container_id, image, len, drive, stored_at)?;
        let t = server.meta_op(t);
        let container = TsmObject {
            objid: container_id,
            path: format!("<aggregate:{container_id}>"),
            fs_ino: 0,
            addr,
            len: len.as_bytes(),
            stored_at,
            kind: ObjectKind::Container { member_count },
        };
        let members = rows.into_iter().zip(member_ids.iter()).map(
            |((path, fs_ino, offset, member_len), &objid)| TsmObject {
                objid,
                path,
                fs_ino,
                addr,
                len: member_len,
                stored_at,
                kind: ObjectKind::Member {
                    container: container_id,
                    offset,
                },
            },
        );
        server.register_all(std::iter::once(container).chain(members));
        self.shared.metrics.container_fills.inc();
        server.obs().event(
            t,
            EventKind::ContainerFill {
                members: member_count,
                bytes: len.as_bytes(),
            },
        );
        Ok((member_ids, t))
    }

    /// Does this error mean "this replica is unreadable, try another"?
    /// Deleted/damaged records, media errors, and a whole-library outage
    /// all fail over; transient faults retry in place instead (they would
    /// hit any replica equally).
    fn failover_worthy(e: &HsmError) -> bool {
        matches!(
            e,
            HsmError::Tape(
                TapeError::MediaError(_)
                    | TapeError::ObjectDeleted(_)
                    | TapeError::NoSuchRecord(_)
                    | TapeError::LibraryOffline { .. }
            )
        )
    }

    /// Fetch an object's bytes (simple objects and aggregate members).
    /// Returns (content, completion).
    ///
    /// Replica-aware recall routing: the primary and every registered tape
    /// copy are ranked by the library's mount/seek cost estimate (an
    /// already-mounted near replica beats a dismounted far one; a replica
    /// in an offline library ranks last) and tried cheapest-first. A
    /// replica failing with a media error, a deleted record, or a
    /// whole-library outage fails over to the next; transient errors
    /// retry in place inside `fetch_exact`.
    pub fn fetch(
        &self,
        objid: u64,
        ready: SimInstant,
        data_path: DataPath,
    ) -> HsmResult<(Content, SimInstant)> {
        let server = &self.shared.server;
        let mut candidates: Vec<u64> = Vec::with_capacity(4);
        candidates.push(objid);
        candidates.extend(server.copies_of(objid));
        if candidates.len() > 1 {
            let lib = server.library();
            // Stable sort: equal-cost replicas keep primary-first order,
            // so the unreplicated single-library timings are unchanged.
            candidates.sort_by_key(|id| {
                server
                    .get(*id)
                    .ok()
                    .and_then(|o| lib.recall_cost_estimate(o.addr, ready))
                    .map_or(u64::MAX, |d| d.as_nanos())
            });
        }
        let mut primary_err = None;
        for id in candidates {
            match self.fetch_exact(id, ready, data_path) {
                Ok(ok) => {
                    if id != objid {
                        // Served from a replica — registered only when a
                        // failover actually happens, so unreplicated
                        // snapshots keep the legacy counter set.
                        server.obs().counter("replication.failover_recalls").inc();
                    }
                    return Ok(ok);
                }
                Err(e) if id == objid => {
                    // A hard, non-replica-specific error on the primary
                    // (unknown object, crash, out of volumes) aborts.
                    if !Self::failover_worthy(&e) {
                        return Err(e);
                    }
                    primary_err = Some(e);
                }
                // Copy errors are swallowed: the primary's error (or the
                // primary's success) decides what the caller sees.
                Err(_) => {}
            }
        }
        Err(primary_err.unwrap_or(HsmError::NoSuchObject(objid)))
    }

    /// Fetch exactly this object id, no copy fallback. Fenced drives and
    /// transient I/O errors back off and retry under the budget — a fence
    /// is persistent, so the remount lands on a healthy drive.
    fn fetch_exact(
        &self,
        objid: u64,
        ready: SimInstant,
        data_path: DataPath,
    ) -> HsmResult<(Content, SimInstant)> {
        let server = &self.shared.server;
        let obj = server.get(objid)?;
        let lib = server.library();
        let range = match obj.kind {
            ObjectKind::Simple | ObjectKind::Container { .. } => None,
            ObjectKind::Member { offset, .. } => Some((offset, obj.len)),
        };
        let (plane, policy) = self.recovery();
        let mut cursor = server.meta_op(ready);
        let mut attempt = 0u32;
        let (content, t) = loop {
            let read = lib
                .ensure_mounted(obj.addr.tape, cursor)
                .and_then(|(drive, t)| lib.read_object(drive, self.agent_id(), obj.addr, range, t));
            match read {
                Ok(ok) => {
                    if attempt > 0 {
                        if let Some(p) = &plane {
                            p.note_recovery(ok.1.saturating_since(ready));
                        }
                    }
                    break ok;
                }
                Err(e @ (TapeError::DriveFailed(_) | TapeError::TransientIo(_)))
                    if attempt + 1 < policy.budget =>
                {
                    let _ = e;
                    let delay = policy.delay(objid ^ 0x5EED, attempt);
                    cursor += delay;
                    if let Some(p) = &plane {
                        p.note_retry(delay);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e.into()),
            }
        };
        // Data travels drive → node (SAN) or drive → server → network → node.
        let t = self.move_data(data_path, DataSize::from_bytes(content.len()), t, false);
        Ok((content, t))
    }

    /// Release this agent's volume stickiness (end of a migration batch).
    pub fn release_volume(&self) {
        self.shared.state.lock().current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_obs::Registry;
    use copra_simtime::Bandwidth;
    use copra_tape::{TapeFleet, TapeTiming};

    fn setup(nodes: usize, drives: usize, tapes: usize) -> (FtaCluster, TsmServer) {
        let cluster = FtaCluster::new(nodes);
        let server = TsmServer::roadrunner(TapeFleet::new(
            1,
            drives,
            tapes,
            TapeTiming::lto4(),
            Registry::new(),
        ));
        (cluster, server)
    }

    /// Store synthetic object `i` (`bytes` long) on the agent's own volume.
    fn put(
        a: &StorageAgent,
        i: u64,
        bytes: u64,
        ready: SimInstant,
        dp: DataPath,
    ) -> (u64, SimInstant) {
        let content = Content::synthetic(i, bytes);
        a.store(&format!("/f{i}"), i, content, ready, dp, Volume::Agent)
            .unwrap()
    }

    #[test]
    fn store_fetch_roundtrip_lanfree() {
        let (cluster, server) = setup(2, 2, 4);
        let agent = StorageAgent::new(NodeId(0), cluster, server.clone());
        let (objid, t1) = put(&agent, 3, 50 << 20, SimInstant::EPOCH, DataPath::LanFree);
        assert!(server.contains(objid));
        let (back, t2) = agent.fetch(objid, t1, DataPath::LanFree).unwrap();
        assert!(back.eq_content(&Content::synthetic(3, 50 << 20)));
        assert!(t2 > t1);
    }

    #[test]
    fn agent_reuses_its_volume() {
        let (cluster, server) = setup(1, 2, 4);
        let agent = StorageAgent::new(NodeId(0), cluster, server.clone());
        let mut cursor = SimInstant::EPOCH;
        for i in 0..3 {
            cursor = put(&agent, i, 10 << 20, cursor, DataPath::LanFree).1;
        }
        // one mount total
        assert_eq!(server.library().stats().totals.mounts, 1);
    }

    #[test]
    fn two_agents_use_distinct_volumes() {
        let (cluster, server) = setup(2, 2, 4);
        let a0 = StorageAgent::new(NodeId(0), cluster.clone(), server.clone());
        let a1 = StorageAgent::new(NodeId(1), cluster, server.clone());
        put(&a0, 1, 1 << 20, SimInstant::EPOCH, DataPath::LanFree);
        put(&a1, 2, 1 << 20, SimInstant::EPOCH, DataPath::LanFree);
        let objs = server.objects();
        assert_eq!(objs.len(), 2);
        assert_ne!(
            objs[0].addr.tape, objs[1].addr.tape,
            "agents should stream to different volumes"
        );
    }

    #[test]
    fn agent_rolls_to_new_volume_when_full() {
        let timing = TapeTiming {
            capacity: DataSize::mb(15),
            ..TapeTiming::lto4()
        };
        let cluster = FtaCluster::new(1);
        let server = TsmServer::roadrunner(TapeFleet::new(1, 2, 4, timing, Registry::new()));
        let agent = StorageAgent::new(NodeId(0), cluster, server.clone());
        let mut cursor = SimInstant::EPOCH;
        for i in 0..4u64 {
            cursor = put(&agent, i, 10 << 20, cursor, DataPath::LanFree).1;
        }
        let tapes: std::collections::BTreeSet<_> =
            server.objects().iter().map(|o| o.addr.tape).collect();
        assert!(tapes.len() >= 2, "should have rolled volumes: {tapes:?}");
    }

    #[test]
    fn lan_path_is_bottlenecked_by_server_nic() {
        // Server NIC at 1 Gbit/s; two nodes with fast NICs both store 1 GB.
        let cluster = FtaCluster::new(2);
        let lib = TapeFleet::new(
            1,
            2,
            4,
            TapeTiming::frictionless(Bandwidth::gb_per_sec(10), DataSize::tb(1)),
            Registry::new(),
        );
        let server = TsmServer::new(
            lib,
            Bandwidth::gbit_per_sec(1),
            copra_simtime::SimDuration::ZERO,
        );
        let a0 = StorageAgent::new(NodeId(0), cluster.clone(), server.clone());
        let a1 = StorageAgent::new(NodeId(1), cluster.clone(), server.clone());
        let (_, t0) = put(&a0, 1, 1 << 30, SimInstant::EPOCH, DataPath::Lan);
        let (_, t1) = put(&a1, 2, 1 << 30, SimInstant::EPOCH, DataPath::Lan);
        // Each GB takes ~8.6 s on the 1 Gbit server NIC; serialized ≈ 17 s.
        let makespan = t0.max(t1).as_secs_f64();
        assert!(makespan > 15.0, "LAN makespan {makespan}");
        // LAN-free equivalents on fresh hardware finish much faster in
        // parallel (FC4 = 0.5 GB/s → ~2.1 s each, concurrent).
        let cluster2 = FtaCluster::new(2);
        let lib2 = TapeFleet::new(
            1,
            2,
            4,
            TapeTiming::frictionless(Bandwidth::gb_per_sec(10), DataSize::tb(1)),
            Registry::new(),
        );
        let server2 = TsmServer::new(
            lib2,
            Bandwidth::gbit_per_sec(1),
            copra_simtime::SimDuration::ZERO,
        );
        let b0 = StorageAgent::new(NodeId(0), cluster2.clone(), server2.clone());
        let b1 = StorageAgent::new(NodeId(1), cluster2, server2);
        let (_, u0) = put(&b0, 1, 1 << 30, SimInstant::EPOCH, DataPath::LanFree);
        let (_, u1) = put(&b1, 2, 1 << 30, SimInstant::EPOCH, DataPath::LanFree);
        let lanfree_makespan = u0.max(u1).as_secs_f64();
        assert!(
            lanfree_makespan < makespan / 2.0,
            "lan-free {lanfree_makespan} vs lan {makespan}"
        );
    }

    #[test]
    fn store_recovers_from_drive_failure() {
        use copra_faults::FaultPlan;
        let (cluster, server) = setup(1, 2, 4);
        let agent = StorageAgent::new(NodeId(0), cluster, server.clone());
        let (_, t1) = put(&agent, 1, 20 << 20, SimInstant::EPOCH, DataPath::LanFree);
        // The drive streaming this agent's volume hard-fails before the
        // next store touches it.
        let lib = server.library().clone();
        lib.arm_faults(FaultPlan::new(3).fail_drive(0, t1).arm(lib.obs().clone()));
        let (obj2, t2) = put(&agent, 2, 20 << 20, t1, DataPath::LanFree);
        assert!(lib.is_fenced(DriveId(0)).unwrap());
        // The write landed on the healthy drive and the bytes are intact.
        let (back, _) = agent.fetch(obj2, t2, DataPath::LanFree).unwrap();
        assert!(back.eq_content(&Content::synthetic(2, 20 << 20)));
        let snap = lib.obs().snapshot();
        assert_eq!(snap.counter("faults.fences"), 1);
        assert!(snap.counter("faults.retries") >= 1, "backoff retry counted");
    }

    #[test]
    fn fetch_exhausts_its_retry_budget_on_persistent_transients() {
        use copra_faults::FaultPlan;
        let (cluster, server) = setup(1, 1, 2);
        let agent = StorageAgent::new(NodeId(0), cluster, server.clone());
        let (objid, t1) = put(&agent, 1, 4 << 20, SimInstant::EPOCH, DataPath::LanFree);
        let lib = server.library().clone();
        // Every operation faults: the bounded budget must give up.
        lib.arm_faults(
            FaultPlan::new(6)
                .transient_io(1.0, copra_simtime::SimDuration::from_secs(2))
                .arm(lib.obs().clone()),
        );
        let err = agent.fetch(objid, t1, DataPath::LanFree).unwrap_err();
        assert!(
            matches!(err, HsmError::Tape(TapeError::TransientIo(_))),
            "{err:?}"
        );
        let budget = lib.armed_faults().unwrap().retry().budget as u64;
        assert_eq!(lib.obs().snapshot().counter("faults.retries"), budget - 1);
    }

    #[test]
    fn armed_plane_policy_beats_the_server_default() {
        use copra_faults::FaultPlan;
        let (cluster, server) = setup(1, 1, 2);
        let agent = StorageAgent::new(NodeId(0), cluster, server.clone());
        // Unarmed: eight immediate attempts are the fallback.
        assert_eq!(agent.recovery().1, RetryPolicy::immediate(8));
        // Armed: the plane's policy wins.
        let lib = server.library().clone();
        lib.arm_faults(FaultPlan::new(7).arm(lib.obs().clone()));
        assert_eq!(agent.recovery().1, RetryPolicy::standard(7));
    }

    #[test]
    fn fetch_fails_over_to_the_replica_when_a_library_is_offline() {
        let cluster = FtaCluster::new(1);
        let fleet = TapeFleet::new(2, 2, 4, TapeTiming::lto4(), Registry::new());
        let server = TsmServer::roadrunner(fleet);
        let agent = StorageAgent::new(NodeId(0), cluster, server.clone());
        let content = Content::synthetic(5, 30 << 20);
        let (primary, t1) = put(&agent, 5, 30 << 20, SimInstant::EPOCH, DataPath::LanFree);
        let volume = Volume::InLibrary {
            lib: LibraryId(1),
            avoid: &[],
        };
        let (replica, t2) = agent
            .store("/f5", 5, content.clone(), t1, DataPath::LanFree, volume)
            .unwrap();
        server.register_copy(primary, replica);
        assert_eq!(
            server
                .library()
                .library_of_tape(server.get(replica).unwrap().addr.tape),
            Some(LibraryId(1)),
            "replica must land in the constrained library"
        );
        // Primary's library goes dark; the recall silently re-routes.
        server.library().set_library_offline(LibraryId(0), true);
        let (back, _) = agent.fetch(primary, t2, DataPath::LanFree).unwrap();
        assert!(back.eq_content(&content));
        // Both libraries dark: the primary's offline error surfaces.
        server.library().set_library_offline(LibraryId(1), true);
        let err = agent.fetch(primary, t2, DataPath::LanFree).unwrap_err();
        assert!(
            matches!(
                err,
                HsmError::Tape(TapeError::LibraryOffline { library }) if library == LibraryId(0)
            ),
            "{err:?}"
        );
    }

    /// A replica write whose drive dies between mount and write re-places
    /// inside its own library: never onto an avoided volume, never onto
    /// (or over) the agent's sticky volume.
    #[test]
    fn replica_store_re_places_within_its_library_after_a_drive_failure() {
        use copra_faults::FaultPlan;
        use copra_simtime::SimDuration;
        let cluster = FtaCluster::new(1);
        let fleet = TapeFleet::new(2, 2, 4, TapeTiming::lto4(), Registry::new());
        let server = TsmServer::roadrunner(fleet);
        let agent = StorageAgent::new(NodeId(0), cluster, server.clone());
        let (_, t1) = put(&agent, 8, 20 << 20, SimInstant::EPOCH, DataPath::LanFree);
        let sticky = agent.shared.state.lock().current;
        assert!(sticky.is_some());
        // Drive 2 (library 1's first) dies after the replica's mount
        // request but before its write lands.
        let lib = server.library().clone();
        let plan = FaultPlan::new(11).fail_drive(2, t1 + SimDuration::from_secs(1));
        lib.arm_faults(plan.arm(lib.obs().clone()));
        let avoid = [TapeId(4)];
        let volume = Volume::InLibrary {
            lib: LibraryId(1),
            avoid: &avoid,
        };
        let content = Content::synthetic(8, 20 << 20);
        let (replica, t2) = agent
            .store("/f8", 8, content.clone(), t1, DataPath::LanFree, volume)
            .unwrap();
        assert!(
            lib.is_fenced(DriveId(2)).unwrap(),
            "the write hit the dead drive"
        );
        let tape = server.get(replica).unwrap().addr.tape;
        assert_eq!(lib.library_of_tape(tape), Some(LibraryId(1)));
        assert!(!avoid.contains(&tape), "landed on avoided {tape}");
        assert_eq!(agent.shared.state.lock().current, sticky);
        let (back, _) = agent.fetch_exact(replica, t2, DataPath::LanFree).unwrap();
        assert!(back.eq_content(&content));
    }

    #[test]
    fn fetch_unknown_object_errors() {
        let (cluster, server) = setup(1, 1, 1);
        let agent = StorageAgent::new(NodeId(0), cluster, server);
        assert!(matches!(
            agent.fetch(999, SimInstant::EPOCH, DataPath::LanFree),
            Err(HsmError::NoSuchObject(999))
        ));
    }
}
