//! File-level HSM: migrate / recall against the archive file system, and
//! the per-node recall daemons with their assignment policies (§6.2).

use crate::agent::{DataPath, StorageAgent, Volume};
use crate::error::{HsmError, HsmResult};
use crate::server::TsmServer;
use copra_cluster::{FtaCluster, NodeId};
use copra_journal::{IntentKind, Journal};
use copra_obs::{Counter, EventKind};
use copra_pfs::{HsmState, Pfs};
use copra_simtime::{DataSize, SimInstant};
use copra_tape::{LibraryId, TapeError, TapeId};
use copra_trace::{finish_opt, SpanContext, Tracer};
use copra_vfs::Ino;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Where a migrated file's tape objects land across the fleet's
/// libraries — the replication layer's one policy knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// One tape object per file (the historical single-library behaviour).
    Single,
    /// `copies` total replicas per file (primary included). Replica *i*
    /// is steered to library `(primary_lib + i) mod N`, so every replica
    /// of an object sits in a different library when the fleet has one to
    /// spare — a whole-library outage then leaves a recallable copy.
    /// With a single library the replicas still land on distinct volumes
    /// (classic copy groups). A collocated migrate keeps its group's
    /// volume for the primary; its replicas follow the round-robin.
    Mirror { copies: u32 },
}

impl PlacementPolicy {
    /// Total replicas per object under this policy (>= 1).
    pub fn total_copies(self) -> u32 {
        match self {
            PlacementPolicy::Single => 1,
            PlacementPolicy::Mirror { copies } => copies.max(1),
        }
    }
}

/// How recall requests are assigned to the per-node recall daemons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecallPolicy {
    /// TSM's stock behaviour: requests land on whichever daemon is next
    /// (round-robin here). Files of one tape bounce between nodes, and
    /// every bounce rewinds the tape and re-verifies its label (§6.2).
    Scatter,
    /// The paper's proposed fix: all recalls for a given tape are handled
    /// by the same machine.
    TapeAffinity,
}

/// One recall request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecallRequest {
    pub ino: Ino,
}

/// Result of a batch recall.
#[derive(Debug, Clone)]
pub struct RecallOutcome {
    /// Per-file completion instants, in request order.
    pub completions: Vec<(Ino, SimInstant)>,
    /// When the whole batch drained.
    pub makespan: SimInstant,
}

/// Cached registry handles for HSM-level operations.
#[derive(Clone)]
struct HsmMetrics {
    migrate_ops: Arc<Counter>,
    recall_ops: Arc<Counter>,
    affinity_hits: Arc<Counter>,
    affinity_misses: Arc<Counter>,
    /// Replica objects written by the placement policy (beyond primaries).
    replica_writes: Arc<Counter>,
    /// Migrates that sealed with fewer replicas than the policy intended
    /// (target library offline / out of volumes) — re-silver's work-list.
    degraded_migrates: Arc<Counter>,
}

/// The HSM service for one archive file system.
#[derive(Clone)]
pub struct Hsm {
    pfs: Pfs,
    server: TsmServer,
    cluster: FtaCluster,
    agents: Vec<StorageAgent>,
    metrics: HsmMetrics,
    /// Write-ahead intent log for multi-store mutations (migrate,
    /// sync-delete, purge, reclaim). Shared with the core layer.
    journal: Arc<Journal>,
    /// Replica placement for migrates; scrub and re-silver measure
    /// under-replication against it too.
    placement: PlacementPolicy,
}

impl Hsm {
    /// One storage agent (and recall daemon) per cluster node, as in the
    /// paper's deployment, placing migrated objects per `placement`.
    pub fn new(
        pfs: Pfs,
        server: TsmServer,
        cluster: FtaCluster,
        placement: PlacementPolicy,
    ) -> Self {
        let agents = cluster
            .nodes()
            .map(|n| StorageAgent::new(n, cluster.clone(), server.clone()))
            .collect();
        let obs = server.obs();
        let metrics = HsmMetrics {
            migrate_ops: obs.counter("hsm.migrate_ops"),
            recall_ops: obs.counter("hsm.recall_ops"),
            affinity_hits: obs.counter("hsm.recall.affinity_hits"),
            affinity_misses: obs.counter("hsm.recall.affinity_misses"),
            replica_writes: obs.counter("replication.replica_writes"),
            degraded_migrates: obs.counter("replication.degraded_migrates"),
        };
        let journal = Journal::new(obs);
        Hsm {
            pfs,
            server,
            cluster,
            agents,
            metrics,
            journal,
            placement,
        }
    }

    /// The replica placement policy.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    pub fn pfs(&self) -> &Pfs {
        &self.pfs
    }

    /// The write-ahead intent log shared across the archive stack.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    pub fn server(&self) -> &TsmServer {
        &self.server
    }

    pub fn cluster(&self) -> &FtaCluster {
        &self.cluster
    }

    pub fn agent(&self, node: NodeId) -> &StorageAgent {
        &self.agents[node.0 as usize]
    }

    /// The obs registry's tracer (disabled unless the registry was built
    /// traced).
    pub(crate) fn tracer(&self) -> &Tracer {
        self.server.obs().tracer()
    }

    /// Migrate one file to tape via the agent on `node`: read from the
    /// archive pool, store as one TSM object, mark the file premigrated,
    /// and (optionally) punch the hole so only the stub remains.
    /// `collocate` steers the primary to that co-location group's volume
    /// (§4 feature list item 5); replicas follow the placement policy.
    ///
    /// One file = one tape transaction — precisely the §6.1 behaviour.
    /// Emits `hsm.migrate` keyed by ino with `hsm.pfs.read` /
    /// `hsm.agent.store` / `journal.intent.migrate-commit` children.
    pub fn migrate_file(
        &self,
        ino: Ino,
        node: NodeId,
        data_path: DataPath,
        ready: SimInstant,
        punch: bool,
        collocate: Option<&str>,
    ) -> HsmResult<(u64, SimInstant)> {
        let state = self.pfs.hsm_state(ino)?;
        match state {
            HsmState::Resident => {}
            HsmState::Premigrated => {
                // Tape copy already valid; optionally just punch.
                if punch {
                    self.pfs.punch_hole(ino)?;
                }
                let objid = self.pfs.hsm_objid(ino)?.ok_or(HsmError::NoSuchObject(0))?;
                return Ok((objid, ready));
            }
            HsmState::Migrated => {
                return Err(HsmError::WrongState {
                    ino: ino.0,
                    state: state.to_string(),
                    needed: "resident".to_string(),
                })
            }
        }
        let tracer = self.tracer();
        let guard = tracer.span(None, "hsm.migrate", ino.0, ready);
        let gctx = guard.as_ref().map(|g| g.ctx());
        let path = self.pfs.path_of(ino)?;
        let content = self.pfs.vfs().peek_content(ino)?;
        let len = DataSize::from_bytes(content.len());
        // Intent first: if we die anywhere below, recovery knows what was
        // in flight. The intent is sealed *before* the punch so that an
        // open MigrateCommit always still has its disk copy — rollback
        // never needs to un-punch.
        let extra = self.placement().total_copies() - 1;
        let seq = self.journal.begin_intent(
            IntentKind::MigrateCommit {
                ino: ino.0,
                path: path.clone(),
                objid: None,
                punch,
                replicas: Vec::new(),
                replica_target: extra,
            },
            ready,
            gctx,
        );
        self.server.crash_point("migrate.begin", ready)?;
        let w0 = tracer.wall_now_ns();
        let r = self.pfs.charge_read(ino, ready, len);
        tracer.record_closed(gctx, "hsm.pfs.read", ino.0, ready, r.end, w0);
        let w1 = tracer.wall_now_ns();
        let volume = collocate.map_or(Volume::Agent, Volume::Group);
        let (objid, t) =
            self.agent(node)
                .store(&path, ino.0, content.clone(), r.end, data_path, volume)?;
        tracer.record_closed(gctx, "hsm.agent.store", ino.0, r.end, t, w1);
        self.journal.annotate_objid(seq, objid);
        self.server.crash_point("migrate.after_store", t)?;
        // Replicated placement: fan the object out across the other
        // libraries before the namespace learns about the migrate. A
        // replica that cannot be written (library offline, no volumes)
        // degrades the migrate instead of failing it; re-silver repairs.
        let t = if extra > 0 {
            let (_, t) = self.write_replicas(
                ino,
                &path,
                &content,
                objid,
                node,
                data_path,
                t,
                extra,
                Some(seq),
                true,
            )?;
            t
        } else {
            t
        };
        self.pfs.mark_premigrated(ino, objid)?;
        self.server.crash_point("migrate.after_mark", t)?;
        self.journal.seal(seq, t);
        self.server.crash_point("migrate.after_seal", t)?;
        if punch {
            self.pfs.punch_hole(ino)?;
        }
        // Every effect is applied: a record kept past here would let a
        // later recovery re-punch the file after a recall.
        self.journal.resolve(seq);
        self.metrics.migrate_ops.inc();
        self.server.obs().event_with_span(
            t,
            EventKind::Migrate {
                bytes: len.as_bytes(),
            },
            gctx,
        );
        finish_opt(guard, t);
        Ok((objid, t))
    }

    /// Write up to `want` additional replicas of `primary` (an object of
    /// file `ino` whose image is `content`), registering each as a tape
    /// copy. Candidate libraries are walked round-robin from the
    /// primary's: each replica prefers a library not yet holding one, and
    /// a single-library fleet falls back to distinct volumes (classic
    /// copy groups). Offline or full libraries are skipped — the write
    /// *degrades* (fewer replicas than asked, `replication.degraded_migrates`
    /// counts it) rather than fails; re-silver restores the count later.
    ///
    /// `seq` (when journaled) collects each replica objid into the open
    /// `MigrateCommit`'s completion set; `from_disk` charges a pfs read
    /// per replica (the migrate path — re-silver sources from tape and
    /// charges its own fetch). Returns (replicas written, completion).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn write_replicas(
        &self,
        ino: Ino,
        path: &str,
        content: &copra_vfs::Content,
        primary: u64,
        node: NodeId,
        data_path: DataPath,
        ready: SimInstant,
        want: u32,
        seq: Option<u64>,
        from_disk: bool,
    ) -> HsmResult<(u32, SimInstant)> {
        let fleet = self.server.library().clone();
        let n = fleet.library_count() as u32;
        let pobj = self.server.get(primary)?;
        let plib = fleet.library_of_tape(pobj.addr.tape).map_or(0, |l| l.0);
        let mut used: Vec<TapeId> = vec![pobj.addr.tape];
        let mut occupied: Vec<u32> = if n > 1 { vec![plib] } else { Vec::new() };
        for c in self.server.copies_of(primary) {
            if let Ok(o) = self.server.get(c) {
                used.push(o.addr.tape);
                if let Some(l) = fleet.library_of_tape(o.addr.tape) {
                    occupied.push(l.0);
                }
            }
        }
        let len = DataSize::from_bytes(content.len());
        let mut cursor = ready;
        let mut written = 0u32;
        let mut degraded = false;
        for i in 0..want {
            let mut placed = false;
            for off in 0..n {
                let lib = LibraryId((plib + 1 + i + off) % n);
                // Prefer a library without a replica; once every library
                // holds one, distinct volumes are the only constraint.
                let all_taken = (0..n).all(|l| occupied.contains(&l));
                if occupied.contains(&lib.0) && !all_taken {
                    continue;
                }
                // Routing around an outage still observes it.
                if fleet.note_outage(lib, cursor) {
                    continue;
                }
                let t0 = if from_disk {
                    self.pfs.charge_read(ino, cursor, len).end
                } else {
                    cursor
                };
                let volume = Volume::InLibrary { lib, avoid: &used };
                match self
                    .agent(node)
                    .store(path, ino.0, content.clone(), t0, data_path, volume)
                {
                    Ok((copy, t)) => {
                        cursor = t;
                        if let Some(seq) = seq {
                            self.journal.annotate_replica(seq, copy);
                        }
                        self.server.register_copy(primary, copy);
                        self.metrics.replica_writes.inc();
                        if let Ok(o) = self.server.get(copy) {
                            used.push(o.addr.tape);
                        }
                        occupied.push(lib.0);
                        written += 1;
                        self.server
                            .crash_point("migrate.replica.after_store", cursor)?;
                        placed = true;
                        break;
                    }
                    Err(
                        HsmError::Tape(TapeError::LibraryOffline { .. })
                        | HsmError::OutOfVolumes { .. },
                    ) => continue,
                    Err(e) => return Err(e),
                }
            }
            if !placed {
                degraded = true;
            }
        }
        if degraded {
            self.metrics.degraded_migrates.inc();
            self.server.obs().event(
                cursor,
                EventKind::Marker {
                    label: format!("degraded-migrate ino={} written={written}/{want}", ino.0),
                },
            );
        }
        Ok((written, cursor))
    }

    /// Space-reclaim `tape` under a journaled intent: live objects are
    /// copied to other volumes and the source is freed. A crash mid-move
    /// leaves an open `Reclaim` intent; recovery's scrub drops whichever
    /// half-copied records diverge from the server DB. A finished reclaim
    /// resolves its own intent.
    pub fn reclaim_volume(
        &self,
        tape: TapeId,
        ready: SimInstant,
    ) -> HsmResult<crate::reclaim::ReclaimReport> {
        let seq = self
            .journal
            .begin_intent(IntentKind::Reclaim { tape: tape.0 }, ready, None);
        let report = crate::reclaim::reclaim_volume(&self.server, tape, ready)?;
        self.journal.seal(seq, report.end);
        self.journal.resolve(seq);
        Ok(report)
    }

    /// Recall one migrated file through the daemon on `node`: fetch from
    /// tape, write back into the archive pool, restore the stub. Emits
    /// `hsm.recall` keyed by ino under `parent` (a PFTool tape restore, a
    /// stager dispatch) with `hsm.agent.fetch` / `hsm.pfs.write` children.
    pub fn recall_file(
        &self,
        ino: Ino,
        node: NodeId,
        data_path: DataPath,
        ready: SimInstant,
        parent: Option<SpanContext>,
    ) -> HsmResult<SimInstant> {
        let file = self.pfs.residency(ino)?;
        let state = file.region.state;
        if state != HsmState::Migrated {
            return Err(HsmError::WrongState {
                ino: ino.0,
                state: state.to_string(),
                needed: "migrated".to_string(),
            });
        }
        let tracer = self.tracer();
        let guard = tracer.span(parent, "hsm.recall", ino.0, ready);
        let gctx = guard.as_ref().map(|g| g.ctx());
        let objid = file.region.objid.ok_or(HsmError::NoSuchObject(0))?;
        let w0 = tracer.wall_now_ns();
        let (content, t) = self.agent(node).fetch(objid, ready, data_path)?;
        tracer.record_closed(gctx, "hsm.agent.fetch", objid, ready, t, w0);
        let len = DataSize::from_bytes(content.len());
        let w1 = tracer.wall_now_ns();
        let w = self.pfs.pool(file.pool).charge_io(t, len);
        self.pfs.restore_stub(ino, content)?;
        tracer.record_closed(gctx, "hsm.pfs.write", ino.0, t, w.end, w1);
        self.metrics.recall_ops.inc();
        self.server.obs().event_with_span(
            w.end,
            EventKind::Recall {
                bytes: len.as_bytes(),
            },
            gctx,
        );
        finish_opt(guard, w.end);
        Ok(w.end)
    }

    /// Batch recall through the per-node daemons under an assignment
    /// policy. Requests are processed in the given order (PFTool sorts
    /// them into tape order *before* calling this — that separation is the
    /// paper's §4.2.5 design).
    pub fn recall_batch(
        &self,
        requests: &[RecallRequest],
        policy: RecallPolicy,
        data_path: DataPath,
        ready: SimInstant,
    ) -> HsmResult<RecallOutcome> {
        let nodes = self.cluster.node_count() as u32;
        // Resolve each request's tape up front (a metadata query).
        let mut resolved = Vec::with_capacity(requests.len());
        for req in requests {
            let objid = self
                .pfs
                .hsm_objid(req.ino)?
                .ok_or(HsmError::NoSuchObject(0))?;
            let obj = self.server.get(objid)?;
            resolved.push((req.ino, obj.addr.tape));
        }
        // Assign a node to each request.
        let assignments: Vec<NodeId> = match policy {
            RecallPolicy::Scatter => (0..resolved.len())
                .map(|i| NodeId(i as u32 % nodes))
                .collect(),
            RecallPolicy::TapeAffinity => {
                // Tape → node, round-robin over distinct tapes in first-
                // appearance order.
                let mut tape_to_node = rustc_hash::FxHashMap::default();
                let mut next = 0u32;
                resolved
                    .iter()
                    .map(|(_, tape)| {
                        *tape_to_node.entry(*tape).or_insert_with(|| {
                            let n = NodeId(next % nodes);
                            next += 1;
                            n
                        })
                    })
                    .collect()
            }
        };
        // Affinity accounting: a request is a *hit* when its tape's
        // previous request in this batch went to the same daemon (the tape
        // streams on without a hand-off), a *miss* when the tape changes
        // node or is seen for the first time.
        let obs = self.server.obs();
        let mut last_node: rustc_hash::FxHashMap<u32, NodeId> = rustc_hash::FxHashMap::default();
        for ((_, tape), node) in resolved.iter().zip(&assignments) {
            let hit = last_node.insert(tape.0, *node) == Some(*node);
            if hit {
                self.metrics.affinity_hits.inc();
            } else {
                self.metrics.affinity_misses.inc();
            }
            obs.event(
                ready,
                EventKind::RecallAssign {
                    tape: tape.to_string(),
                    node: node.0,
                    affinity_hit: hit,
                },
            );
        }
        let mut completions = Vec::with_capacity(resolved.len());
        let mut makespan = ready;
        for ((ino, _), node) in resolved.iter().zip(assignments) {
            let end = self.recall_file(*ino, node, data_path, ready, None)?;
            completions.push((*ino, end));
            makespan = makespan.max(end);
        }
        Ok(RecallOutcome {
            completions,
            makespan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_obs::Registry;
    use copra_pfs::{PfsBuilder, PoolConfig, ReadOutcome};
    use copra_simtime::Clock;
    use copra_tape::{TapeFleet, TapeTiming};
    use copra_vfs::Content;

    fn setup(nodes: usize, drives: usize, tapes: usize) -> Hsm {
        let clock = Clock::new();
        let pfs = PfsBuilder::new("archive", clock)
            .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
            .pool(PoolConfig::external("tape"))
            .build();
        let cluster = FtaCluster::new(nodes);
        let server = TsmServer::roadrunner(TapeFleet::new(
            1,
            drives,
            tapes,
            TapeTiming::lto4(),
            Registry::new(),
        ));
        Hsm::new(pfs, server, cluster, PlacementPolicy::Single)
    }

    #[test]
    fn migrate_punch_recall_roundtrip() {
        let hsm = setup(2, 2, 4);
        let pfs = hsm.pfs().clone();
        pfs.mkdir_p("/proj").unwrap();
        let content = Content::synthetic(5, 100 << 20);
        let ino = pfs.create_file("/proj/f", 0, content.clone()).unwrap();

        let (objid, t1) = hsm
            .migrate_file(
                ino,
                NodeId(0),
                DataPath::LanFree,
                SimInstant::EPOCH,
                true,
                None,
            )
            .unwrap();
        assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Migrated);
        assert!(hsm.server().contains(objid));
        assert!(matches!(
            pfs.read(ino, 0, 1).unwrap(),
            ReadOutcome::NeedsRecall { .. }
        ));

        let t2 = hsm
            .recall_file(ino, NodeId(1), DataPath::LanFree, t1, None)
            .unwrap();
        assert!(t2 > t1);
        assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Premigrated);
        match pfs.read(ino, 0, content.len()).unwrap() {
            ReadOutcome::Data(c) => assert!(c.eq_content(&content)),
            other => panic!("expected data after recall: {other:?}"),
        }
    }

    #[test]
    fn migrate_premigrated_just_punches() {
        let hsm = setup(1, 1, 2);
        let pfs = hsm.pfs().clone();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 1 << 20))
            .unwrap();
        let (objid, t) = hsm
            .migrate_file(
                ino,
                NodeId(0),
                DataPath::LanFree,
                SimInstant::EPOCH,
                false,
                None,
            )
            .unwrap();
        assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Premigrated);
        let (objid2, t2) = hsm
            .migrate_file(ino, NodeId(0), DataPath::LanFree, t, true, None)
            .unwrap();
        assert_eq!(objid, objid2);
        assert_eq!(t2, t, "no new tape transaction");
        assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Migrated);
        assert_eq!(hsm.server().db_len(), 1);
    }

    #[test]
    fn recall_of_resident_file_is_rejected() {
        let hsm = setup(1, 1, 2);
        let ino = hsm
            .pfs()
            .create_file("/f", 0, Content::synthetic(1, 100))
            .unwrap();
        assert!(matches!(
            hsm.recall_file(ino, NodeId(0), DataPath::LanFree, SimInstant::EPOCH, None),
            Err(HsmError::WrongState { .. })
        ));
    }

    /// The §6.2 experiment in miniature: recalls of one tape scattered
    /// across nodes thrash (rewind + label verify per hand-off); affinity
    /// recalls stream.
    #[test]
    fn scatter_thrashes_affinity_streams() {
        let run = |policy: RecallPolicy| -> (SimInstant, u64) {
            let hsm = setup(4, 2, 4);
            let pfs = hsm.pfs().clone();
            let mut inos = Vec::new();
            let mut cursor = SimInstant::EPOCH;
            for i in 0..12u64 {
                let ino = pfs
                    .create_file(&format!("/f{i}"), 0, Content::synthetic(i, 200 << 20))
                    .unwrap();
                let (_, t) = hsm
                    .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
                    .unwrap();
                cursor = t;
                inos.push(ino);
            }
            let requests: Vec<RecallRequest> =
                inos.iter().map(|&ino| RecallRequest { ino }).collect();
            let out = hsm
                .recall_batch(&requests, policy, DataPath::LanFree, cursor)
                .unwrap();
            let handoffs = hsm.server().library().stats().totals.handoffs;
            (out.makespan, handoffs)
        };
        let (scatter_end, scatter_handoffs) = run(RecallPolicy::Scatter);
        let (affinity_end, affinity_handoffs) = run(RecallPolicy::TapeAffinity);
        assert!(
            scatter_handoffs >= 10,
            "scatter handoffs {scatter_handoffs}"
        );
        assert_eq!(affinity_handoffs, 0, "affinity should never hand off");
        assert!(
            scatter_end > affinity_end,
            "scatter {scatter_end} vs affinity {affinity_end}"
        );
    }

    /// §4 feature list item 5: a group's files land on one volume; a
    /// different group lands elsewhere; restoring a group touches one tape.
    #[test]
    fn collocation_groups_share_volumes() {
        let hsm = setup(2, 2, 8);
        let pfs = hsm.pfs().clone();
        let mut cursor = SimInstant::EPOCH;
        let mut by_group: std::collections::BTreeMap<&str, Vec<copra_vfs::Ino>> =
            Default::default();
        pfs.mkdir_p("/projA").unwrap();
        pfs.mkdir_p("/projB").unwrap();
        // Interleave two projects' migrations — the adversarial order.
        for i in 0..12u64 {
            let group = if i % 2 == 0 { "projA" } else { "projB" };
            let ino = pfs
                .create_file(
                    &format!("/{group}/f{i}"),
                    0,
                    Content::synthetic(i, 2_000_000),
                )
                .unwrap();
            let (_, t) = hsm
                .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, Some(group))
                .unwrap();
            cursor = t;
            by_group.entry(group).or_default().push(ino);
        }
        // Each group's objects sit on exactly one volume, and the two
        // groups' volumes differ.
        let mut group_tapes = Vec::new();
        for (group, inos) in &by_group {
            let tapes: std::collections::BTreeSet<u32> = inos
                .iter()
                .map(|ino| {
                    let objid = pfs.hsm_objid(*ino).unwrap().unwrap();
                    hsm.server().get(objid).unwrap().addr.tape.0
                })
                .collect();
            assert_eq!(tapes.len(), 1, "{group} scattered over {tapes:?}");
            group_tapes.push(*tapes.iter().next().unwrap());
        }
        assert_ne!(group_tapes[0], group_tapes[1]);
        assert_eq!(
            hsm.server().collocation_volume("projA").map(|t| t.0),
            Some(group_tapes[0])
        );
    }

    #[test]
    fn recall_batch_reports_per_file_completions() {
        let hsm = setup(2, 2, 4);
        let pfs = hsm.pfs().clone();
        let mut cursor = SimInstant::EPOCH;
        let mut inos = Vec::new();
        for i in 0..3u64 {
            let ino = pfs
                .create_file(&format!("/f{i}"), 0, Content::synthetic(i, 1 << 20))
                .unwrap();
            let (_, t) = hsm
                .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
                .unwrap();
            cursor = t;
            inos.push(ino);
        }
        let reqs: Vec<_> = inos.iter().map(|&ino| RecallRequest { ino }).collect();
        let out = hsm
            .recall_batch(&reqs, RecallPolicy::TapeAffinity, DataPath::LanFree, cursor)
            .unwrap();
        assert_eq!(out.completions.len(), 3);
        assert!(out.completions.iter().all(|(_, t)| *t <= out.makespan));
        assert!(inos
            .iter()
            .all(|&ino| pfs.hsm_state(ino).unwrap() == HsmState::Premigrated));
    }
}
