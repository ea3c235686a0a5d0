//! The PFTool execution engine: the MPI world of Figure 3.
//!
//! Rank layout: 0 = Manager, 1 = OutPutProc, 2 = WatchDog, then the
//! ReadDir processes, the Workers, and the TapeProc processes. Every
//! process except the Manager pulls work (`RequestWork`) and blocks for an
//! assignment; the Manager reacts to events, refills its queues, and
//! detects termination when every queue is empty and nothing is in flight.

use crate::config::PftoolConfig;
use crate::msg::{
    CompareJob, CopyJob, DstMode, FileMeta, MoveResult, PfMsg, StatRequest, StatResult, TapeJob,
};
use crate::queues::{ManagerQueues, TapeEntry, WorkerJob};
use crate::report::RunStats;
use crate::view::FsView;
use crate::watchdog::StallTracker;
use copra_cluster::NodeId;
use copra_faults::FaultPlane;
use copra_fuse::{ChunkInfo, FuseRead, XATTR_CHUNKED, XATTR_FPRINT, XATTR_LOGICAL};
use copra_mpirt::Comm;
use copra_obs::{Counter, EventKind, Gauge, Registry};
use copra_pfs::{HsmState, ReadOutcome};
use copra_simtime::{DataSize, SimInstant};
use copra_trace::{fnv64, SpanContext, Tracer};
use copra_vfs::{Content, FsResult, Ino};
use std::sync::Arc;
use std::time::Instant;

/// What a PFTool run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    List,
    Copy,
    Compare,
}

/// Result a rank returns from the world.
pub enum RankOutcome {
    /// Manager: the run report.
    Report(Box<(RunStats, Vec<String>)>),
    /// OutPutProc: the collected output lines.
    Output(Vec<String>),
    /// WatchDog: the progress history.
    Watch(Vec<crate::report::ProgressSample>),
    /// Everyone else.
    Unit,
}

/// Everything a run needs, bundled for the rank bodies.
pub struct Engine<'a> {
    pub config: &'a PftoolConfig,
    pub op: Op,
    pub src: &'a FsView,
    pub dst: Option<&'a FsView>,
    pub src_root: String,
    pub dst_root: Option<String>,
    /// Load-sorted machine list; rank r runs on `nodes[r % nodes.len()]`.
    pub nodes: Vec<NodeId>,
}

const MANAGER: usize = 0;
const OUTPUT: usize = 1;
const WATCHDOG: usize = 2;
const FIRST_READDIR: usize = 3;

impl Engine<'_> {
    fn first_worker(&self) -> usize {
        FIRST_READDIR + self.config.readdir_procs
    }

    fn first_tapeproc(&self) -> usize {
        self.first_worker() + self.config.workers
    }

    fn world_size(&self) -> usize {
        self.config.world_size()
    }

    fn node_of(&self, rank: usize) -> NodeId {
        self.nodes[rank % self.nodes.len()]
    }

    /// The shared metrics registry, when this run can reach one. Archive
    /// views expose the stack-wide registry through their HSM's server —
    /// on either side of the run (pfcp in has it on the destination,
    /// pfcp out on the source). Plain scratch-to-scratch runs have none
    /// and stay uninstrumented.
    pub fn obs(&self) -> Option<&Arc<Registry>> {
        self.src
            .hsm
            .as_ref()
            .or_else(|| self.dst.and_then(|d| d.hsm.as_ref()))
            .map(|h| h.server().obs())
    }

    /// The span tracer, read lazily off the registry (disabled when the
    /// run has no registry in reach, or none was armed).
    pub fn tracer(&self) -> Tracer {
        self.obs().map(|o| o.tracer()).unwrap_or_default()
    }

    /// The armed fault plane, when this run can reach one: the plane rides
    /// on the tape library, which archive views expose through their HSM.
    /// Scratch-to-scratch runs (and unarmed libraries) report `None` and
    /// every fault consult short-circuits.
    fn faults(&self) -> Option<Arc<FaultPlane>> {
        self.src
            .hsm
            .as_ref()
            .or_else(|| self.dst.and_then(|d| d.hsm.as_ref()))
            .and_then(|h| h.server().library().armed_faults())
    }

    /// Run the world and return (report, output lines).
    pub fn run(&self) -> (RunStats, Vec<String>) {
        self.config.validate();
        assert!(!self.nodes.is_empty(), "engine needs a machine list");
        let size = self.world_size();
        let results = copra_mpirt::run_with_results::<PfMsg, RankOutcome, _>(size, |comm| {
            let rank = comm.rank();
            if rank == MANAGER {
                self.manager(comm)
            } else if rank == OUTPUT {
                Self::output_proc(comm)
            } else if rank == WATCHDOG {
                self.watchdog(comm)
            } else if rank < self.first_worker() {
                self.readdir_loop(comm)
            } else if rank < self.first_tapeproc() {
                self.worker_loop(comm)
            } else {
                self.tapeproc_loop(comm)
            }
        });
        let mut report = None;
        let mut lines = Vec::new();
        let mut samples = Vec::new();
        for r in results {
            match r {
                RankOutcome::Report(b) => report = Some(*b),
                RankOutcome::Output(l) => lines = l,
                RankOutcome::Watch(s) => samples = s,
                RankOutcome::Unit => {}
            }
        }
        let (mut stats, mismatches) = report.expect("manager returns a report");
        let _ = mismatches;
        stats.progress_samples = samples;
        (stats, lines)
    }

    // ================= Manager =================

    fn manager(&self, comm: Comm<PfMsg>) -> RankOutcome {
        let t0 = Instant::now();
        let run_start = self.src.pfs.clock().now();
        let tracer = self.tracer();
        // One root span covers the whole run; every request, copy and tape
        // restore hangs below it (directly or via contexts carried in
        // protocol messages).
        let run_span = tracer.root("pftool.run", fnv64(self.src_root.as_bytes()), run_start);
        let run_ctx = run_span.as_ref().map(|g| g.ctx());
        let mut st = ManagerState {
            engine: self,
            comm,
            q: ManagerQueues::new(self.config.tape_ordering),
            idle_readdirs: Vec::new(),
            idle_workers: Vec::new(),
            idle_tapeprocs: Vec::new(),
            inflight_readdir: 0,
            inflight_stat: 0,
            inflight_move: 0,
            inflight_tape: 0,
            stats: RunStats {
                sim_start: run_start,
                sim_end: run_start,
                ..RunStats::default()
            },
            mismatch_lines: Vec::new(),
            aborted: false,
            pending_chunks: rustc_hash::FxHashMap::default(),
            tape_attempts: rustc_hash::FxHashMap::default(),
            pending: rustc_hash::FxHashMap::default(),
            steal_outstanding: rustc_hash::FxHashSet::default(),
            mobs: self.obs().map(|o| ManagerObs::new(o.clone())),
            tracer,
            run_ctx,
        };
        st.seed(run_start);
        st.sample_queues(true);
        st.event_loop();
        st.sample_queues(true);
        if let Some(g) = run_span {
            g.finish(st.stats.sim_end);
        }
        st.stats.wall_seconds = t0.elapsed().as_secs_f64();
        st.stats.aborted = st.aborted;
        // Mismatch paths ride in the output channel for pfcm.
        for m in &st.mismatch_lines {
            st.comm
                .send(OUTPUT, PfMsg::OutputLine(format!("MISMATCH {m}")));
        }
        for rank in 1..self.world_size() {
            st.comm.send(rank, PfMsg::Shutdown);
        }
        RankOutcome::Report(Box::new((st.stats, st.mismatch_lines)))
    }

    // ================= OutPutProc =================

    fn output_proc(comm: Comm<PfMsg>) -> RankOutcome {
        let mut lines = Vec::new();
        while let Some((_, msg)) = comm.recv() {
            match msg {
                PfMsg::OutputLine(l) => lines.push(l),
                PfMsg::Shutdown => break,
                _ => {}
            }
        }
        RankOutcome::Output(lines)
    }

    // ================= WatchDog =================

    fn watchdog(&self, comm: Comm<PfMsg>) -> RankOutcome {
        let start = Instant::now();
        let mut stall = StallTracker::new(self.config.watchdog_stall, start);
        let mut samples: Vec<crate::report::ProgressSample> = Vec::new();
        loop {
            match comm.recv_timeout(self.config.watchdog_interval) {
                Ok(Some((_, PfMsg::Progress { files, bytes }))) => {
                    stall.progress(Instant::now());
                    // Keep one sample per check interval, not per message.
                    let wall_secs = start.elapsed().as_secs_f64();
                    let due = samples
                        .last()
                        .map(|s| {
                            wall_secs - s.wall_secs >= self.config.watchdog_interval.as_secs_f64()
                        })
                        .unwrap_or(true);
                    if due {
                        samples.push(crate::report::ProgressSample {
                            wall_secs,
                            files,
                            bytes,
                        });
                    } else if let Some(last) = samples.last_mut() {
                        last.files = files;
                        last.bytes = bytes;
                    }
                }
                Ok(Some((_, PfMsg::WorkerDied { rank }))) => {
                    // A mover death is detected, not a hang: escalate to
                    // the Manager for re-dispatch, and treat the recovery
                    // as activity so the stall clock doesn't fire while
                    // the respawn is in flight.
                    stall.progress(Instant::now());
                    comm.send(MANAGER, PfMsg::WorkerDied { rank });
                }
                Ok(Some((_, PfMsg::Shutdown))) | Err(copra_mpirt::Disconnected) => break,
                Ok(Some(_)) => {}
                Ok(None) => {
                    if stall.check(Instant::now()) {
                        comm.send(MANAGER, PfMsg::Stalled);
                    }
                }
            }
        }
        RankOutcome::Watch(samples)
    }

    // ================= ReadDir =================

    fn readdir_loop(&self, comm: Comm<PfMsg>) -> RankOutcome {
        loop {
            comm.send(MANAGER, PfMsg::RequestWork);
            match comm.recv() {
                Some((_, PfMsg::ReadDirJob { path, ready })) => {
                    let msg = match self.expand_dir(&path) {
                        Ok((dirs, files, chunked)) => PfMsg::DirDone {
                            dirs,
                            files,
                            chunked,
                            ready,
                            err: None,
                        },
                        Err(e) => PfMsg::DirDone {
                            dirs: vec![],
                            files: vec![],
                            chunked: vec![],
                            ready,
                            err: Some(format!("{path}: {e}")),
                        },
                    };
                    comm.send(MANAGER, msg);
                }
                Some((_, PfMsg::Shutdown)) | None => break,
                Some((_, other)) => unreachable!("readdir got {other:?}"),
            }
        }
        RankOutcome::Unit
    }

    fn expand_dir(&self, path: &str) -> FsResult<(Vec<String>, Vec<String>, Vec<String>)> {
        let mut dirs = Vec::new();
        let mut files = Vec::new();
        let mut chunked = Vec::new();
        for entry in self.src.pfs.readdir(path)? {
            let full = copra_vfs::join(path, &entry.name);
            match entry.ftype {
                copra_vfs::FileType::Regular => files.push(full),
                copra_vfs::FileType::Directory => {
                    if self.src.is_chunked(&full) {
                        chunked.push(full);
                    } else {
                        dirs.push(full);
                    }
                }
            }
        }
        Ok((dirs, files, chunked))
    }

    // ================= Worker =================

    fn worker_loop(&self, comm: Comm<PfMsg>) -> RankOutcome {
        let node = self.node_of(comm.rank());
        let faults = self.faults();
        let tracer = self.tracer();
        // A mover process handles one data-movement job at a time: its
        // next job cannot start (in simulated time) before the previous
        // one finished. Stats are charged on the metadata service instead.
        let mut pipeline_free = SimInstant::EPOCH;
        'world: loop {
            comm.send(MANAGER, PfMsg::RequestWork);
            // A StealRequest can cross this rank's batch completion on the
            // wire: answer it empty (nothing left to steal) WITHOUT
            // re-requesting work — the RequestWork above is already in
            // flight and a second one would double-count this rank idle.
            let mut next = comm.recv();
            while let Some((_, PfMsg::StealRequest { .. })) = next {
                comm.send(MANAGER, PfMsg::Stolen { jobs: vec![] });
                next = comm.recv();
            }
            let Some((_, msg)) = next else { break };
            let batch_len = match &msg {
                PfMsg::StatBatch { jobs } => jobs.len(),
                PfMsg::MoveBatch { jobs } => jobs.len(),
                _ => 0,
            };
            // The context a crash would interrupt: the first entry of the
            // assignment just received.
            let batch_ctx = match &msg {
                PfMsg::StatBatch { jobs } => jobs.first().and_then(|j| j.ctx),
                PfMsg::MoveBatch { jobs } => jobs.first().and_then(|j| match j {
                    WorkerJob::Copy(c) => c.ctx,
                    WorkerJob::Compare(c) => c.ctx,
                }),
                _ => None,
            };
            if batch_len > 0 {
                // The crash fuse counts *jobs*, not messages, so a batch
                // burns one tick per entry — but always at receipt, before
                // anything executes: a death loses the whole assignment
                // and the Manager re-queues all of it.
                match self.mover_crash(&faults, &comm, batch_len, batch_ctx) {
                    Crash::No => {}
                    Crash::Respawned => {
                        // Fresh mover process: its pipeline starts empty.
                        pipeline_free = SimInstant::EPOCH;
                        continue;
                    }
                    Crash::Shutdown => break,
                }
            }
            match msg {
                PfMsg::StatBatch { jobs } => {
                    let mut results = Vec::with_capacity(jobs.len());
                    for j in jobs {
                        let w0 = tracer.wall_now_ns();
                        let ready = self.src.pfs.charge_meta(j.ready).end;
                        tracer.record_closed(
                            j.ctx,
                            "pftool.stat",
                            fnv64(j.path.as_bytes()),
                            j.ready,
                            ready,
                            w0,
                        );
                        results.push(match self.stat_file(&j.path, j.chunked) {
                            Ok(meta) => StatResult {
                                meta: Some(meta),
                                ready,
                                err: None,
                            },
                            Err(e) => StatResult {
                                meta: None,
                                ready,
                                err: Some(format!("{}: {e}", j.path)),
                            },
                        });
                    }
                    comm.send(MANAGER, PfMsg::StatBatchDone { results });
                }
                PfMsg::MoveBatch { mut jobs } => {
                    let mut results = Vec::with_capacity(jobs.len());
                    let mut i = 0usize;
                    while i < jobs.len() {
                        // Between entries, poll for a steal: surrender
                        // half of the un-started tail to a starving
                        // colleague. The batch is only ever shortened from
                        // the back, so `results` stays aligned with the
                        // front of the Manager's pending copy.
                        while let Some((_, m)) = comm.try_recv() {
                            match m {
                                PfMsg::StealRequest { ctx } => {
                                    let remaining = jobs.len() - i;
                                    let give = if remaining > 1 { remaining / 2 } else { 0 };
                                    let stolen = jobs.split_off(jobs.len() - give);
                                    if !stolen.is_empty() {
                                        let now = self.src.pfs.clock().now();
                                        tracer.record_closed(
                                            ctx,
                                            "pftool.surrender",
                                            comm.rank() as u64,
                                            now,
                                            now,
                                            None,
                                        );
                                    }
                                    comm.send(MANAGER, PfMsg::Stolen { jobs: stolen });
                                }
                                PfMsg::Shutdown => break 'world,
                                _ => {}
                            }
                        }
                        let job = jobs[i].clone();
                        results.push(self.exec_worker_job(job, node, &mut pipeline_free, &tracer));
                        i += 1;
                    }
                    comm.send(MANAGER, PfMsg::MoveBatchDone { results });
                }
                PfMsg::Shutdown => break,
                other => unreachable!("worker got {other:?}"),
            }
        }
        RankOutcome::Unit
    }

    /// Execute one entry of a move batch on this mover's serial pipeline.
    fn exec_worker_job(
        &self,
        job: WorkerJob,
        node: NodeId,
        pipeline_free: &mut SimInstant,
        tracer: &Tracer,
    ) -> MoveResult {
        match job {
            WorkerJob::Copy(mut job) => {
                job.ready = job.ready.max(*pipeline_free);
                // Child of the manager-side request the job carries — the
                // key is the destination identity, so a stolen or
                // re-dispatched job keeps the same span id.
                let guard = tracer.span(
                    job.ctx,
                    "pftool.copy",
                    fnv64(job.dst_path.as_bytes()) ^ job.dst_offset,
                    job.ready,
                );
                match self.exec_copy(&job, node) {
                    Ok(end) => {
                        copra_trace::finish_opt(guard, end);
                        *pipeline_free = end;
                        MoveResult::Copy {
                            bytes: job.len,
                            end,
                            err: None,
                        }
                    }
                    Err(e) => MoveResult::Copy {
                        bytes: 0,
                        end: job.ready,
                        err: Some(format!("{}: {e}", job.src_path)),
                    },
                }
            }
            WorkerJob::Compare(mut job) => {
                job.ready = job.ready.max(*pipeline_free);
                let guard = tracer.span(
                    job.ctx,
                    "pftool.compare",
                    fnv64(job.src_path.as_bytes()) ^ job.offset,
                    job.ready,
                );
                match self.exec_compare(&job, node) {
                    Ok((equal, end)) => {
                        copra_trace::finish_opt(guard, end);
                        *pipeline_free = end;
                        MoveResult::Compare {
                            path: job.src_path.clone(),
                            equal,
                            bytes: job.len,
                            end,
                            err: None,
                        }
                    }
                    Err(e) => MoveResult::Compare {
                        path: job.src_path.clone(),
                        equal: false,
                        bytes: 0,
                        end: job.ready,
                        err: Some(format!("{}: {e}", job.src_path)),
                    },
                }
            }
        }
    }

    /// Consult the fault plane for a scheduled mover crash on this rank,
    /// burning `jobs` ticks of the crash fuse (plans schedule crashes
    /// "after N jobs"; a vectored batch carries N of them at once). A
    /// crashing mover dies with the assignment it just received: it
    /// reports the death to the WatchDog and stays dead until the Manager
    /// answers with [`PfMsg::Respawn`]. Blocking here (instead of racing
    /// back with `RequestWork`) guarantees the Manager sees the death
    /// before this rank can hold a second assignment.
    fn mover_crash(
        &self,
        faults: &Option<Arc<FaultPlane>>,
        comm: &Comm<PfMsg>,
        jobs: usize,
        ctx: Option<SpanContext>,
    ) -> Crash {
        let Some(plane) = faults else {
            return Crash::No;
        };
        let now = self.src.pfs.clock().now();
        let rank = comm.rank() as u32;
        if !(0..jobs).any(|_| plane.take_mover_crash_in(rank, now, ctx)) {
            return Crash::No;
        }
        comm.send(WATCHDOG, PfMsg::WorkerDied { rank: comm.rank() });
        loop {
            match comm.recv() {
                Some((_, PfMsg::Respawn)) => return Crash::Respawned,
                Some((_, PfMsg::Shutdown)) | None => return Crash::Shutdown,
                Some(_) => {}
            }
        }
    }

    fn stat_file(&self, path: &str, chunked: bool) -> FsResult<FileMeta> {
        if chunked {
            let fuse = self.src.fuse.as_ref().expect("chunked stat without fuse");
            let attr = fuse.stat(path)?;
            // A chunked file is migrated only per-chunk; summarize: if any
            // chunk is a stub the logical file needs recall.
            let chunks = fuse.chunks(path)?;
            let hsm = if chunks.iter().any(|c| c.hsm == HsmState::Migrated) {
                HsmState::Migrated
            } else {
                HsmState::Resident
            };
            return Ok(FileMeta {
                path: path.to_string(),
                ino: attr.ino,
                size: attr.size,
                uid: attr.uid,
                mtime: attr.mtime,
                hsm,
                chunked: true,
            });
        }
        let attr = self.src.pfs.stat(path)?;
        let hsm = self.src.pfs.hsm_state(attr.ino)?;
        Ok(FileMeta {
            path: path.to_string(),
            ino: attr.ino,
            size: attr.size,
            uid: attr.uid,
            mtime: attr.mtime,
            hsm,
            chunked: false,
        })
    }

    fn exec_copy(&self, job: &CopyJob, node: NodeId) -> FsResult<SimInstant> {
        if let Some(d) = self.config.inject_copy_delay {
            std::thread::sleep(d);
        }
        let dst = self.dst.expect("copy without destination view");
        let src_ino = self.src.pfs.resolve(&job.src_path)?;
        let data = match self.src.pfs.read(src_ino, job.src_offset, job.len)? {
            ReadOutcome::Data(c) => c,
            ReadOutcome::NeedsRecall { .. } => {
                return Err(copra_vfs::FsError::PermissionDenied(format!(
                    "{} is migrated; manager should have routed it to tape",
                    job.src_path
                )))
            }
        };
        let len = DataSize::from_bytes(job.len);
        // Destination create/open metadata transaction, once per target
        // file (chunk jobs at non-zero offsets reuse the open file).
        let ready = if job.dst_offset == 0 {
            dst.pfs.charge_meta(job.ready).end
        } else {
            job.ready
        };
        let r1 = self.src.pfs.charge_read(src_ino, ready, len);
        let r2 = self.src.cluster.charge_network(node, r1.end, len);
        let end = match &job.dst_mode {
            DstMode::WriteAt => {
                let dst_ino = dst.pfs.resolve(&job.dst_path)?;
                dst.pfs.write_at(dst_ino, job.dst_offset, data)?;
                dst.pfs.charge_write(dst_ino, r2.end, len).end
            }
            DstMode::CreateChunk { uid } => {
                let fp = data.fingerprint();
                let dst_ino = dst.pfs.create_file(&job.dst_path, *uid, data)?;
                dst.pfs.set_xattr(dst_ino, XATTR_FPRINT, &fp.to_string())?;
                dst.pfs.charge_write(dst_ino, r2.end, len).end
            }
        };
        Ok(end)
    }

    fn read_logical(view: &FsView, path: &str, offset: u64, len: u64) -> FsResult<Content> {
        if let Some(fuse) = &view.fuse {
            if fuse.is_chunked(path)? {
                return match fuse.read_file(path)? {
                    FuseRead::Data(c) => Ok(c.slice(offset, len)),
                    FuseRead::NeedsRecall(_) => Err(copra_vfs::FsError::PermissionDenied(format!(
                        "{path} has migrated chunks; recall first"
                    ))),
                };
            }
        }
        let ino = view.pfs.resolve(path)?;
        match view.pfs.read(ino, offset, len)? {
            ReadOutcome::Data(c) => Ok(c),
            ReadOutcome::NeedsRecall { .. } => Err(copra_vfs::FsError::PermissionDenied(format!(
                "{path} is migrated; recall first"
            ))),
        }
    }

    fn exec_compare(&self, job: &CompareJob, node: NodeId) -> FsResult<(bool, SimInstant)> {
        let dst = self.dst.expect("compare without destination view");
        let a = Self::read_logical(self.src, &job.src_path, job.offset, job.len)?;
        let b = match Self::read_logical(dst, &job.dst_path, job.offset, job.len) {
            Ok(c) => c,
            Err(copra_vfs::FsError::NotFound(_)) => {
                return Ok((false, job.ready));
            }
            Err(e) => return Err(e),
        };
        let len = DataSize::from_bytes(job.len);
        // Both sides stream to the comparing node; the source side crosses
        // the trunk.
        let src_ino = self.src.pfs.resolve(&job.src_path).ok();
        let r1 = match src_ino {
            Some(ino) => self.src.pfs.charge_read(ino, job.ready, len),
            None => copra_simtime::Reservation {
                start: job.ready,
                end: job.ready,
            },
        };
        let r2 = self.src.cluster.charge_network(node, r1.end, len);
        let r3 = match dst.pfs.resolve(&job.dst_path).ok() {
            Some(ino) => dst.pfs.charge_read(ino, job.ready, len),
            None => r2,
        };
        let end = r2.end.max(r3.end);
        Ok((a.eq_content(&b), end))
    }

    // ================= TapeProc =================

    fn tapeproc_loop(&self, comm: Comm<PfMsg>) -> RankOutcome {
        let node = self.node_of(comm.rank());
        let faults = self.faults();
        loop {
            comm.send(MANAGER, PfMsg::RequestWork);
            match comm.recv() {
                Some((_, PfMsg::Tape(job))) => {
                    // One tape assignment = one fuse tick, as before
                    // batching: TapeJobs were always vectored.
                    match self.mover_crash(&faults, &comm, 1, job.ctx) {
                        Crash::No => {}
                        Crash::Respawned => continue,
                        Crash::Shutdown => break,
                    }
                    let msg = self.exec_tape(&job, node);
                    comm.send(MANAGER, msg);
                }
                Some((_, PfMsg::Shutdown)) | None => break,
                Some((_, other)) => unreachable!("tapeproc got {other:?}"),
            }
        }
        RankOutcome::Unit
    }

    fn exec_tape(&self, job: &TapeJob, node: NodeId) -> PfMsg {
        let Some(hsm) = &self.src.hsm else {
            return PfMsg::TapeDone {
                restored: vec![],
                failed: vec![],
                err: Some("no HSM on source view".to_string()),
            };
        };
        let tracer = self.tracer();
        let mut restored = Vec::with_capacity(job.files.len());
        let mut failed = Vec::new();
        let mut cursor = job.ready;
        for (path, ino, parent) in &job.files {
            let guard = tracer.span(job.ctx, "pftool.tape_restore", ino.0, cursor);
            let ctx = guard.as_ref().map(|g| g.ctx());
            match hsm.recall_file(*ino, node, self.config.data_path, cursor, ctx) {
                Ok(end) => {
                    copra_trace::finish_opt(guard, end);
                    restored.push((path.clone(), end, parent.clone()));
                    cursor = end;
                }
                // A failed entry does not sink the batch: the rest of the
                // tape keeps restoring and the Manager decides whether to
                // re-queue the stragglers.
                Err(e) => failed.push((path.clone(), *ino, parent.clone(), e.to_string())),
            }
        }
        PfMsg::TapeDone {
            restored,
            failed,
            err: None,
        }
    }
}

// ================= Manager state machine =================

/// Cached registry handles for the manager's telemetry: the four queue
/// depth gauges of Figure 3 plus worker busy/idle transition counters.
struct ManagerObs {
    dirq: Arc<Gauge>,
    nameq: Arc<Gauge>,
    copyq: Arc<Gauge>,
    tapecq: Arc<Gauge>,
    worker_busy: Arc<Counter>,
    worker_idle: Arc<Counter>,
    obs: Arc<Registry>,
    /// Wall-clock throttle so depth samples land on the WatchDog cadence
    /// rather than once per manager message.
    last_sample: Option<Instant>,
}

impl ManagerObs {
    fn new(obs: Arc<Registry>) -> Self {
        ManagerObs {
            dirq: obs.gauge("pftool.dirq_depth"),
            nameq: obs.gauge("pftool.nameq_depth"),
            copyq: obs.gauge("pftool.copyq_depth"),
            tapecq: obs.gauge("pftool.tapecq_depth"),
            worker_busy: obs.counter("pftool.worker_busy_transitions"),
            worker_idle: obs.counter("pftool.worker_idle_transitions"),
            obs,
            last_sample: None,
        }
    }
}

struct ManagerState<'e, 'a> {
    engine: &'e Engine<'a>,
    comm: Comm<PfMsg>,
    q: ManagerQueues,
    idle_readdirs: Vec<usize>,
    idle_workers: Vec<usize>,
    idle_tapeprocs: Vec<usize>,
    inflight_readdir: usize,
    inflight_stat: usize,
    inflight_move: usize,
    inflight_tape: usize,
    stats: RunStats,
    mismatch_lines: Vec<String>,
    aborted: bool,
    /// Logical fuse files waiting on chunk restores: path → (chunks left,
    /// latest restore end).
    pending_chunks: rustc_hash::FxHashMap<String, (usize, SimInstant)>,
    /// How many times a migrated file has been routed to tape (guards
    /// against re-queue loops when a restore keeps failing).
    tape_attempts: rustc_hash::FxHashMap<String, u32>,
    /// The single assignment each Worker/TapeProc rank currently holds,
    /// kept so a mover death re-queues exactly the lost work. One slot per
    /// rank suffices: a dead rank blocks until its Respawn, so it can
    /// never hold two assignments. A Move slot is truncated from the back
    /// as its rank surrenders stolen tail entries.
    pending: rustc_hash::FxHashMap<usize, PendingJob>,
    /// Worker ranks with an un-answered StealRequest: never ask the same
    /// victim twice before its Stolen reply, or the tail-length accounting
    /// would double-subtract.
    steal_outstanding: rustc_hash::FxHashSet<usize>,
    /// Telemetry handles; absent when the run has no registry in reach.
    mobs: Option<ManagerObs>,
    /// Span tracer (disabled unless armed) and the run root's context.
    tracer: Tracer,
    run_ctx: Option<SpanContext>,
}

/// What a Worker or TapeProc rank is currently executing, from the
/// Manager's point of view.
enum PendingJob {
    Stat(Vec<StatRequest>),
    Move(Vec<WorkerJob>),
    Tape { tape: u32, entries: Vec<TapeEntry> },
}

impl ManagerState<'_, '_> {
    fn seed(&mut self, run_start: SimInstant) {
        let eng = self.engine;
        let root = eng.src_root.clone();
        match eng.src.pfs.stat(&root) {
            Ok(attr) if attr.is_dir() => {
                if eng.src.is_chunked(&root) {
                    self.prepare_dst_parent(&root);
                    self.q.nameq.push_back(StatRequest {
                        path: root,
                        chunked: true,
                        ready: run_start,
                        ctx: self.run_ctx,
                    });
                } else {
                    if let (Op::Copy, Some(dst), Some(dst_root)) =
                        (eng.op, eng.dst, eng.dst_root.as_deref())
                    {
                        if let Err(e) = dst.pfs.mkdir_p(dst_root) {
                            self.record_error(dst_root.to_string(), e.to_string());
                        }
                    }
                    self.q.dirq.push_back((root, run_start));
                }
            }
            Ok(_) => {
                self.prepare_dst_parent(&root);
                self.q.nameq.push_back(StatRequest {
                    path: root,
                    chunked: false,
                    ready: run_start,
                    ctx: self.run_ctx,
                });
            }
            Err(e) => self.record_error(root, e.to_string()),
        }
    }

    /// For a single-file operation, make sure the destination's parent
    /// directory exists.
    fn prepare_dst_parent(&mut self, _src_path: &str) {
        if let (Op::Copy, Some(dst), Some(dst_root)) = (
            self.engine.op,
            self.engine.dst,
            self.engine.dst_root.as_deref(),
        ) {
            if let Ok((parent, _)) = copra_vfs::parent_and_name(dst_root) {
                if let Err(e) = dst.pfs.mkdir_p(&parent) {
                    self.record_error(parent, e.to_string());
                }
            }
        }
    }

    fn record_error(&mut self, path: String, msg: String) {
        self.stats.errors.push((path, msg));
    }

    /// Record the four queue depths — gauge samples plus one QueueSample
    /// event — on the WatchDog cadence. `force` bypasses the throttle so
    /// runs shorter than one interval still leave a start and end sample.
    fn sample_queues(&mut self, force: bool) {
        let interval = self.engine.config.watchdog_interval;
        let now = self.engine.src.pfs.clock().now();
        let Some(mo) = &mut self.mobs else { return };
        let due = force
            || mo
                .last_sample
                .map(|t| t.elapsed() >= interval)
                .unwrap_or(true);
        if !due {
            return;
        }
        mo.last_sample = Some(Instant::now());
        let (dirq, nameq, copyq, tapecq) = (
            self.q.dirq.len() as u32,
            self.q.nameq.len() as u32,
            self.q.copyq.len() as u32,
            self.q.tapecq.len() as u32,
        );
        mo.dirq.sample(now, dirq as i64);
        mo.nameq.sample(now, nameq as i64);
        mo.copyq.sample(now, copyq as i64);
        mo.tapecq.sample(now, tapecq as i64);
        mo.obs.event(
            now,
            EventKind::QueueSample {
                dirq,
                nameq,
                copyq,
                tapecq,
            },
        );
    }

    /// A worker rank picked up a job.
    fn note_worker_busy(&self, rank: usize) {
        let Some(mo) = &self.mobs else { return };
        mo.worker_busy.inc();
        let now = self.engine.src.pfs.clock().now();
        mo.obs
            .event(now, EventKind::WorkerBusy { rank: rank as u32 });
    }

    /// A worker rank came back asking for work.
    fn note_worker_idle(&self, rank: usize) {
        let Some(mo) = &self.mobs else { return };
        mo.worker_idle.inc();
        let now = self.engine.src.pfs.clock().now();
        mo.obs
            .event(now, EventKind::WorkerIdle { rank: rank as u32 });
    }

    fn rank_kind(&self, rank: usize) -> RankKind {
        if rank < self.engine.first_worker() {
            RankKind::ReadDir
        } else if rank < self.engine.first_tapeproc() {
            RankKind::Worker
        } else {
            RankKind::TapeProc
        }
    }

    fn done(&self) -> bool {
        self.q.all_empty()
            && self.inflight_readdir == 0
            && self.inflight_stat == 0
            && self.inflight_move == 0
            && self.inflight_tape == 0
    }

    fn discovery_done(&self) -> bool {
        self.q.dirq.is_empty()
            && self.q.nameq.is_empty()
            && self.inflight_readdir == 0
            && self.inflight_stat == 0
    }

    fn dispatch(&mut self) {
        self.sample_queues(false);
        // ReadDirs <- DirQ
        while !self.q.dirq.is_empty() && !self.idle_readdirs.is_empty() {
            let (path, ready) = self.q.dirq.pop_front().unwrap();
            let rank = self.idle_readdirs.pop().unwrap();
            self.comm.send(rank, PfMsg::ReadDirJob { path, ready });
            self.inflight_readdir += 1;
        }
        // Workers <- NameQ (stats) then CopyQ (movement), in vectored
        // batches: one channel send covers up to `batch_size` queue
        // entries instead of one send per file. The quota splits what is
        // queued across the currently idle workers so a burst does not all
        // land on the first rank.
        while !self.idle_workers.is_empty() {
            if !self.q.nameq.is_empty() {
                let n = self.batch_quota(self.q.nameq.len());
                let jobs: Vec<StatRequest> = self.q.nameq.drain(..n).collect();
                let rank = self.idle_workers.pop().unwrap();
                self.pending.insert(rank, PendingJob::Stat(jobs.clone()));
                self.inflight_stat += jobs.len();
                self.comm.send(rank, PfMsg::StatBatch { jobs });
                self.note_worker_busy(rank);
            } else if !self.q.copyq.is_empty() {
                let n = self.batch_quota(self.q.copyq.len());
                let jobs: Vec<WorkerJob> = self.q.copyq.drain(..n).collect();
                let rank = self.idle_workers.pop().unwrap();
                self.pending.insert(rank, PendingJob::Move(jobs.clone()));
                self.inflight_move += jobs.len();
                self.comm.send(rank, PfMsg::MoveBatch { jobs });
                self.note_worker_busy(rank);
            } else {
                break;
            }
        }
        self.maybe_steal();
        // TapeProcs <- TapeCQ, only once discovery has finished so each
        // tape's queue is fully "lined up" (§4.1.1 item g).
        if self.discovery_done() {
            while !self.q.tapecq.is_empty() && !self.idle_tapeprocs.is_empty() {
                let (tape, entries) = self.q.tapecq.pop_tape().unwrap();
                let rank = self.idle_tapeprocs.pop().unwrap();
                let ready = self.stats.sim_start;
                self.pending.insert(
                    rank,
                    PendingJob::Tape {
                        tape,
                        entries: entries.clone(),
                    },
                );
                let ctx = self.tracer.record_closed(
                    self.run_ctx,
                    "pftool.tape_batch",
                    tape as u64,
                    ready,
                    ready,
                    None,
                );
                self.comm.send(
                    rank,
                    PfMsg::Tape(TapeJob {
                        tape,
                        files: entries
                            .into_iter()
                            .map(|e| (e.path, e.ino, e.parent))
                            .collect(),
                        ready,
                        ctx,
                    }),
                );
                self.inflight_tape += 1;
            }
        }
    }

    /// How many queue entries to pack into the next vectored assignment.
    fn batch_quota(&self, queued: usize) -> usize {
        let idle = self.idle_workers.len().max(1);
        queued
            .div_ceil(idle)
            .min(self.engine.config.batch_size)
            .max(1)
    }

    /// Workers are starving while a colleague sits on a multi-entry move
    /// batch: ask the most loaded victim to surrender the un-started tail
    /// of its batch. At most one outstanding request per victim; the tie
    /// on batch length breaks by rank so the choice is deterministic.
    fn maybe_steal(&mut self) {
        if self.aborted
            || self.idle_workers.is_empty()
            || !self.q.nameq.is_empty()
            || !self.q.copyq.is_empty()
        {
            return;
        }
        let victim = self
            .pending
            .iter()
            .filter_map(|(rank, job)| match job {
                PendingJob::Move(batch) if batch.len() > 1 => Some((batch.len(), *rank)),
                _ => None,
            })
            .filter(|(_, rank)| !self.steal_outstanding.contains(rank))
            .max();
        if let Some((_, rank)) = victim {
            self.steal_outstanding.insert(rank);
            let now = self.engine.src.pfs.clock().now();
            let ctx = self.tracer.record_closed(
                self.run_ctx,
                "pftool.steal",
                rank as u64,
                now,
                now,
                None,
            );
            self.comm.send(rank, PfMsg::StealRequest { ctx });
        }
    }

    fn event_loop(&mut self) {
        loop {
            self.dispatch();
            if self.done() {
                // Everything drained; but only finish when all procs have
                // come back idle is unnecessary — queues and inflight are
                // the invariant.
                break;
            }
            let Some((from, msg)) = self.comm.recv() else {
                break;
            };
            self.handle(from, msg);
        }
    }

    fn handle(&mut self, from: usize, msg: PfMsg) {
        match msg {
            PfMsg::RequestWork => match self.rank_kind(from) {
                RankKind::ReadDir => self.idle_readdirs.push(from),
                RankKind::Worker => {
                    self.note_worker_idle(from);
                    self.idle_workers.push(from);
                }
                RankKind::TapeProc => self.idle_tapeprocs.push(from),
            },
            PfMsg::DirDone {
                dirs,
                files,
                chunked,
                ready,
                err,
            } => {
                self.inflight_readdir -= 1;
                if let Some(e) = err {
                    self.record_error(String::new(), e);
                }
                if !self.aborted {
                    self.stats.dirs += dirs.len() as u64;
                    for d in dirs {
                        // pfcp mirrors the directory structure as it walks.
                        if let (Op::Copy, Some(dst)) = (self.engine.op, self.engine.dst) {
                            if let Some(dp) = self.rebase(&d) {
                                if let Err(e) = dst.pfs.mkdir_p(&dp) {
                                    self.record_error(dp, e.to_string());
                                }
                            }
                        }
                        if self.engine.op == Op::List {
                            self.comm.send(OUTPUT, PfMsg::OutputLine(format!("d {d}")));
                        }
                        self.q.dirq.push_back((d, ready));
                    }
                    for f in files {
                        self.q.nameq.push_back(StatRequest {
                            path: f,
                            chunked: false,
                            ready,
                            ctx: self.run_ctx,
                        });
                    }
                    for c in chunked {
                        self.q.nameq.push_back(StatRequest {
                            path: c,
                            chunked: true,
                            ready,
                            ctx: self.run_ctx,
                        });
                    }
                }
                self.progress();
            }
            PfMsg::StatBatchDone { results } => {
                self.inflight_stat -= results.len();
                self.pending.remove(&from);
                for r in results {
                    if let Some(e) = r.err {
                        self.record_error(String::new(), e);
                    } else if let Some(meta) = r.meta {
                        if !self.aborted {
                            self.route(meta, r.ready);
                        }
                    }
                }
                self.progress();
            }
            PfMsg::MoveBatchDone { results } => {
                // Stolen tail entries were already subtracted when the
                // Stolen reply arrived (channel FIFO guarantees it sorts
                // before this message), so `results` covers exactly what
                // is still charged against this rank.
                self.inflight_move -= results.len();
                self.pending.remove(&from);
                for r in results {
                    match r {
                        MoveResult::Copy { bytes, end, err } => {
                            if let Some(e) = err {
                                self.record_error(String::new(), e);
                            } else {
                                self.stats.bytes += bytes;
                                self.stats.sim_end = self.stats.sim_end.max(end);
                            }
                        }
                        MoveResult::Compare {
                            path,
                            equal,
                            bytes,
                            end,
                            err,
                        } => match err {
                            Some(e) => self.record_error(path, e),
                            None => {
                                self.stats.bytes += bytes;
                                self.stats.sim_end = self.stats.sim_end.max(end);
                                if !equal {
                                    self.mismatch_lines.push(path);
                                }
                            }
                        },
                    }
                }
                self.progress();
            }
            PfMsg::Stolen { jobs } => {
                self.steal_outstanding.remove(&from);
                if !jobs.is_empty() {
                    self.inflight_move -= jobs.len();
                    self.stats.stolen_jobs += jobs.len() as u64;
                    // The victim surrendered its batch tail: shorten the
                    // pending copy the same way so a later death of that
                    // rank re-queues only what it still holds.
                    if let Some(PendingJob::Move(batch)) = self.pending.get_mut(&from) {
                        let keep = batch.len() - jobs.len();
                        batch.truncate(keep);
                    }
                    if !self.aborted {
                        self.q.copyq.extend(jobs);
                    }
                }
            }
            PfMsg::TapeDone {
                restored,
                failed,
                err,
            } => {
                self.inflight_tape -= 1;
                self.pending.remove(&from);
                if let Some(e) = err {
                    self.record_error(String::new(), e);
                }
                if !self.aborted {
                    for (path, ino, parent, emsg) in failed {
                        self.requeue_failed_restore(path, ino, parent, emsg);
                    }
                    for (path, end, parent) in restored {
                        self.stats.tape_restores += 1;
                        self.stats.sim_end = self.stats.sim_end.max(end);
                        match parent {
                            // The restored file is readable now; re-stat it
                            // so it flows into the copy queue ("additional
                            // restored tape file copy request", §4.1.1 j).
                            None => self.q.nameq.push_back(StatRequest {
                                path,
                                chunked: false,
                                ready: end,
                                ctx: self.run_ctx,
                            }),
                            // A fuse chunk: re-queue the logical file only
                            // when its last chunk is back.
                            Some(logical) => {
                                let entry = self
                                    .pending_chunks
                                    .entry(logical.clone())
                                    .or_insert((0, end));
                                entry.0 = entry.0.saturating_sub(1);
                                entry.1 = entry.1.max(end);
                                if entry.0 == 0 {
                                    let ready = entry.1;
                                    self.pending_chunks.remove(&logical);
                                    self.q.nameq.push_back(StatRequest {
                                        path: logical,
                                        chunked: true,
                                        ready,
                                        ctx: self.run_ctx,
                                    });
                                }
                            }
                        }
                    }
                }
                self.progress();
            }
            PfMsg::Stalled => {
                // WatchDog says the run is stuck: drop queued work and
                // finish once in-flight jobs return (§4.1.1 WatchDog (c)).
                self.aborted = true;
                self.q.dirq.clear();
                self.q.nameq.clear();
                self.q.copyq.clear();
                while self.q.tapecq.pop_tape().is_some() {}
            }
            PfMsg::WorkerDied { rank } => self.worker_died(rank),
            other => unreachable!("manager got {other:?}"),
        }
    }

    /// A mover rank died (relayed by the WatchDog). Its single in-flight
    /// assignment died with it: re-queue that work at the back of the
    /// right queue, fix the in-flight accounting, and tell the rank its
    /// daemon has been restarted.
    fn worker_died(&mut self, rank: usize) {
        let now = self.engine.src.pfs.clock().now();
        let mut requeued = 0u64;
        match self.pending.remove(&rank) {
            Some(PendingJob::Stat(jobs)) => {
                self.inflight_stat -= jobs.len();
                if !self.aborted {
                    requeued = jobs.len() as u64;
                    self.q.nameq.extend(jobs);
                }
            }
            Some(PendingJob::Move(batch)) => {
                self.inflight_move -= batch.len();
                if !self.aborted {
                    requeued = batch.len() as u64;
                    self.q.copyq.extend(batch);
                }
            }
            Some(PendingJob::Tape { tape, entries }) => {
                self.inflight_tape -= 1;
                if !self.aborted {
                    requeued = entries.len() as u64;
                    for e in entries {
                        self.q.tapecq.push(tape, e);
                    }
                }
            }
            None => {}
        }
        // A dead rank never answers a StealRequest (its crash wait-loop
        // swallows it); clear the flag or stealing stays wedged.
        self.steal_outstanding.remove(&rank);
        if let Some(plane) = self.engine.faults() {
            plane.note_redispatch_in("worker-death", requeued, now, self.run_ctx);
        }
        self.comm.send(rank, PfMsg::Respawn);
        self.progress();
    }

    /// One file in a tape batch failed to restore. Charge it against the
    /// file's attempt budget and either line it back up on its tape's
    /// queue or give up with a per-file error.
    fn requeue_failed_restore(
        &mut self,
        path: String,
        ino: Ino,
        parent: Option<String>,
        emsg: String,
    ) {
        let attempts = self.tape_attempts.entry(path.clone()).or_insert(0);
        *attempts += 1;
        if *attempts > 3 {
            // A permanently failed chunk also releases its logical file's
            // pending slot so the run can still finish (partially, with
            // the error on record).
            if let Some(logical) = &parent {
                if let Some(slot) = self.pending_chunks.get_mut(logical) {
                    slot.0 = slot.0.saturating_sub(1);
                    if slot.0 == 0 {
                        self.pending_chunks.remove(logical);
                    }
                }
            }
            self.record_error(path, format!("restore keeps failing; giving up: {emsg}"));
            return;
        }
        match self.tape_address_of(ino) {
            Ok((tape, seq)) => self.q.tapecq.push(
                tape,
                TapeEntry {
                    seq,
                    path,
                    ino,
                    parent,
                },
            ),
            Err(e) => self.record_error(path, e),
        }
    }

    fn progress(&mut self) {
        self.comm.send(
            WATCHDOG,
            PfMsg::Progress {
                files: self.stats.files,
                bytes: self.stats.bytes,
            },
        );
    }

    fn rebase(&self, src_path: &str) -> Option<String> {
        copra_vfs::rebase(
            src_path,
            &self.engine.src_root,
            self.engine.dst_root.as_deref()?,
        )
    }

    /// Per-file request span, recorded at routing time and keyed by the
    /// source path: every copy, compare and re-dispatch of this file's
    /// work parents under it, so the file stays attributable across
    /// tail-stealing and mover respawns.
    fn request_ctx(&self, path: &str, ready: SimInstant) -> Option<SpanContext> {
        self.tracer.record_closed(
            self.run_ctx,
            "pftool.request",
            fnv64(path.as_bytes()),
            ready,
            ready,
            None,
        )
    }

    /// Decide what to do with one stated file.
    fn route(&mut self, meta: FileMeta, ready: SimInstant) {
        match self.engine.op {
            Op::List => {
                self.stats.files += 1;
                self.stats.bytes += meta.size;
                self.stats.sim_end = self.stats.sim_end.max(ready);
                let tag = if meta.chunked { "F" } else { "f" };
                self.comm.send(
                    OUTPUT,
                    PfMsg::OutputLine(format!(
                        "{tag} {} {} uid={} {}",
                        meta.path, meta.size, meta.uid, meta.hsm
                    )),
                );
            }
            Op::Copy => self.route_copy(meta, ready),
            Op::Compare => self.route_compare(meta, ready),
        }
    }

    fn route_copy(&mut self, meta: FileMeta, ready: SimInstant) {
        let eng = self.engine;
        let dst = eng.dst.expect("copy without dst");
        let Some(dst_path) = self.rebase(&meta.path) else {
            self.record_error(meta.path, "outside source root".to_string());
            return;
        };
        let req = self.request_ctx(&meta.path, ready);
        // Migrated source files go to the tape queues first.
        if meta.hsm == HsmState::Migrated && !meta.chunked {
            if eng.config.tape_procs == 0 {
                self.record_error(
                    meta.path,
                    "file is migrated to tape but run has no TapeProcs".to_string(),
                );
                return;
            }
            let attempts = self.tape_attempts.entry(meta.path.clone()).or_insert(0);
            *attempts += 1;
            if *attempts > 3 {
                self.record_error(meta.path, "restore keeps failing; giving up".to_string());
                return;
            }
            match self.tape_address_of(meta.ino) {
                Ok((tape, seq)) => {
                    self.q.tapecq.push(
                        tape,
                        TapeEntry {
                            seq,
                            path: meta.path,
                            ino: meta.ino,
                            parent: None,
                        },
                    );
                }
                Err(e) => self.record_error(meta.path, e),
            }
            return;
        }
        if meta.chunked && meta.hsm == HsmState::Migrated {
            // Chunked file with migrated chunks: queue each migrated chunk
            // for restore; the logical file is re-queued (via
            // `pending_chunks`) once its last chunk lands.
            let _ = ready;
            if eng.config.tape_procs == 0 {
                self.record_error(
                    meta.path,
                    "chunked file has migrated chunks but run has no TapeProcs".to_string(),
                );
                return;
            }
            let attempts = self.tape_attempts.entry(meta.path.clone()).or_insert(0);
            *attempts += 1;
            if *attempts > 3 {
                self.record_error(
                    meta.path,
                    "chunk restores keep failing; giving up".to_string(),
                );
                return;
            }
            let fuse = eng.src.fuse.as_ref().expect("chunked without fuse");
            match fuse.chunks(&meta.path) {
                Ok(chunks) => {
                    let mut queued = 0usize;
                    for c in chunks {
                        if c.hsm == HsmState::Migrated {
                            match self.tape_address_of(c.ino) {
                                Ok((tape, seq)) => {
                                    self.q.tapecq.push(
                                        tape,
                                        TapeEntry {
                                            seq,
                                            path: c.path,
                                            ino: c.ino,
                                            parent: Some(meta.path.clone()),
                                        },
                                    );
                                    queued += 1;
                                }
                                Err(e) => self.record_error(c.path, e),
                            }
                        }
                    }
                    if queued > 0 {
                        let slot = self
                            .pending_chunks
                            .entry(meta.path.clone())
                            .or_insert((0, self.stats.sim_start));
                        slot.0 += queued;
                    }
                }
                Err(e) => self.record_error(meta.path, e.to_string()),
            }
            return;
        }

        self.stats.files += 1;

        let use_fuse_dst = dst
            .fuse
            .as_ref()
            .map(|f| meta.size as u128 >= f.threshold().as_bytes() as u128)
            .unwrap_or(false);

        if use_fuse_dst {
            self.route_copy_fuse_dst(&meta, &dst_path, ready, req);
            return;
        }

        // Plain destination. Restart: skip an up-to-date file (§4.5's
        // date-based heuristic for regular files).
        if eng.config.restart {
            if let Ok(dattr) = dst.pfs.stat(&dst_path) {
                if dattr.size == meta.size && dattr.mtime >= meta.mtime {
                    self.stats.skipped_files += 1;
                    self.stats.skipped_bytes += meta.size;
                    return;
                }
            }
        }
        // Pre-create (or reset) the destination file.
        let created = if dst.pfs.exists(&dst_path) {
            dst.pfs
                .resolve(&dst_path)
                .and_then(|ino| dst.pfs.truncate(ino, 0).map(|_| ino))
        } else {
            dst.pfs
                .create_file_with_hint(&dst_path, meta.uid, Content::empty(), meta.size)
        };
        if let Err(e) = created {
            self.record_error(dst_path, e.to_string());
            return;
        }
        if meta.size == 0 {
            // nothing to move; creation already happened
            return;
        }
        if meta.chunked {
            // Physical source chunks each become one job writing at their
            // logical offset.
            let fuse = eng.src.fuse.as_ref().expect("chunked without fuse");
            match fuse.chunks(&meta.path) {
                Ok(chunks) => {
                    let mut off = 0u64;
                    for c in chunks {
                        self.q.copyq.push_back(WorkerJob::Copy(CopyJob {
                            src_path: c.path,
                            src_offset: 0,
                            len: c.len,
                            dst_path: dst_path.clone(),
                            dst_offset: off,
                            dst_mode: DstMode::WriteAt,
                            ready,
                            ctx: req,
                        }));
                        off += c.len;
                    }
                }
                Err(e) => self.record_error(meta.path, e.to_string()),
            }
            return;
        }
        let threshold = eng.config.parallel_copy_threshold.as_bytes();
        if meta.size >= threshold {
            // N-to-1 chunked parallel copy (§4.1.2-3).
            let chunk = eng.config.copy_chunk.as_bytes();
            let mut off = 0u64;
            while off < meta.size {
                let len = chunk.min(meta.size - off);
                self.q.copyq.push_back(WorkerJob::Copy(CopyJob {
                    src_path: meta.path.clone(),
                    src_offset: off,
                    len,
                    dst_path: dst_path.clone(),
                    dst_offset: off,
                    dst_mode: DstMode::WriteAt,
                    ready,
                    ctx: req,
                }));
                off += len;
            }
        } else {
            self.q.copyq.push_back(WorkerJob::Copy(CopyJob {
                src_path: meta.path,
                src_offset: 0,
                len: meta.size,
                dst_path,
                dst_offset: 0,
                dst_mode: DstMode::WriteAt,
                ready,
                ctx: req,
            }));
        }
    }

    /// Very large file into a fuse-chunked destination: N-to-N (§4.1.2-4),
    /// with chunk-level restart marking (§4.5).
    fn route_copy_fuse_dst(
        &mut self,
        meta: &FileMeta,
        dst_path: &str,
        ready: SimInstant,
        req: Option<SpanContext>,
    ) {
        let eng = self.engine;
        let dst = eng.dst.expect("copy without dst");
        let fuse = dst.fuse.as_ref().expect("checked by caller");
        let chunk_size = fuse.chunk_size().as_bytes();

        // Build the source manifest: (src physical path, src offset, len,
        // fingerprint) per destination chunk.
        let mut manifest: Vec<(String, u64, u64, u64)> = Vec::new();
        if meta.chunked {
            let sfuse = eng.src.fuse.as_ref().expect("chunked without fuse");
            match sfuse.chunks(&meta.path) {
                Ok(chunks) => {
                    for c in chunks {
                        manifest.push((c.path, 0, c.len, c.fingerprint));
                    }
                }
                Err(e) => {
                    self.record_error(meta.path.clone(), e.to_string());
                    return;
                }
            }
        } else {
            let Ok(ino) = eng.src.pfs.resolve(&meta.path) else {
                self.record_error(meta.path.clone(), "vanished during walk".to_string());
                return;
            };
            let Ok(content) = eng.src.pfs.vfs().peek_content(ino) else {
                self.record_error(meta.path.clone(), "unreadable".to_string());
                return;
            };
            let mut off = 0u64;
            while off < meta.size {
                let len = chunk_size.min(meta.size - off);
                let fp = content.slice(off, len).fingerprint();
                manifest.push((meta.path.clone(), off, len, fp));
                off += len;
            }
        }

        // Restart: which destination chunks are stale?
        let stale: Vec<u32> = if eng.config.restart {
            let source_infos: Vec<ChunkInfo> = manifest
                .iter()
                .enumerate()
                .map(|(i, (_, _, len, fp))| ChunkInfo {
                    index: i as u32,
                    path: String::new(),
                    ino: Ino(0),
                    len: *len,
                    fingerprint: *fp,
                    hsm: HsmState::Resident,
                })
                .collect();
            match fuse.stale_chunks(dst_path, &source_infos) {
                Ok(s) => s,
                Err(e) => {
                    self.record_error(dst_path.to_string(), e.to_string());
                    return;
                }
            }
        } else {
            (0..manifest.len() as u32).collect()
        };

        // Materialize the chunk-dir shell.
        let shell = (|| -> FsResult<()> {
            let dino = fuse.pfs().mkdir_p(dst_path)?;
            fuse.pfs().vfs().chown(dino, meta.uid)?;
            fuse.pfs().set_xattr(dino, XATTR_CHUNKED, "1")?;
            fuse.pfs()
                .set_xattr(dino, XATTR_LOGICAL, &meta.size.to_string())
        })();
        if let Err(e) = shell {
            self.record_error(dst_path.to_string(), e.to_string());
            return;
        }

        let stale_set: std::collections::HashSet<u32> = stale.iter().copied().collect();
        for (i, (src_path, src_off, len, _)) in manifest.iter().enumerate() {
            let idx = i as u32;
            let chunk_path = copra_vfs::join(dst_path, &format!("chunk.{idx:05}"));
            if !stale_set.contains(&idx) {
                self.stats.skipped_bytes += len;
                continue;
            }
            // A stale chunk that exists must be replaced.
            if fuse.pfs().exists(&chunk_path) {
                if let Err(e) = fuse.pfs().unlink(&chunk_path) {
                    self.record_error(chunk_path.clone(), e.to_string());
                    continue;
                }
            }
            self.q.copyq.push_back(WorkerJob::Copy(CopyJob {
                src_path: src_path.clone(),
                src_offset: *src_off,
                len: *len,
                dst_path: chunk_path,
                dst_offset: 0,
                dst_mode: DstMode::CreateChunk { uid: meta.uid },
                ready,
                ctx: req,
            }));
        }
        if stale.is_empty() {
            self.stats.skipped_files += 1;
        }
    }

    fn route_compare(&mut self, meta: FileMeta, ready: SimInstant) {
        let Some(dst_path) = self.rebase(&meta.path) else {
            self.record_error(meta.path, "outside source root".to_string());
            return;
        };
        let req = self.request_ctx(&meta.path, ready);
        self.stats.files += 1;
        if meta.hsm == HsmState::Migrated {
            self.record_error(
                meta.path,
                "migrated to tape; recall before comparing".to_string(),
            );
            return;
        }
        let threshold = self.engine.config.parallel_copy_threshold.as_bytes();
        if meta.size >= threshold && !meta.chunked {
            let chunk = self.engine.config.copy_chunk.as_bytes();
            let mut off = 0u64;
            while off < meta.size {
                let len = chunk.min(meta.size - off);
                self.q.copyq.push_back(WorkerJob::Compare(CompareJob {
                    src_path: meta.path.clone(),
                    dst_path: dst_path.clone(),
                    offset: off,
                    len,
                    ready,
                    ctx: req,
                }));
                off += len;
            }
        } else {
            self.q.copyq.push_back(WorkerJob::Compare(CompareJob {
                src_path: meta.path,
                dst_path,
                offset: 0,
                len: meta.size,
                ready,
                ctx: req,
            }));
        }
    }

    /// Resolve a migrated file to its (tape, seq) via the indexed catalog
    /// (§4.2.5), falling back to the live server DB.
    fn tape_address_of(&self, ino: Ino) -> Result<(u32, u32), String> {
        let eng = self.engine;
        let objid = eng
            .src
            .pfs
            .hsm_objid(ino)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "stub without hsm.objid".to_string())?;
        if let Some(catalog) = &eng.src.catalog {
            if let Some(row) = catalog.lookup(objid) {
                return Ok((row.tape, row.seq));
            }
        }
        if let Some(hsm) = &eng.src.hsm {
            if let Ok(obj) = hsm.server().get(objid) {
                return Ok((obj.addr.tape.0, obj.addr.seq));
            }
        }
        Err(format!("object {objid} not in catalog or server DB"))
    }
}

enum RankKind {
    ReadDir,
    Worker,
    TapeProc,
}

/// Outcome of a scheduled mover-crash consult.
enum Crash {
    /// No crash scheduled for this rank right now.
    No,
    /// The mover died with its assignment and the Manager restarted it;
    /// the lost work was re-queued on the Manager side.
    Respawned,
    /// The world shut down while the dead mover waited for its restart.
    Shutdown,
}
