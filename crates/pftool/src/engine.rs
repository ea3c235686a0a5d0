//! The PFTool execution engine: Figure 3's ranks on one simulated-time
//! loop.
//!
//! Rank layout: 0 = Manager, 1 = OutPutProc, 2 = WatchDog, then the
//! ReadDir processes, the Workers, and the TapeProc processes (fault plans
//! name mover ranks by these numbers). The Manager owns the four queues
//! and simulated time. It gives one queue entry at a time to the idle rank
//! of the right kind that is free earliest in simulated time (ties to the
//! lowest rank), runs that rank's job in place, and commits completions in
//! (simulated end, rank) order. No decision depends on host scheduling, so
//! a run's simulated results are a pure function of its configuration and
//! the state of the system it runs against.
//!
//! Only a Worker's copies and compares occupy it in simulated time: each
//! starts once the previous one finished. Stats are charged on the
//! metadata service from the moment they are ready, directory listings
//! cost nothing, and every tape batch starts at the run's start (the
//! drives and the tape library serialize the restores).
//!
//! Queue entries carry the inode the directory listing (or the tape
//! restore) found, and a listed file is its name plus a directory record
//! the whole listing shares. That record holds the destination
//! directory's inode: pfcp gets it from the `mkdir` that mirrors the
//! directory, pfcm from one lookup per directory. So a plain file is
//! stated, read and compared by inode, and its destination is created or
//! looked up by (directory inode, name): no path is joined, rebased or
//! resolved per file. Spans are keyed by inode and offset. A path is built
//! only for output lines, errors, the fuse overlay (which reads chunked
//! files by logical path) and the root of a single-file run.

use crate::config::PftoolConfig;
use crate::queues::{
    CompareJob, CompareSide, CopyJob, DstMode, Entry, FileMeta, ManagerQueues, StatRequest,
    TapeEntry, WalkDir, WorkerJob,
};
use crate::report::RunStats;
use crate::view::FsView;
use crate::watchdog::WatchDog;
use copra_cluster::NodeId;
use copra_faults::FaultPlane;
use copra_fuse::{ChunkInfo, FuseRead};
use copra_hsm::DataPath;
use copra_obs::{Counter, EventKind, Gauge, Registry};
use copra_pfs::{HsmState, ReadOutcome};
use copra_simtime::{DataSize, SimDuration, SimInstant};
use copra_trace::{fnv64, SpanContext, Tracer};
use copra_vfs::{ChunkMark, Content, FileType, FsError, FsResult, Ino, InodeAttr};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// What a PFTool run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    List,
    Copy,
    Compare,
}

/// Everything a run needs.
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

const FIRST_READDIR: usize = 3;

/// An assignment the Manager gives to one rank.
enum Job {
    ReadDir {
        dir: Arc<WalkDir>,
        ready: SimInstant,
    },
    Stat(StatRequest),
    Move(WorkerJob),
    /// One whole tape's restore queue (the TapeCQ binding that prevents
    /// §6.2 thrashing).
    Tape {
        tape: u32,
        entries: Vec<TapeEntry>,
        ctx: Option<SpanContext>,
    },
}

/// The sub-directories (by source path) of one directory, then its plain
/// files and fuse-chunked files by name, with the inodes the listing
/// found.
type Listing = (Vec<String>, Vec<(String, Ino)>, Vec<(String, Ino)>);

/// What a rank reports when its assignment completes.
enum Outcome {
    Dir(Arc<WalkDir>, Result<Listing, String>),
    Stat(Result<FileMeta, String>),
    /// Bytes copied.
    Copy(Result<u64, String>),
    /// Source inode, and (contents equal, bytes compared).
    Compare(Ino, Result<(bool, u64), String>),
    Tape {
        /// Each restored entry with its restore end.
        restored: Vec<(TapeEntry, SimInstant)>,
        /// Entries whose restore failed, with the error.
        failed: Vec<(TapeEntry, String)>,
    },
}

impl Engine<'_> {
    fn readdirs(&self) -> Range<usize> {
        FIRST_READDIR..FIRST_READDIR + self.config.readdir_procs
    }

    fn workers(&self) -> Range<usize> {
        let first = self.readdirs().end;
        first..first + self.config.workers
    }

    fn tapeprocs(&self) -> Range<usize> {
        let first = self.workers().end;
        first..first + self.config.tape_procs
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

    /// The span tracer of the registry in reach (disabled when the run
    /// has none, or it was built untraced).
    pub fn tracer(&self) -> Tracer {
        self.obs().map(|o| o.tracer().clone()).unwrap_or_default()
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

    /// Run the job and return (report, output lines). For `pfcm` the output
    /// lines are the mismatching source paths.
    pub fn run(&self) -> (RunStats, Vec<String>) {
        self.config.validate();
        assert!(!self.nodes.is_empty(), "engine needs a machine list");
        let t0 = Instant::now();
        let run_start = self.src.pfs.clock().now();
        let tracer = self.tracer();
        // One root span covers the whole run; every request, copy and tape
        // restore hangs below it (directly or via contexts carried in the
        // queued jobs). It is keyed by (op, source root): a pfcm of a tree
        // just copied gets its own span, a restarted run overlays its first.
        let key = fnv64(self.src_root.as_bytes()) ^ (self.op as u64).rotate_left(48);
        let run_span = tracer.root("pftool.run", key, run_start);
        let world = self.config.world_size();
        let mut m = Manager {
            engine: self,
            q: ManagerQueues::new(self.config.tape_ordering),
            free: vec![run_start; world],
            held: (0..world).map(|_| None).collect(),
            completions: BinaryHeap::new(),
            restores: BinaryHeap::new(),
            now: run_start,
            committing: None,
            stats: RunStats {
                sim_start: run_start,
                sim_end: run_start,
                ..RunStats::default()
            },
            lines: Vec::new(),
            mismatched: rustc_hash::FxHashSet::default(),
            watchdog: WatchDog::new(self.config, run_start),
            aborted: false,
            pending_chunks: rustc_hash::FxHashMap::default(),
            tape_attempts: rustc_hash::FxHashMap::default(),
            faults: self.faults(),
            mobs: self.obs().map(|o| ManagerObs::new(o.clone())),
            run_ctx: run_span.as_ref().map(|g| g.ctx()),
            tracer,
        };
        m.seed(run_start);
        m.event_loop();
        if let Some(g) = run_span {
            g.finish(m.stats.sim_end);
        }
        m.stats.aborted = m.aborted;
        m.stats.progress_samples = m.watchdog.into_samples();
        m.stats.wall_seconds = t0.elapsed().as_secs_f64();
        (m.stats, m.lines)
    }

    // ================= ReadDir =================

    fn expand_dir(&self, path: &str) -> FsResult<Listing> {
        let mut dirs = Vec::new();
        let mut files = Vec::new();
        let mut chunked = Vec::new();
        for entry in self.src.pfs.readdir(path)? {
            match entry.ftype {
                FileType::Regular => files.push((entry.name, entry.ino)),
                FileType::Directory => {
                    let full = copra_vfs::join(path, &entry.name);
                    if self.src.is_chunked(&full) {
                        chunked.push((entry.name, entry.ino));
                    } else {
                        dirs.push(full);
                    }
                }
            }
        }
        Ok((dirs, files, chunked))
    }

    /// The path of source inode `ino`, built for an output line or error.
    fn src_path(&self, ino: Ino) -> String {
        self.src
            .pfs
            .path_of(ino)
            .unwrap_or_else(|_| ino.to_string())
    }

    // ================= Worker =================

    fn exec_stat(&self, job: StatRequest, tracer: &Tracer) -> (SimInstant, Outcome) {
        let w0 = tracer.wall_now_ns();
        let end = self.src.pfs.charge_meta(job.ready).end;
        tracer.record_closed(job.ctx, "pftool.stat", job.ino.0, job.ready, end, w0);
        (end, Outcome::Stat(self.stat_file(job)))
    }

    /// Execute one CopyQ entry on a mover's serial pipeline: the job
    /// starts once the pipeline is free, and a success occupies it until
    /// the job's end.
    fn exec_move(
        &self,
        job: WorkerJob,
        node: NodeId,
        pipeline_free: &mut SimInstant,
        tracer: &Tracer,
    ) -> (SimInstant, Outcome) {
        match job {
            WorkerJob::Copy(mut job) => {
                job.ready = job.ready.max(*pipeline_free);
                // Child of the manager-side request the job carries. Within
                // one file's request the source (inode, offset) tells the
                // jobs apart, and a re-queued job keeps the same span id.
                let key = job.src_ino.0 ^ job.src_offset;
                let guard = tracer.span(job.ctx, "pftool.copy", key, job.ready);
                match self.exec_copy(&job, node) {
                    Ok(end) => {
                        copra_trace::finish_opt(guard, end);
                        *pipeline_free = end;
                        (end, Outcome::Copy(Ok(job.len)))
                    }
                    Err(e) => {
                        let err = format!("{}: {e}", self.src_path(job.src_ino));
                        (job.ready, Outcome::Copy(Err(err)))
                    }
                }
            }
            WorkerJob::Compare(mut job) => {
                job.ready = job.ready.max(*pipeline_free);
                let key = job.src.ino.0 ^ job.offset;
                let guard = tracer.span(job.ctx, "pftool.compare", key, job.ready);
                match self.exec_compare(&job, node) {
                    Ok((equal, bytes, end)) => {
                        copra_trace::finish_opt(guard, end);
                        *pipeline_free = end;
                        (end, Outcome::Compare(job.src.ino, Ok((equal, bytes))))
                    }
                    Err(e) => {
                        let err = format!("{}: {e}", self.src_path(job.src.ino));
                        (job.ready, Outcome::Compare(job.src.ino, Err(err)))
                    }
                }
            }
        }
    }

    /// Stat one NameQ entry: a plain file by its inode, a fuse-chunked
    /// file through the overlay by path.
    fn stat_file(&self, job: StatRequest) -> Result<FileMeta, String> {
        let stated = if job.chunked {
            self.stat_chunked(&job.file.path())
        } else {
            let attr = self.src.pfs.stat_ino(job.ino);
            attr.map(|attr| (attr.region.state, attr))
        };
        let (hsm, attr) = stated.map_err(|e| format!("{}: {e}", job.file.path()))?;
        Ok(FileMeta {
            file: job.file,
            ino: attr.ino,
            size: attr.size,
            uid: attr.uid,
            mtime: attr.mtime,
            hsm,
            chunked: job.chunked,
        })
    }

    fn stat_chunked(&self, path: &str) -> FsResult<(HsmState, InodeAttr)> {
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
        Ok((hsm, attr))
    }

    fn exec_copy(&self, job: &CopyJob, node: NodeId) -> FsResult<SimInstant> {
        let dst = self.dst.expect("copy without destination view");
        let data = match self.src.pfs.read(job.src_ino, job.src_offset, job.len)? {
            ReadOutcome::Data(c) => c,
            ReadOutcome::NeedsRecall { .. } => {
                return Err(FsError::PermissionDenied(format!(
                    "{} is migrated; manager should have routed it to tape",
                    self.src_path(job.src_ino)
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
        let r1 = self.src.pfs.charge_read(job.src_ino, ready, len);
        let r2 = self.src.cluster.charge_network(node, r1.end, len);
        let end = match job.dst_mode {
            DstMode::WriteAt { ino } => {
                dst.pfs.write_at(ino, job.dst_offset, data)?;
                dst.pfs.charge_write(ino, r2.end, len).end
            }
            DstMode::CreateChunk {
                uid,
                ref dir,
                index,
            } => {
                let fuse = dst.fuse.as_ref().expect("chunk copy without fuse");
                let dst_ino = fuse.create_chunk(dir, index, uid, data)?;
                dst.pfs.charge_write(dst_ino, r2.end, len).end
            }
        };
        Ok(end)
    }

    /// The side of a comparison found at `ino`: a fuse-chunked file is
    /// read through the overlay at `path`, a plain file by inode.
    fn compare_side(
        view: &FsView,
        ino: Ino,
        path: impl FnOnce() -> String,
    ) -> FsResult<CompareSide> {
        let chunked = view.fuse.is_some()
            && view.pfs.vfs().inspect(ino, |v| {
                v.ftype == FileType::Directory
                    && matches!(v.chunk_mark, Some(ChunkMark::Dir { .. }))
            })?;
        Ok(CompareSide {
            ino,
            fuse_path: chunked.then(path),
        })
    }

    fn read_side(view: &FsView, side: &CompareSide, offset: u64, len: u64) -> FsResult<Content> {
        if let Some(path) = &side.fuse_path {
            let fuse = view.fuse.as_ref().expect("chunked side without fuse");
            return match fuse.read_file(path)? {
                FuseRead::Data(c) => Ok(c.slice(offset, len)),
                FuseRead::NeedsRecall(_) => Err(FsError::PermissionDenied(format!(
                    "{path} has migrated chunks; recall first"
                ))),
            };
        }
        match view.pfs.read(side.ino, offset, len)? {
            ReadOutcome::Data(c) => Ok(c),
            ReadOutcome::NeedsRecall { .. } => {
                let path = view.pfs.path_of(side.ino)?;
                Err(FsError::PermissionDenied(format!(
                    "{path} is migrated; recall first"
                )))
            }
        }
    }

    /// Compare one piece: (equal, bytes compared, end). A missing
    /// destination compares no bytes.
    fn exec_compare(&self, job: &CompareJob, node: NodeId) -> FsResult<(bool, u64, SimInstant)> {
        let dst = self.dst.expect("compare without destination view");
        let a = Self::read_side(self.src, &job.src, job.offset, job.len)?;
        let Some(dst_side) = &job.dst else {
            return Ok((false, 0, job.ready));
        };
        let b = Self::read_side(dst, dst_side, job.offset, job.len)?;
        let len = DataSize::from_bytes(job.len);
        // Both sides stream to the comparing node; the source side crosses
        // the trunk.
        let r1 = self.src.pfs.charge_read(job.src.ino, job.ready, len);
        let r2 = self.src.cluster.charge_network(node, r1.end, len);
        let r3 = dst.pfs.charge_read(dst_side.ino, job.ready, len);
        let end = r2.end.max(r3.end);
        Ok((a.eq_content(&b), job.len, end))
    }

    // ================= TapeProc =================

    /// Restore one tape's queue front to back from `start` on, over the
    /// mover's SAN path (LAN-free).
    fn exec_tape(
        &self,
        entries: Vec<TapeEntry>,
        ctx: Option<SpanContext>,
        node: NodeId,
        start: SimInstant,
        tracer: &Tracer,
    ) -> (SimInstant, Outcome) {
        let mut restored = Vec::with_capacity(entries.len());
        let mut failed = Vec::new();
        let mut cursor = start;
        for e in entries {
            let Some(hsm) = &self.src.hsm else {
                failed.push((e, "no HSM on source view".to_string()));
                continue;
            };
            let guard = tracer.span(ctx, "pftool.tape_restore", e.ino.0, cursor);
            let span = guard.as_ref().map(|g| g.ctx());
            match hsm.recall_file(e.ino, node, DataPath::LanFree, cursor, span) {
                Ok(end) => {
                    copra_trace::finish_opt(guard, end);
                    restored.push((e, end));
                    cursor = end;
                }
                // A failed entry does not sink the batch: the rest of the
                // tape keeps restoring and the Manager decides whether to
                // re-queue the stragglers.
                Err(err) => failed.push((e, err.to_string())),
            }
        }
        (cursor, Outcome::Tape { restored, failed })
    }
}

// ================= Manager =================

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
    /// Simulated instant of the last depth sample, so samples land on the
    /// WatchDog cadence rather than once per completion.
    last_sample: Option<SimInstant>,
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

struct Manager<'e, 'a> {
    engine: &'e Engine<'a>,
    q: ManagerQueues,
    /// Per rank: the simulated instant its pipeline is free again (moved
    /// only by a Worker's copies and compares).
    free: Vec<SimInstant>,
    /// Per rank: the outcome of the assignment it holds; `None` = idle.
    held: Vec<Option<Outcome>>,
    /// Assignments in flight, earliest (end, rank) first. A rank holds at
    /// most one, so the commit order is total.
    completions: BinaryHeap<Reverse<(SimInstant, usize)>>,
    /// Restore end of every file in the tape batches in flight. A batch
    /// commits only at its end, so these reach the WatchDog on their own.
    restores: BinaryHeap<Reverse<SimInstant>>,
    /// The latest committed completion: the loop's simulated present.
    now: SimInstant,
    /// The Worker whose completion is being committed: handing it its
    /// next job straight away is not an idle-to-busy transition.
    committing: Option<usize>,
    stats: RunStats,
    /// OutPutProc: the run's output lines, in commit order.
    lines: Vec<String>,
    /// Source inodes pfcm has listed: a file compared in several pieces
    /// is listed once, however many of them differ.
    mismatched: rustc_hash::FxHashSet<Ino>,
    watchdog: WatchDog,
    aborted: bool,
    /// Logical fuse files waiting on chunk restores, by chunk-directory
    /// inode: (chunks left, latest restore end).
    pending_chunks: rustc_hash::FxHashMap<Ino, (usize, SimInstant)>,
    /// How many times a migrated file (or chunk) has been routed to tape,
    /// by inode (guards against re-queue loops when a restore keeps
    /// failing).
    tape_attempts: rustc_hash::FxHashMap<Ino, u32>,
    faults: Option<Arc<FaultPlane>>,
    /// Telemetry handles; absent when the run has no registry in reach.
    mobs: Option<ManagerObs>,
    /// Span tracer (disabled unless armed) and the run root's context.
    tracer: Tracer,
    run_ctx: Option<SpanContext>,
}

impl Manager<'_, '_> {
    fn seed(&mut self, run_start: SimInstant) {
        let eng = self.engine;
        let root = eng.src_root.clone();
        match eng.src.pfs.stat(&root) {
            Ok(attr) if attr.is_dir() && !eng.src.is_chunked(&root) => {
                let dst = eng.dst_root.as_deref().map(|r| self.dst_dir_at(r));
                let dir = WalkDir {
                    path: root,
                    dst,
                    dst_name: None,
                };
                self.q.dirq.push_back((Arc::new(dir), run_start));
            }
            // A single file, or one fuse-chunked file.
            Ok(attr) => {
                let file = self.single_file(&root);
                self.q.nameq.push_back(StatRequest {
                    file,
                    ino: attr.ino,
                    chunked: attr.is_dir(),
                    ready: run_start,
                    ctx: self.run_ctx,
                });
            }
            Err(e) => self.record_error(root, e.to_string()),
        }
    }

    /// The destination directory at `path`: pfcp makes it, recording a
    /// failure and keeping whatever already holds the path, so each entry
    /// below fails on its own; pfcm looks it up.
    fn dst_dir_at(&mut self, path: &str) -> FsResult<Ino> {
        let dst = self.engine.dst.expect("run has a destination");
        if self.engine.op == Op::Copy {
            match dst.pfs.mkdir_p(path) {
                Ok(ino) => return Ok(ino),
                Err(e) => self.record_error(path.to_string(), e.to_string()),
            }
        }
        dst.pfs.resolve(path)
    }

    /// The entry of a single-file run: the source file in its parent
    /// directory, which maps onto the parent of the destination path,
    /// under the destination path's last name.
    fn single_file(&mut self, root: &str) -> Entry {
        let (path, name) = copra_vfs::parent_and_name(root).expect("a file's path has a parent");
        let dst_root = self.engine.dst_root.as_deref();
        let (dst, dst_name) = match dst_root.map(copra_vfs::parent_and_name) {
            Some(Ok((parent, dst_name))) => (Some(self.dst_dir_at(&parent)), Some(dst_name)),
            Some(Err(e)) => (Some(Err(e)), None),
            None => (None, None),
        };
        let dir = WalkDir {
            path,
            dst,
            dst_name,
        };
        Entry {
            dir: Arc::new(dir),
            name,
        }
    }

    fn record_error(&mut self, path: String, msg: String) {
        self.stats.errors.push((path, msg));
    }

    /// Record the four queue depths — gauge samples plus one QueueSample
    /// event — on the WatchDog cadence. `force` bypasses the throttle so
    /// runs shorter than one interval still leave a start and end sample.
    fn sample_queues(&mut self, force: bool) {
        let now = self.now;
        let interval = self.engine.config.watchdog_interval.as_nanos() as u64;
        let Some(mo) = &mut self.mobs else { return };
        let due = force
            || mo
                .last_sample
                .map(|t| now.saturating_since(t) >= SimDuration::from_nanos(interval))
                .unwrap_or(true);
        if !due {
            return;
        }
        mo.last_sample = Some(now);
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

    /// A Worker went from idle to busy (`busy`) or back.
    fn note_worker(&self, rank: usize, busy: bool) {
        let Some(mo) = &self.mobs else { return };
        let rank = rank as u32;
        if busy {
            mo.worker_busy.inc();
            mo.obs.event(self.now, EventKind::WorkerBusy { rank });
        } else {
            mo.worker_idle.inc();
            mo.obs.event(self.now, EventKind::WorkerIdle { rank });
        }
    }

    /// Hand out queued work, then commit completions one at a time in
    /// (end, rank) order, handing out the work each one frees or creates,
    /// until nothing is queued or in flight.
    fn event_loop(&mut self) {
        self.sample_queues(true);
        self.dispatch();
        while let Some(Reverse((end, rank))) = self.completions.pop() {
            self.now = self.now.max(end);
            // Files restored up to `end` are progress even while their
            // tape batch is still in flight.
            while let Some(&Reverse(restored)) = self.restores.peek() {
                if restored > end {
                    break;
                }
                self.restores.pop();
                self.progress(restored);
            }
            let outcome = self.held[rank].take().expect("completion of an idle rank");
            self.commit(end, outcome);
            self.progress(end);
            self.committing = Some(rank);
            self.dispatch();
            self.committing = None;
            if self.engine.workers().contains(&rank) && self.held[rank].is_none() {
                self.note_worker(rank, false);
            }
        }
        self.sample_queues(true);
    }

    /// Report progress at `at` to the WatchDog; abort if it saw a stall.
    fn progress(&mut self, at: SimInstant) {
        if self
            .watchdog
            .progress(at, self.stats.files, self.stats.bytes)
        {
            self.abort();
        }
    }

    /// The WatchDog saw data movement stall: drop queued work and finish
    /// once in-flight jobs return (§4.1.1 WatchDog (c)).
    fn abort(&mut self) {
        self.aborted = true;
        self.q.dirq.clear();
        self.q.nameq.clear();
        self.q.copyq.clear();
        while self.q.tapecq.pop_tape().is_some() {}
    }

    /// The idle rank in `ranks` that is free earliest (ties to the lowest
    /// rank).
    fn earliest_idle(&self, ranks: Range<usize>) -> Option<usize> {
        ranks
            .filter(|&r| self.held[r].is_none())
            .min_by_key(|&r| (self.free[r], r))
    }

    fn discovery_done(&self) -> bool {
        self.q.dirq.is_empty()
            && self.q.nameq.is_empty()
            && !self
                .held
                .iter()
                .flatten()
                .any(|o| matches!(o, Outcome::Dir(..) | Outcome::Stat(_)))
    }

    fn dispatch(&mut self) {
        self.sample_queues(false);
        let eng = self.engine;
        // ReadDirs <- DirQ
        while !self.q.dirq.is_empty() {
            let Some(rank) = self.earliest_idle(eng.readdirs()) else {
                break;
            };
            let (dir, ready) = self.q.dirq.pop_front().unwrap();
            self.start(rank, Job::ReadDir { dir, ready });
        }
        // Workers <- NameQ (stats) first, then CopyQ (movement).
        while !self.q.nameq.is_empty() || !self.q.copyq.is_empty() {
            let Some(rank) = self.earliest_idle(eng.workers()) else {
                break;
            };
            let job = match self.q.nameq.pop_front() {
                Some(stat) => Job::Stat(stat),
                None => Job::Move(self.q.copyq.pop_front().unwrap()),
            };
            self.start(rank, job);
        }
        // TapeProcs <- TapeCQ, only once discovery has finished so each
        // tape's queue is fully "lined up" (§4.1.1 item g).
        while !self.q.tapecq.is_empty() && self.discovery_done() {
            let Some(rank) = self.earliest_idle(eng.tapeprocs()) else {
                break;
            };
            let (tape, entries) = self.q.tapecq.pop_tape().unwrap();
            let ready = self.stats.sim_start;
            let ctx = self.tracer.record_closed(
                self.run_ctx,
                "pftool.tape_batch",
                tape as u64,
                ready,
                ready,
                None,
            );
            self.start(rank, Job::Tape { tape, entries, ctx });
        }
    }

    /// Run `job` on idle `rank` in place and schedule its completion. A
    /// mover whose scheduled crash fires dies with the job instead: the
    /// job goes back on its queue (one crash-fuse tick per job) and the
    /// restarted rank is idle again, its pipeline empty.
    fn start(&mut self, rank: usize, job: Job) {
        let eng = self.engine;
        if self.mover_crashed(rank, &job) {
            self.free[rank] = self.stats.sim_start;
            self.requeue_lost(job);
            return;
        }
        if eng.workers().contains(&rank) && self.committing != Some(rank) {
            self.note_worker(rank, true);
        }
        let node = eng.node_of(rank);
        let (end, outcome) = match job {
            Job::ReadDir { dir, ready } => {
                let listing = eng
                    .expand_dir(&dir.path)
                    .map_err(|e| format!("{}: {e}", dir.path));
                (ready, Outcome::Dir(dir, listing))
            }
            Job::Stat(stat) => eng.exec_stat(stat, &self.tracer),
            Job::Move(job) => eng.exec_move(job, node, &mut self.free[rank], &self.tracer),
            Job::Tape { entries, ctx, .. } => {
                let start = self.stats.sim_start;
                let (end, outcome) = eng.exec_tape(entries, ctx, node, start, &self.tracer);
                if let Outcome::Tape { restored, .. } = &outcome {
                    self.restores
                        .extend(restored.iter().map(|&(_, end)| Reverse(end)));
                }
                (end, outcome)
            }
        };
        self.held[rank] = Some(outcome);
        self.completions.push(Reverse((end, rank)));
    }

    /// Consult the fault plane for a scheduled crash of mover `rank`
    /// (Workers and TapeProcs), burning one tick of its crash fuse.
    fn mover_crashed(&self, rank: usize, job: &Job) -> bool {
        let ctx = match job {
            Job::ReadDir { .. } => return false,
            Job::Stat(s) => s.ctx,
            Job::Move(WorkerJob::Copy(c)) => c.ctx,
            Job::Move(WorkerJob::Compare(c)) => c.ctx,
            Job::Tape { ctx, .. } => *ctx,
        };
        self.faults
            .as_ref()
            .is_some_and(|plane| plane.take_mover_crash_in(rank as u32, self.now, ctx))
    }

    /// A mover died holding `job`: put the lost work back at the tail of
    /// its queue.
    fn requeue_lost(&mut self, job: Job) {
        let requeued = match job {
            Job::ReadDir { .. } => unreachable!("ReadDir ranks do not crash"),
            Job::Stat(stat) => {
                self.q.nameq.push_back(stat);
                1
            }
            Job::Move(job) => {
                self.q.copyq.push_back(job);
                1
            }
            Job::Tape { tape, entries, .. } => {
                let n = entries.len() as u64;
                for e in entries {
                    self.q.tapecq.push(tape, e);
                }
                n
            }
        };
        if let Some(plane) = &self.faults {
            plane.note_redispatch_in("worker-death", requeued, self.now, self.run_ctx);
        }
    }

    /// Fold one completed assignment, ending at `end`, into the run.
    fn commit(&mut self, end: SimInstant, outcome: Outcome) {
        match outcome {
            Outcome::Dir(_, Err(e)) | Outcome::Stat(Err(e)) | Outcome::Copy(Err(e)) => {
                self.record_error(String::new(), e)
            }
            Outcome::Compare(src, Err(e)) => self.record_error(self.engine.src_path(src), e),
            Outcome::Dir(dir, Ok(listing)) => {
                if !self.aborted {
                    self.walked(&dir, listing, end);
                }
            }
            Outcome::Stat(Ok(meta)) => {
                if !self.aborted {
                    self.route(meta, end);
                }
            }
            Outcome::Copy(Ok(bytes)) => {
                self.stats.bytes += bytes;
                self.stats.sim_end = self.stats.sim_end.max(end);
            }
            Outcome::Compare(src, Ok((equal, bytes))) => {
                self.stats.bytes += bytes;
                self.stats.sim_end = self.stats.sim_end.max(end);
                if !equal && self.mismatched.insert(src) {
                    self.lines.push(self.engine.src_path(src));
                }
            }
            Outcome::Tape { restored, failed } => {
                if !self.aborted {
                    for (entry, emsg) in failed {
                        self.requeue_failed_restore(entry, emsg);
                    }
                    for (entry, end) in restored {
                        self.restored(entry, end);
                    }
                }
            }
        }
    }

    /// Queue what the listing of `dir` found.
    fn walked(&mut self, dir: &Arc<WalkDir>, listing: Listing, ready: SimInstant) {
        let (dirs, files, chunked) = listing;
        self.stats.dirs += dirs.len() as u64;
        for path in dirs {
            let dst = self.dst_dir(dir, &path);
            if self.engine.op == Op::List {
                self.lines.push(format!("d {path}"));
            }
            let sub = WalkDir {
                path,
                dst,
                dst_name: None,
            };
            self.q.dirq.push_back((Arc::new(sub), ready));
        }
        let stats = files
            .into_iter()
            .map(|f| (f, false))
            .chain(chunked.into_iter().map(|c| (c, true)));
        for ((name, ino), chunked) in stats {
            self.q.nameq.push_back(StatRequest {
                file: Entry {
                    dir: Arc::clone(dir),
                    name,
                },
                ino,
                chunked,
                ready,
                ctx: self.run_ctx,
            });
        }
    }

    /// The destination directory of `parent`'s sub-directory at source
    /// path `path`: pfcp mirrors it, pfcm looks it up once for every entry
    /// below it. A regular file holding the name stays the directory's
    /// inode, so each entry below it fails on its own.
    fn dst_dir(&mut self, parent: &WalkDir, path: &str) -> Option<FsResult<Ino>> {
        let eng = self.engine;
        let dst = eng.dst?;
        let name = &path[path.rfind('/').map_or(0, |i| i + 1)..];
        let found = match parent.dst.as_ref()? {
            Ok(p) if eng.op == Op::Copy => match dst.pfs.mkdir_in(*p, name) {
                Err(FsError::AlreadyExists(dst_path)) => {
                    let found = dst.pfs.lookup(*p, name);
                    if let Ok(ino) = found {
                        if matches!(dst.pfs.stat_ino(ino), Ok(a) if !a.is_dir()) {
                            let e = FsError::NotADirectory(dst_path.clone());
                            self.record_error(dst_path, e.to_string());
                        }
                    }
                    found
                }
                made => made,
            },
            Ok(p) => dst.pfs.lookup(*p, name),
            Err(e) => Err(e.clone()),
        };
        if let (Op::Copy, Err(e)) = (eng.op, &found) {
            self.record_error(self.rebased(path), e.to_string());
        }
        Some(found)
    }

    /// One file came back from tape at `end`.
    fn restored(&mut self, entry: TapeEntry, end: SimInstant) {
        self.stats.tape_restores += 1;
        self.stats.sim_end = self.stats.sim_end.max(end);
        match entry.parent {
            // The restored file is readable now; re-stat it so it flows
            // into the copy queue ("additional restored tape file copy
            // request", §4.1.1 j).
            None => self.q.nameq.push_back(StatRequest {
                file: entry.file,
                ino: entry.ino,
                chunked: false,
                ready: end,
                ctx: self.run_ctx,
            }),
            // A fuse chunk: re-queue the logical file only when its last
            // chunk is back.
            Some(logical) => {
                let slot = self.pending_chunks.entry(logical).or_insert((0, end));
                slot.0 = slot.0.saturating_sub(1);
                slot.1 = slot.1.max(end);
                if slot.0 == 0 {
                    let ready = slot.1;
                    self.pending_chunks.remove(&logical);
                    self.q.nameq.push_back(StatRequest {
                        file: entry.file,
                        ino: logical,
                        chunked: true,
                        ready,
                        ctx: self.run_ctx,
                    });
                }
            }
        }
    }

    /// One file in a tape batch failed to restore. Charge it against the
    /// file's attempt budget and either line it back up on its tape's
    /// queue or give up with a per-file error.
    fn requeue_failed_restore(&mut self, entry: TapeEntry, emsg: String) {
        let TapeEntry {
            ino, file, parent, ..
        } = entry;
        let attempts = self.tape_attempts.entry(ino).or_insert(0);
        *attempts += 1;
        if *attempts > 3 {
            // A permanently failed chunk also releases its logical file's
            // pending slot so the run can still finish (partially, with
            // the error on record).
            if let Some(logical) = parent {
                if let Some(slot) = self.pending_chunks.get_mut(&logical) {
                    slot.0 = slot.0.saturating_sub(1);
                    if slot.0 == 0 {
                        self.pending_chunks.remove(&logical);
                    }
                }
            }
            let path = self.engine.src_path(ino);
            self.record_error(path, format!("restore keeps failing; giving up: {emsg}"));
            return;
        }
        match self.tape_address_of(ino) {
            Ok((tape, seq)) => self.q.tapecq.push(
                tape,
                TapeEntry {
                    seq,
                    ino,
                    file,
                    parent,
                },
            ),
            Err(e) => self.record_error(self.engine.src_path(ino), e),
        }
    }

    /// `src_path`, found by the walk under the source root, on the
    /// destination: built for errors and the fuse overlay.
    fn rebased(&self, src_path: &str) -> String {
        let dst_root = self
            .engine
            .dst_root
            .as_deref()
            .expect("run has a destination");
        copra_vfs::rebase(src_path, &self.engine.src_root, dst_root)
            .unwrap_or_else(|| src_path.to_string())
    }

    /// The destination path of `file`, built for errors and the fuse
    /// overlay.
    fn dst_path(&self, file: &Entry) -> String {
        match &file.dir.dst_name {
            Some(_) => self.engine.dst_root.clone().expect("run has a destination"),
            None => self.rebased(&file.path()),
        }
    }

    /// The (offset, len) jobs a file of `size` bytes splits into: chunks
    /// of `copy_chunk` from the parallel-copy threshold on when `split`
    /// (§4.1.2-3), one job otherwise (an empty file's has length 0).
    fn pieces(&self, size: u64, split: bool) -> impl Iterator<Item = (u64, u64)> {
        let config = self.engine.config;
        let chunk = if split && size >= config.parallel_copy_threshold.as_bytes() {
            config.copy_chunk.as_bytes()
        } else {
            size.max(1)
        };
        (0..size.max(1))
            .step_by(chunk as usize)
            .map(move |off| (off, chunk.min(size - off)))
    }

    /// Per-file request span, recorded at routing time and keyed by the
    /// source inode: every copy, compare and re-dispatch of this file's
    /// work parents under it, so the file stays attributable across
    /// mover crashes.
    fn request_ctx(&self, ino: Ino, ready: SimInstant) -> Option<SpanContext> {
        self.tracer
            .record_closed(self.run_ctx, "pftool.request", ino.0, ready, ready, None)
    }

    /// Decide what to do with one stated file.
    fn route(&mut self, meta: FileMeta, ready: SimInstant) {
        match self.engine.op {
            Op::List => {
                self.stats.files += 1;
                self.stats.bytes += meta.size;
                self.stats.sim_end = self.stats.sim_end.max(ready);
                let tag = if meta.chunked { "F" } else { "f" };
                self.lines.push(format!(
                    "{tag} {} {} uid={} {}",
                    meta.file.path(),
                    meta.size,
                    meta.uid,
                    meta.hsm
                ));
            }
            Op::Copy => self.route_copy(meta, ready),
            Op::Compare => self.route_compare(meta, ready),
        }
    }

    fn route_copy(&mut self, meta: FileMeta, ready: SimInstant) {
        let eng = self.engine;
        let dst = eng.dst.expect("copy without dst");
        let req = self.request_ctx(meta.ino, ready);
        // Migrated source files go to the tape queues first.
        if meta.hsm == HsmState::Migrated && !meta.chunked {
            if eng.config.tape_procs == 0 {
                self.record_error(
                    meta.file.path(),
                    "file is migrated to tape but run has no TapeProcs".to_string(),
                );
                return;
            }
            let attempts = self.tape_attempts.entry(meta.ino).or_insert(0);
            *attempts += 1;
            if *attempts > 3 {
                self.record_error(
                    meta.file.path(),
                    "restore keeps failing; giving up".to_string(),
                );
                return;
            }
            match self.tape_address_of(meta.ino) {
                Ok((tape, seq)) => {
                    self.q.tapecq.push(
                        tape,
                        TapeEntry {
                            seq,
                            ino: meta.ino,
                            file: meta.file,
                            parent: None,
                        },
                    );
                }
                Err(e) => self.record_error(meta.file.path(), e),
            }
            return;
        }
        if meta.chunked && meta.hsm == HsmState::Migrated {
            // Chunked file with migrated chunks: queue each migrated chunk
            // for restore; the logical file is re-queued (via
            // `pending_chunks`) once its last chunk lands.
            if eng.config.tape_procs == 0 {
                self.record_error(
                    meta.file.path(),
                    "chunked file has migrated chunks but run has no TapeProcs".to_string(),
                );
                return;
            }
            let attempts = self.tape_attempts.entry(meta.ino).or_insert(0);
            *attempts += 1;
            if *attempts > 3 {
                self.record_error(
                    meta.file.path(),
                    "chunk restores keep failing; giving up".to_string(),
                );
                return;
            }
            let fuse = eng.src.fuse.as_ref().expect("chunked without fuse");
            match fuse.chunks(&meta.file.path()) {
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
                                            ino: c.ino,
                                            file: meta.file.clone(),
                                            parent: Some(meta.ino),
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
                            .entry(meta.ino)
                            .or_insert((0, self.stats.sim_start));
                        slot.0 += queued;
                    }
                }
                Err(e) => self.record_error(meta.file.path(), e.to_string()),
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
            let dst_path = self.dst_path(&meta.file);
            self.route_copy_fuse_dst(&meta, &dst_path, ready, req);
            return;
        }

        let dst_dir = meta.file.dir.dst.as_ref();
        let parent = match dst_dir.expect("a copy run maps every directory") {
            Ok(parent) => *parent,
            Err(e) => {
                self.record_error(self.dst_path(&meta.file), e.to_string());
                return;
            }
        };
        let name = meta.file.dst_name();
        // Plain destination. Restart: skip an up-to-date file (§4.5's
        // date-based heuristic for regular files).
        if eng.config.restart {
            let found = dst.pfs.lookup(parent, name);
            if let Ok(dattr) = found.and_then(|ino| dst.pfs.stat_ino(ino)) {
                if dattr.size == meta.size && dattr.mtime >= meta.mtime {
                    self.stats.skipped_files += 1;
                    self.stats.skipped_bytes += meta.size;
                    return;
                }
            }
        }
        // Pre-create the destination file, or reset the one already there.
        let dpfs = &dst.pfs;
        let created = dpfs
            .create_in(parent, name, meta.uid, Content::empty(), meta.size)
            .or_else(|e| match e {
                FsError::AlreadyExists(_) => dpfs
                    .lookup(parent, name)
                    .and_then(|ino| dpfs.truncate(ino, 0).map(|_| ino)),
                e => Err(e),
            });
        let dst_ino = match created {
            Ok(ino) => ino,
            Err(e) => {
                self.record_error(self.dst_path(&meta.file), e.to_string());
                return;
            }
        };
        if meta.size == 0 {
            // nothing to move; creation already happened
            return;
        }
        let dst_mode = DstMode::WriteAt { ino: dst_ino };
        if meta.chunked {
            // Physical source chunks each become one job writing at their
            // logical offset.
            let fuse = eng.src.fuse.as_ref().expect("chunked without fuse");
            match fuse.chunks(&meta.file.path()) {
                Ok(chunks) => {
                    let mut off = 0u64;
                    for c in chunks {
                        self.q.copyq.push_back(WorkerJob::Copy(CopyJob {
                            src_ino: c.ino,
                            src_offset: 0,
                            len: c.len,
                            dst_offset: off,
                            dst_mode: dst_mode.clone(),
                            ready,
                            ctx: req,
                        }));
                        off += c.len;
                    }
                }
                Err(e) => self.record_error(meta.file.path(), e.to_string()),
            }
            return;
        }
        // One job, or N-to-1 chunked parallel copy (§4.1.2-3).
        for (off, len) in self.pieces(meta.size, true) {
            self.q.copyq.push_back(WorkerJob::Copy(CopyJob {
                src_ino: meta.ino,
                src_offset: off,
                len,
                dst_offset: off,
                dst_mode: dst_mode.clone(),
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

        // Build the source manifest: (src physical inode, src offset, len,
        // fingerprint) per destination chunk.
        let mut manifest: Vec<(Ino, u64, u64, u64)> = Vec::new();
        if meta.chunked {
            let sfuse = eng.src.fuse.as_ref().expect("chunked without fuse");
            match sfuse.chunks(&meta.file.path()) {
                Ok(chunks) => {
                    for c in chunks {
                        manifest.push((c.ino, 0, c.len, c.fingerprint));
                    }
                }
                Err(e) => {
                    self.record_error(meta.file.path(), e.to_string());
                    return;
                }
            }
        } else {
            let Ok(content) = eng.src.pfs.vfs().peek_content(meta.ino) else {
                self.record_error(meta.file.path(), "unreadable".to_string());
                return;
            };
            let mut off = 0u64;
            while off < meta.size {
                let len = chunk_size.min(meta.size - off);
                let fp = content.slice(off, len).fingerprint();
                manifest.push((meta.ino, off, len, fp));
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

        if let Err(e) = fuse.make_chunk_dir(dst_path, meta.uid, meta.size) {
            self.record_error(dst_path.to_string(), e.to_string());
            return;
        }

        let stale_set: std::collections::HashSet<u32> = stale.iter().copied().collect();
        for (i, (src_ino, src_offset, len, _)) in manifest.into_iter().enumerate() {
            let index = i as u32;
            if !stale_set.contains(&index) {
                self.stats.skipped_bytes += len;
                continue;
            }
            self.q.copyq.push_back(WorkerJob::Copy(CopyJob {
                src_ino,
                src_offset,
                len,
                dst_offset: 0,
                dst_mode: DstMode::CreateChunk {
                    uid: meta.uid,
                    dir: dst_path.to_string(),
                    index,
                },
                ready,
                ctx: req,
            }));
        }
        if stale.is_empty() {
            self.stats.skipped_files += 1;
        }
    }

    fn route_compare(&mut self, meta: FileMeta, ready: SimInstant) {
        let eng = self.engine;
        let req = self.request_ctx(meta.ino, ready);
        self.stats.files += 1;
        if meta.hsm == HsmState::Migrated {
            self.record_error(
                meta.file.path(),
                "migrated to tape; recall before comparing".to_string(),
            );
            return;
        }
        // The destination is looked up once, here; a missing one (or one
        // below a missing directory) is a mismatch, not an error.
        let dst = eng.dst.expect("compare without destination view");
        let dst_dir = meta.file.dir.dst.as_ref();
        let found = match dst_dir.expect("a compare run maps every directory") {
            Ok(parent) => dst.pfs.lookup(*parent, meta.file.dst_name()),
            Err(e) => Err(e.clone()),
        };
        let side =
            found.and_then(|ino| Engine::compare_side(dst, ino, || self.dst_path(&meta.file)));
        let dst = match side {
            Ok(side) => Some(side),
            Err(FsError::NotFound(_)) => None,
            Err(e) => {
                let path = meta.file.path();
                let msg = format!("{path}: {e}");
                self.record_error(path, msg);
                return;
            }
        };
        let src = CompareSide {
            ino: meta.ino,
            fuse_path: meta.chunked.then(|| meta.file.path()),
        };
        for (offset, len) in self.pieces(meta.size, !meta.chunked) {
            self.q.copyq.push_back(WorkerJob::Compare(CompareJob {
                src: src.clone(),
                dst: dst.clone(),
                offset,
                len,
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
            .ok_or_else(|| "stub without a tape object id".to_string())?;
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
