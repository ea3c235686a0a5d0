//! The parallel file system proper: a [`copra_vfs::Vfs`] namespace plus
//! storage pools, placement policy, and DMAPI-style managed regions.

use crate::policy::{merge_runs, tagged_order, FileRecord, FileView, PolicyEngine, Rule};
use crate::pool::{PoolConfig, PoolId, StoragePool};
use copra_simtime::{Clock, DataSize, Reservation, SimDuration, SimInstant, Timeline};
use copra_trace::Tracer;
use copra_vfs::{
    Content, FsError, FsResult, HsmState, Ino, InodeAttr, ManagedRegion, Vfs, WalkEntry,
};
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Result of reading a managed file.
#[derive(Debug, Clone)]
pub enum ReadOutcome {
    /// Data was resident on disk.
    Data(Content),
    /// The file is a punched stub; the caller must drive a recall through
    /// the HSM (this is the DMAPI read event).
    NeedsRecall { ino: Ino, objid: u64 },
}

struct PfsShared {
    vfs: Vfs,
    pools: Vec<StoragePool>,
    pool_by_name: FxHashMap<String, PoolId>,
    placement: PolicyEngine,
    /// A file's pool lives on its inode as a one-byte tag: the pool's
    /// index XOR this pool's, so tag 0, which a file created straight
    /// through the `Vfs` has, names this pool.
    default_pool: PoolId,
    /// The metadata service path: file create/stat/unlink transactions
    /// serialize here in simulated time. GPFS's own benchmark claim — one
    /// million inodes scanned in ten minutes (§4.2.1) — corresponds to
    /// roughly 1.7k metadata ops/s, which the default latency reflects.
    meta: Timeline,
    /// Span tracer for scan/policy sub-phases. `Pfs` has no dependency on
    /// the obs registry, so it carries its own handle, set by
    /// [`PfsBuilder::tracer`] (disabled by default).
    tracer: Tracer,
}

/// What a recall path needs of a file, read under one guard by
/// [`Pfs::residency`].
#[derive(Debug, Clone, Copy)]
pub struct Residency {
    /// The DMAPI managed-region record (HSM state, tape object id).
    pub region: ManagedRegion,
    /// Logical size: the pre-punch size for stubs.
    pub size: u64,
    /// The pool holding (or that will hold) the file's disk copy.
    pub pool: PoolId,
}

/// A mounted parallel file system (archive or scratch). Cheap to clone.
#[derive(Clone)]
pub struct Pfs {
    shared: Arc<PfsShared>,
}

/// Builder for [`Pfs`].
pub struct PfsBuilder {
    name: String,
    clock: Clock,
    pools: Vec<PoolConfig>,
    placement: Vec<Rule>,
    tracer: Tracer,
}

impl PfsBuilder {
    pub fn new(name: impl Into<String>, clock: Clock) -> Self {
        PfsBuilder {
            name: name.into(),
            clock,
            pools: Vec::new(),
            placement: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// A scratch-style file system: one big internal pool, no placement
    /// rules (PanFS stand-in).
    pub fn scratch(name: impl Into<String>, clock: Clock, devices: usize) -> Self {
        PfsBuilder::new(name, clock).pool(PoolConfig::fast_disk(
            "scratch",
            devices,
            DataSize::tb(2000),
        ))
    }

    /// Add a pool. The first internal pool added becomes the default
    /// placement target.
    pub fn pool(mut self, config: PoolConfig) -> Self {
        self.pools.push(config);
        self
    }

    /// Placement rules (only `Action::Place` rules are consulted).
    pub fn placement(mut self, rules: Vec<Rule>) -> Self {
        self.placement = rules;
        self
    }

    /// Record scan and policy sub-phase spans through `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    pub fn build(self) -> Pfs {
        assert!(
            self.pools.iter().any(|p| !p.external),
            "a Pfs needs at least one internal pool"
        );
        assert!(self.pools.len() < 256, "a pool tag is one byte");
        let pools: Vec<StoragePool> = self
            .pools
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| StoragePool::new(PoolId(i as u32), cfg))
            .collect();
        let pool_by_name = pools
            .iter()
            .map(|p| (p.name().to_string(), p.id()))
            .collect();
        let default_pool = pools
            .iter()
            .find(|p| !p.is_external())
            .expect("checked above")
            .id();
        // One metadata transaction (create / stat / unlink) costs 600 µs.
        let meta =
            Timeline::latency_only(format!("{}-meta", self.name), SimDuration::from_micros(600));
        Pfs {
            shared: Arc::new(PfsShared {
                vfs: Vfs::new(self.name, self.clock),
                pools,
                pool_by_name,
                placement: PolicyEngine::new(self.placement),
                default_pool,
                meta,
                tracer: self.tracer,
            }),
        }
    }
}

impl Pfs {
    pub fn name(&self) -> &str {
        self.shared.vfs.name()
    }

    pub fn clock(&self) -> &Clock {
        self.shared.vfs.clock()
    }

    /// The tracer this file system was built with (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Escape hatch to the raw namespace (tests and internal movers).
    pub fn vfs(&self) -> &Vfs {
        &self.shared.vfs
    }

    // ----- pools ----------------------------------------------------------

    pub fn pools(&self) -> &[StoragePool] {
        &self.shared.pools
    }

    pub fn pool(&self, id: PoolId) -> &StoragePool {
        &self.shared.pools[id.0 as usize]
    }

    pub fn pool_by_name(&self, name: &str) -> Option<&StoragePool> {
        self.shared.pool_by_name.get(name).map(|id| self.pool(*id))
    }

    /// Pool a file currently resides in (the default pool once it is gone).
    pub fn pool_of(&self, ino: Ino) -> PoolId {
        self.shared
            .vfs
            .inspect(ino, |inode| self.tag_pool(inode.pool))
            .unwrap_or(self.shared.default_pool)
    }

    /// The pool an inode's pool tag ([`InodeAttr::pool`]) names.
    pub fn tag_pool(&self, tag: u8) -> PoolId {
        PoolId(u32::from(tag) ^ self.shared.default_pool.0)
    }

    fn pool_tag(&self, id: PoolId) -> u8 {
        u8::try_from(id.0 ^ self.shared.default_pool.0).expect("a Pfs has under 256 pools")
    }

    /// Charge one metadata transaction (create / stat / unlink) on this
    /// file system's metadata service.
    pub fn charge_meta(&self, ready: SimInstant) -> Reservation {
        self.shared.meta.transfer(ready, DataSize::ZERO)
    }

    /// Charge a data read of `bytes` for `ino` against its pool's devices.
    pub fn charge_read(&self, ino: Ino, ready: SimInstant, bytes: DataSize) -> Reservation {
        self.pool(self.pool_of(ino)).charge_io(ready, bytes)
    }

    /// Charge a data write of `bytes` for `ino` against its pool's devices.
    pub fn charge_write(&self, ino: Ino, ready: SimInstant, bytes: DataSize) -> Reservation {
        self.pool(self.pool_of(ino)).charge_io(ready, bytes)
    }

    // ----- namespace ops (delegation + pool/HSM bookkeeping) --------------

    pub fn mkdir_p(&self, path: &str) -> FsResult<Ino> {
        self.shared.vfs.mkdir_p(path)
    }

    pub fn mkdir_in(&self, parent: Ino, name: &str) -> FsResult<Ino> {
        self.shared.vfs.mkdir_in(parent, name)
    }

    pub fn exists(&self, path: &str) -> bool {
        self.shared.vfs.exists(path)
    }

    pub fn lookup(&self, parent: Ino, name: &str) -> FsResult<Ino> {
        self.shared.vfs.lookup(parent, name)
    }

    pub fn resolve(&self, path: &str) -> FsResult<Ino> {
        self.shared.vfs.resolve(path)
    }

    pub fn path_of(&self, ino: Ino) -> FsResult<String> {
        self.shared.vfs.path_of(ino)
    }

    pub fn readdir(&self, path: &str) -> FsResult<Vec<copra_vfs::DirEntry>> {
        self.shared.vfs.readdir(path)
    }

    pub fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.shared.vfs.rename(from, to)
    }

    pub fn rmdir(&self, path: &str) -> FsResult<()> {
        self.shared.vfs.rmdir(path)
    }

    /// Create a file, applying placement policy to choose its pool.
    pub fn create_file(&self, path: &str, uid: u32, content: Content) -> FsResult<Ino> {
        let size = content.len();
        let pool = self.place(path, uid, size);
        let tag = self.pool_tag(pool);
        let ino = self.shared.vfs.create(path, uid, tag, content)?;
        self.pool(pool).account_add(DataSize::from_bytes(size));
        Ok(ino)
    }

    /// Create file `name` in directory `parent`, placed by `size_hint`
    /// rather than the initial content length. PFTool pre-creates
    /// destination files empty (workers then fill chunks in parallel); the
    /// hint keeps the placement rules seeing the eventual size. The file's
    /// path is built only when a placement rule reads it.
    pub fn create_in(
        &self,
        parent: Ino,
        name: &str,
        uid: u32,
        content: Content,
        size_hint: u64,
    ) -> FsResult<Ino> {
        let path = if self.shared.placement.reads_path() {
            copra_vfs::join(&self.path_of(parent)?, name)
        } else {
            String::new()
        };
        let pool = self.place(&path, uid, size_hint);
        let actual = DataSize::from_bytes(content.len());
        let tag = self.pool_tag(pool);
        let ino = self.shared.vfs.create_in(parent, name, uid, tag, content)?;
        self.pool(pool).account_add(actual);
        Ok(ino)
    }

    /// The pool the placement rules pick for a new file of `size` bytes at
    /// `path`, decided before the create. No predicate reads the ino,
    /// which the file does not have yet.
    fn place(&self, path: &str, uid: u32, size: u64) -> PoolId {
        let now = self.clock().now();
        let file = FileView {
            path,
            ino: Ino(0),
            size,
            uid,
            mtime: now,
            atime: now,
            pool: "",
            hsm: HsmState::Resident,
        };
        self.shared
            .placement
            .place(&file, now)
            .and_then(|name| self.shared.pool_by_name.get(name).copied())
            .unwrap_or(self.shared.default_pool)
    }

    /// A file's DMAPI managed-region record (HSM state, tape object ids,
    /// stub size), read under one guard.
    pub fn region(&self, ino: Ino) -> FsResult<ManagedRegion> {
        self.shared.vfs.inspect(ino, |inode| inode.region)
    }

    /// A file's managed region, logical size and pool under one guard.
    pub fn residency(&self, ino: Ino) -> FsResult<Residency> {
        self.shared.vfs.inspect(ino, |inode| Residency {
            region: inode.region,
            size: inode.region.logical_size(inode.size),
            pool: self.tag_pool(inode.pool),
        })
    }

    /// HSM residency state of a file.
    pub fn hsm_state(&self, ino: Ino) -> FsResult<HsmState> {
        Ok(self.region(ino)?.state)
    }

    /// TSM object id recorded on the file, if any.
    pub fn hsm_objid(&self, ino: Ino) -> FsResult<Option<u64>> {
        Ok(self.region(ino)?.objid)
    }

    /// `stat` with the stub-size overlay applied.
    pub fn stat(&self, path: &str) -> FsResult<InodeAttr> {
        let mut attr = self.shared.vfs.stat(path)?;
        attr.size = attr.region.logical_size(attr.size);
        Ok(attr)
    }

    pub fn stat_ino(&self, ino: Ino) -> FsResult<InodeAttr> {
        let mut attr = self.shared.vfs.stat_ino(ino)?;
        attr.size = attr.region.logical_size(attr.size);
        Ok(attr)
    }

    /// Recursive walk with stub-size overlay.
    pub fn walk(&self, path: &str) -> FsResult<Vec<WalkEntry>> {
        let mut entries = self.shared.vfs.walk(path)?;
        for e in &mut entries {
            e.attr.size = e.attr.region.logical_size(e.attr.size);
        }
        Ok(entries)
    }

    /// Read file data, honouring managed regions: a migrated stub yields
    /// [`ReadOutcome::NeedsRecall`] (the DMAPI read event) instead of data.
    pub fn read(&self, ino: Ino, offset: u64, len: u64) -> FsResult<ReadOutcome> {
        let region = self.region(ino)?;
        match region.state {
            HsmState::Migrated => {
                let objid = region.objid.ok_or_else(|| {
                    FsError::PermissionDenied(format!("stub {ino} has no tape object id"))
                })?;
                Ok(ReadOutcome::NeedsRecall { ino, objid })
            }
            _ => Ok(ReadOutcome::Data(self.shared.vfs.read(ino, offset, len)?)),
        }
    }

    /// Read a whole resident file; error if it needs recall.
    pub fn read_resident(&self, path: &str) -> FsResult<Content> {
        let ino = self.resolve(path)?;
        let size = self.stat_ino(ino)?.size;
        match self.read(ino, 0, size)? {
            ReadOutcome::Data(c) => Ok(c),
            ReadOutcome::NeedsRecall { .. } => Err(FsError::PermissionDenied(format!(
                "{path} is migrated to tape; recall required"
            ))),
        }
    }

    /// Overwrite part of a file. Mutating a premigrated file makes the tape
    /// copy stale: the file returns to `Resident` and the old object id is
    /// parked as the region's `orphan_objid` — exactly the §6.3 situation
    /// the synchronous deleter cannot see and reconciliation (or the FUSE
    /// truncate interceptor) must clean up. A migrated stub refuses writes.
    pub fn write_at(&self, ino: Ino, offset: u64, patch: Content) -> FsResult<()> {
        self.mutate(ino, |content| {
            content.write_at(offset, patch);
        })
    }

    /// Truncate; same staleness handling as [`Pfs::write_at`].
    pub fn truncate(&self, ino: Ino, new_len: u64) -> FsResult<()> {
        self.mutate(ino, |content| content.truncate(new_len))
    }

    /// Apply a data change and its staleness handling in one inode write,
    /// then re-account the file's pool.
    fn mutate(&self, ino: Ino, change: impl FnOnce(&mut Content)) -> FsResult<()> {
        let (old, new, pool) = self.shared.vfs.update_region(ino, |file| {
            let mut region = file.region();
            if region.state == HsmState::Migrated {
                return Err(FsError::PermissionDenied(format!(
                    "{ino} is a migrated stub; recall before writing"
                )));
            }
            let content = file.content_mut()?;
            let old = content.len();
            change(content);
            let new = content.len();
            if region.state == HsmState::Premigrated {
                region.orphan_objid = region.objid.take().or(region.orphan_objid);
                region.state = HsmState::Resident;
                file.set_region(region);
            }
            Ok((old, new, file.pool()))
        })?;
        self.pool(self.tag_pool(pool))
            .account_resize(DataSize::from_bytes(old), DataSize::from_bytes(new));
        Ok(())
    }

    /// Unlink, returning the final attributes (pool accounting updated).
    pub fn unlink(&self, path: &str) -> FsResult<InodeAttr> {
        let mut attr = self.shared.vfs.unlink(path)?;
        // Account what was on disk (nothing, for a punched stub).
        self.pool(self.tag_pool(attr.pool))
            .account_remove(DataSize::from_bytes(attr.size));
        attr.size = attr.region.logical_size(attr.size);
        Ok(attr)
    }

    // ----- DMAPI surface used by the HSM ----------------------------------

    /// Record that a valid tape copy exists (state → Premigrated).
    pub fn mark_premigrated(&self, ino: Ino, objid: u64) -> FsResult<()> {
        self.commit_tape_copy(ino, Some(objid), false)
    }

    /// Punch the managed region: drop on-disk data for a premigrated file,
    /// leaving a stub that still `stat`s at its logical size.
    pub fn punch_hole(&self, ino: Ino) -> FsResult<()> {
        self.commit_tape_copy(ino, None, true)
    }

    /// [`Pfs::mark_premigrated`] with `objid`, if given, then, with
    /// `punch`, [`Pfs::punch_hole`], in one inode write: how an aggregated
    /// migrate commits each member.
    pub fn commit_tape_copy(&self, ino: Ino, objid: Option<u64>, punch: bool) -> FsResult<()> {
        let punched = self.shared.vfs.update_region(ino, |file| {
            let mut region = file.region();
            if let Some(objid) = objid {
                region.state = HsmState::Premigrated;
                region.objid = Some(objid);
            }
            if !punch {
                file.set_region(region);
                return Ok(None);
            }
            if region.state != HsmState::Premigrated {
                return Err(FsError::PermissionDenied(format!(
                    "punch_hole on {ino} in state {} (need premigrated)",
                    region.state
                )));
            }
            let size = std::mem::take(file.content_mut()?).len();
            region.state = HsmState::Migrated;
            region.stub_size = Some(size);
            file.set_region(region);
            Ok(Some((size, file.pool())))
        })?;
        if let Some((size, pool)) = punched {
            self.pool(self.tag_pool(pool))
                .account_resize(DataSize::from_bytes(size), DataSize::ZERO);
        }
        Ok(())
    }

    /// Refill a stub with data recalled from tape (state → Premigrated:
    /// disk and tape copies both valid).
    pub fn restore_stub(&self, ino: Ino, content: Content) -> FsResult<()> {
        let size = content.len();
        let pool = self.shared.vfs.update_region(ino, |file| {
            let region = file.region();
            if region.state != HsmState::Migrated {
                return Err(FsError::PermissionDenied(format!(
                    "restore_stub on {ino} in state {} (need migrated)",
                    region.state
                )));
            }
            // A migrated stub has no content, so this is its stub size.
            let logical = region.logical_size(file.size());
            if size != logical {
                return Err(FsError::InvalidRange {
                    len: logical,
                    offset: 0,
                    requested: size,
                });
            }
            *file.content_mut()? = content;
            file.set_region(ManagedRegion {
                state: HsmState::Premigrated,
                stub_size: None,
                ..region
            });
            Ok(file.pool())
        })?;
        self.pool(self.tag_pool(pool))
            .account_resize(DataSize::ZERO, DataSize::from_bytes(size));
        Ok(())
    }

    /// Sever the tape association: drop the objid and stub size and return
    /// the file to Resident. Scrub uses this to repair a premigrated stub
    /// whose tape object vanished in a crash — the disk copy is intact,
    /// so the file is simply no longer archived. Refuses migrated stubs
    /// (their disk copy is gone; dropping the objid would lose data).
    pub fn mark_resident(&self, ino: Ino) -> FsResult<()> {
        self.shared.vfs.update_region(ino, |file| {
            let region = file.region();
            if region.state == HsmState::Migrated {
                return Err(FsError::PermissionDenied(format!(
                    "mark_resident on {ino} in state {}: stub has no disk copy",
                    region.state
                )));
            }
            file.set_region(ManagedRegion {
                state: HsmState::Resident,
                objid: None,
                stub_size: None,
                ..region
            });
            Ok(())
        })
    }

    // ----- policy scan -----------------------------------------------------

    /// Default scan parallelism: one thread per available core.
    fn scan_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Snapshot of every regular file as policy-visible records, sorted by
    /// path. Runs the sharded parallel scan at the default thread count.
    pub fn scan_records(&self) -> Vec<FileRecord> {
        self.scan_records_with(Self::scan_threads())
    }

    /// [`Pfs::scan_records`] at an explicit thread count. The result is
    /// identical at any `threads` value: each scan thread sorts its own
    /// records by path, and one merge of the threads' runs orders them all.
    pub fn scan_records_with(&self, threads: usize) -> Vec<FileRecord> {
        let tracer = self.tracer();
        let now = self.clock().now();
        let root = tracer.root_seq("pfs.scan_records", now);
        let by_path = |a: &FileRecord, b: &FileRecord| a.path.cmp(&b.path);
        let mut runs = self.shared.vfs.par_scan(
            threads,
            |inode, path| {
                inode.is_file().then(|| {
                    let pool = self.tag_pool(inode.pool);
                    FileView::of(path.get(), inode, self.pool(pool).name()).to_record(pool)
                })
            },
            |st| record_shard_spans(tracer, root.as_ref(), "scan.shard", now, st),
            |t, run| self.sort_run(root.as_ref(), "scan.sort", now, t, run, by_path),
        );
        let merge_start = tracer.wall_now_ns();
        runs.retain(|run| !run.is_empty());
        // A lone run is already the answer; merging it would only copy it.
        let recs = if runs.len() <= 1 {
            runs.pop().unwrap_or_default()
        } else {
            let mut recs = Vec::with_capacity(runs.iter().map(Vec::len).sum());
            merge_runs(runs, by_path, |rec| recs.push(rec));
            recs
        };
        if let Some(g) = root {
            tracer.record_closed(Some(g.ctx()), "scan.sort_merge", 0, now, now, merge_start);
            g.finish(now);
        }
        recs
    }

    /// Run a policy over the current namespace.
    pub fn run_policy(&self, engine: &PolicyEngine) -> crate::policy::ScanReport {
        self.run_policy_with(engine, Self::scan_threads())
    }

    /// [`Pfs::run_policy`] at an explicit thread count. Rule evaluation is
    /// fused into the sharded namespace scan: each scan thread classifies a
    /// borrowed view of each file as it walks its shards and builds an
    /// owned record only for a match. The path is built only for a match
    /// too, unless a rule reads it. Each thread sorts its matches by (rule,
    /// path) and one merge of the runs builds the report, deterministic at
    /// every thread count. A file whose first matching rule lists nothing
    /// (EXCLUDE) gets no record.
    pub fn run_policy_with(
        &self,
        engine: &PolicyEngine,
        threads: usize,
    ) -> crate::policy::ScanReport {
        let now = self.clock().now();
        let tracer = self.tracer();
        let root = tracer.root_seq("pfs.run_policy", now);
        let t0 = std::time::Instant::now();
        let scanned = AtomicU64::new(0);
        let reads_path = engine.reads_path();
        let runs = self.shared.vfs.par_scan(
            threads,
            |inode, path| {
                if !inode.is_file() {
                    return None;
                }
                let pool = self.tag_pool(inode.pool);
                let name = self.pool(pool).name();
                let rule_path = if reads_path { path.get() } else { "" };
                let idx = engine.classify_listed(&FileView::of(rule_path, inode, name), now)?;
                Some((idx, FileView::of(path.get(), inode, name).to_record(pool)))
            },
            |st| {
                scanned.fetch_add(st.files, Ordering::Relaxed);
                record_shard_spans(tracer, root.as_ref(), "policy.shard", now, st);
            },
            |t, run| self.sort_run(root.as_ref(), "policy.sort", now, t, run, tagged_order),
        );
        let assemble_start = tracer.wall_now_ns();
        let report = engine.assemble(runs, scanned.into_inner() as usize, t0);
        if let Some(g) = root {
            tracer.record_closed(
                Some(g.ctx()),
                "policy.assemble",
                0,
                now,
                now,
                assemble_start,
            );
            g.finish(now);
        }
        report
    }

    /// Sort a scan thread's run (paths are unique, so unstably) and, if
    /// traced, record a `name` span keyed by the thread's index: every
    /// thread sorts once, whichever shards it took, so the tree is fixed.
    fn sort_run<T>(
        &self,
        root: Option<&copra_trace::SpanGuard>,
        name: &'static str,
        now: SimInstant,
        thread: usize,
        run: &mut [T],
        order: impl Fn(&T, &T) -> std::cmp::Ordering,
    ) {
        let start = self.tracer().wall_now_ns();
        run.sort_unstable_by(order);
        if let Some(root) = root {
            self.tracer()
                .record_closed(Some(root.ctx()), name, thread as u64, now, now, start);
        }
    }
}

/// Turn one shard's measured walk into closed spans under `root`, if the
/// scan is traced: a `name` span per shard with a `<name>.walk` child.
/// They are sim-zero-length (the sim clock is frozen during a scan); their
/// wall intervals carry the data. Called 64 times per scan — with
/// [`Pfs::sort_run`], the only wall-clock reads on the scan path,
/// which is how armed tracing stays under its 5% overhead budget.
fn record_shard_spans(
    tracer: &Tracer,
    root: Option<&copra_trace::SpanGuard>,
    name: &'static str,
    now: SimInstant,
    st: copra_vfs::ShardScanStats,
) {
    let Some(root) = root else { return };
    let walk = match name {
        "scan.shard" => "scan.shard.walk",
        _ => "policy.shard.walk",
    };
    let end = tracer.wall_now_ns().unwrap_or(0);
    let start = end.saturating_sub(st.walk_ns);
    let key = st.shard as u64;
    let shard = tracer.record_span(Some(root.ctx()), name, key, now, now, start, end);
    tracer.record_span(shard, walk, key, now, now, start, end);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Action, Cmp, Predicate};
    use copra_simtime::Bandwidth;
    use copra_simtime::SimDuration;
    use std::collections::BTreeMap;

    fn archive_fs() -> Pfs {
        PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
            .pool(PoolConfig::slow_disk("slow", 2, DataSize::tb(100)))
            .pool(PoolConfig::external("tape"))
            .placement(vec![
                Rule {
                    name: "small-to-slow".to_string(),
                    action: Action::Place {
                        pool: "slow".to_string(),
                    },
                    predicate: Predicate::SizeBytes(Cmp::Lt, 1 << 20),
                },
                Rule {
                    name: "default-fast".to_string(),
                    action: Action::Place {
                        pool: "fast".to_string(),
                    },
                    predicate: Predicate::True,
                },
            ])
            .build()
    }

    #[test]
    fn placement_routes_by_size() {
        let pfs = archive_fs();
        pfs.mkdir_p("/d").unwrap();
        let small = pfs
            .create_file("/d/small", 0, Content::synthetic(1, 1000))
            .unwrap();
        let big = pfs
            .create_file("/d/big", 0, Content::synthetic(2, 10 << 20))
            .unwrap();
        assert_eq!(pfs.pool(pfs.pool_of(small)).name(), "slow");
        assert_eq!(pfs.pool(pfs.pool_of(big)).name(), "fast");
        assert_eq!(pfs.pool_by_name("slow").unwrap().usage().files, 1);
        assert_eq!(
            pfs.pool_by_name("fast").unwrap().usage().used,
            DataSize::from_bytes(10 << 20)
        );
    }

    #[test]
    fn create_in_places_by_size_hint_and_by_path() {
        let pfs = archive_fs();
        let d = pfs.mkdir_p("/d").unwrap();
        let hinted = pfs
            .create_in(d, "big", 0, Content::empty(), 10 << 20)
            .unwrap();
        assert_eq!(pfs.pool(pfs.pool_of(hinted)).name(), "fast");
        assert_eq!(pfs.resolve("/d/big").unwrap(), hinted);

        // A rule that reads the path sees the one create_in builds.
        let pfs = PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
            .pool(PoolConfig::slow_disk("slow", 2, DataSize::tb(100)))
            .placement(vec![Rule {
                name: "cold-to-slow".to_string(),
                action: Action::Place {
                    pool: "slow".to_string(),
                },
                predicate: Predicate::Under("/cold".to_string()),
            }])
            .build();
        let cold = pfs.mkdir_p("/cold/sub").unwrap();
        let hot = pfs.mkdir_p("/hot").unwrap();
        let a = pfs.create_in(cold, "a", 0, Content::empty(), 0).unwrap();
        let b = pfs.create_in(hot, "b", 0, Content::empty(), 0).unwrap();
        assert_eq!(pfs.pool(pfs.pool_of(a)).name(), "slow");
        assert_eq!(pfs.pool(pfs.pool_of(b)).name(), "fast");
    }

    #[test]
    fn hsm_lifecycle_resident_premigrated_migrated_recall() {
        let pfs = archive_fs();
        pfs.mkdir_p("/d").unwrap();
        let content = Content::synthetic(9, 5 << 20);
        let ino = pfs.create_file("/d/f", 0, content.clone()).unwrap();
        assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Resident);

        pfs.mark_premigrated(ino, 777).unwrap();
        assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Premigrated);
        assert_eq!(pfs.hsm_objid(ino).unwrap(), Some(777));
        // data still readable
        assert!(matches!(
            pfs.read(ino, 0, 10).unwrap(),
            ReadOutcome::Data(_)
        ));

        pfs.punch_hole(ino).unwrap();
        assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Migrated);
        // stat still shows logical size
        assert_eq!(pfs.stat("/d/f").unwrap().size, 5 << 20);
        // reads raise the DMAPI event
        match pfs.read(ino, 0, 10).unwrap() {
            ReadOutcome::NeedsRecall { objid, .. } => assert_eq!(objid, 777),
            other => panic!("expected NeedsRecall, got {other:?}"),
        }
        // disk usage dropped to zero for this file
        assert_eq!(
            pfs.pool_by_name("fast").unwrap().usage().used,
            DataSize::ZERO
        );

        pfs.restore_stub(ino, content.clone()).unwrap();
        assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Premigrated);
        match pfs.read(ino, 0, content.len()).unwrap() {
            ReadOutcome::Data(c) => assert!(c.eq_content(&content)),
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn punch_hole_requires_premigrated() {
        let pfs = archive_fs();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 100))
            .unwrap();
        assert!(pfs.punch_hole(ino).is_err());
    }

    #[test]
    fn restore_rejects_wrong_length() {
        let pfs = archive_fs();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 100))
            .unwrap();
        pfs.mark_premigrated(ino, 1).unwrap();
        pfs.punch_hole(ino).unwrap();
        assert!(matches!(
            pfs.restore_stub(ino, Content::synthetic(1, 99)),
            Err(FsError::InvalidRange { .. })
        ));
    }

    #[test]
    fn overwrite_of_premigrated_orphans_tape_copy() {
        let pfs = archive_fs();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 2 << 20))
            .unwrap();
        pfs.mark_premigrated(ino, 55).unwrap();
        pfs.write_at(ino, 0, Content::literal(&b"new"[..])).unwrap();
        assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Resident);
        assert_eq!(pfs.hsm_objid(ino).unwrap(), None);
        assert_eq!(pfs.region(ino).unwrap().orphan_objid, Some(55));
    }

    #[test]
    fn writes_to_migrated_stub_are_rejected() {
        let pfs = archive_fs();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 100))
            .unwrap();
        pfs.mark_premigrated(ino, 1).unwrap();
        pfs.punch_hole(ino).unwrap();
        assert!(pfs.write_at(ino, 0, Content::literal(&b"x"[..])).is_err());
        assert!(pfs.truncate(ino, 0).is_err());
    }

    #[test]
    fn unlink_of_stub_accounts_zero_disk() {
        let pfs = archive_fs();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 3 << 20))
            .unwrap();
        pfs.mark_premigrated(ino, 1).unwrap();
        pfs.punch_hole(ino).unwrap();
        let before = pfs.pool_by_name("fast").unwrap().usage().used;
        let attr = pfs.unlink("/f").unwrap();
        assert_eq!(attr.size, 3 << 20); // logical size survives in the attr
        assert_eq!(pfs.pool_by_name("fast").unwrap().usage().used, before);
    }

    #[test]
    fn scan_records_reflect_state() {
        let clock = Clock::new();
        let pfs = PfsBuilder::new("a", clock.clone())
            .pool(PoolConfig::fast_disk("fast", 1, DataSize::tb(1)))
            .build();
        pfs.mkdir_p("/proj").unwrap();
        let ino = pfs
            .create_file("/proj/x.dat", 42, Content::synthetic(1, 1000))
            .unwrap();
        pfs.mark_premigrated(ino, 3).unwrap();
        let recs = pfs.scan_records();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.path, "/proj/x.dat");
        assert_eq!(r.uid, 42);
        assert_eq!(r.size, 1000);
        assert_eq!(pfs.pool(r.pool).name(), "fast");
        assert_eq!(r.hsm, HsmState::Premigrated);
    }

    #[test]
    fn policy_scan_over_pfs() {
        let clock = Clock::new();
        let pfs = PfsBuilder::new("a", clock.clone())
            .pool(PoolConfig::fast_disk("fast", 1, DataSize::tb(1)))
            .build();
        pfs.mkdir_p("/d").unwrap();
        for i in 0..10 {
            pfs.create_file(&format!("/d/f{i}"), 0, Content::synthetic(i, 100 + i))
                .unwrap();
        }
        clock.advance_to(SimInstant::from_secs(3600));
        let engine = PolicyEngine::new(vec![Rule::list(
            "aged",
            "candidates",
            Predicate::MtimeAge(Cmp::Ge, SimDuration::from_secs(60)),
        )]);
        let report = pfs.run_policy(&engine);
        assert_eq!(report.scanned, 10);
        assert_eq!(report.lists["candidates"].len(), 10);
    }

    #[test]
    fn streaming_scan_is_thread_count_invariant() {
        let clock = Clock::new();
        // The five smallest files of each directory land in the slow pool.
        let pfs = PfsBuilder::new("a", clock.clone())
            .pool(PoolConfig::fast_disk("fast", 1, DataSize::tb(1)))
            .pool(PoolConfig::slow_disk("slow", 1, DataSize::tb(1)))
            .placement(vec![Rule {
                name: "tiny-to-slow".to_string(),
                action: Action::Place {
                    pool: "slow".to_string(),
                },
                predicate: Predicate::SizeBytes(Cmp::Lt, 69),
            }])
            .build();
        for d in 0..8 {
            pfs.mkdir_p(&format!("/d{d}")).unwrap();
            for i in 0..25 {
                let ino = pfs
                    .create_file(
                        &format!("/d{d}/f{i:02}"),
                        i,
                        Content::synthetic(u64::from(d * 100 + i), 64 + u64::from(i)),
                    )
                    .unwrap();
                if i % 7 == 0 {
                    pfs.mark_premigrated(ino, u64::from(d * 100 + i)).unwrap();
                    pfs.punch_hole(ino).unwrap();
                }
            }
        }
        clock.advance_to(SimInstant::from_secs(3600));
        let engine = PolicyEngine::new(vec![
            Rule::exclude("skip-slow", Predicate::InPool("slow".to_string())),
            Rule::list("stubs", "stubs", Predicate::Hsm(HsmState::Migrated)),
            Rule::list("rest", "tape", Predicate::True),
        ]);
        let baseline = pfs.run_policy_with(&engine, 1);
        assert_eq!(baseline.scanned, 200);
        let base_recs = pfs.scan_records_with(1);
        assert_eq!(base_recs.len(), 200);
        for threads in [2, 4, 8] {
            let report = pfs.run_policy_with(&engine, threads);
            assert_eq!(report.scanned, baseline.scanned);
            assert_eq!(report.lists, baseline.lists);
            assert_eq!(pfs.scan_records_with(threads), base_recs);
        }
        // Sorted output, and the stub-size overlay survived the fused scan.
        assert!(base_recs.windows(2).all(|w| w[0].path < w[1].path));
        assert!(baseline.lists["stubs"].iter().all(|r| r.size >= 64));
    }

    /// A policy scan must report exactly what a serial reference reports:
    /// classify every record of `scan_records_with(1)`, group by rule, sort
    /// each group by path, and fill the lists in rule order. The namespace
    /// is created round-robin across directories, so inode order is not
    /// path order; a list fed by two rules whose paths interleave is not in
    /// path order either. Whether or not a rule reads paths.
    #[test]
    fn policy_scan_equals_a_serial_reference() {
        let pfs = archive_fs();
        let dirs = [(0, "a/x"), (1, "a/y/z"), (2, "b"), (3, "b/tmp/deep/er")];
        for (_, sub) in dirs {
            pfs.mkdir_p(&format!("/proj/{sub}")).unwrap();
        }
        for i in 0..30u64 {
            for (d, sub) in dirs {
                let name = if i % 4 == 0 {
                    "scratch.tmp"
                } else {
                    "data.dat"
                };
                let path = format!("/proj/{sub}/f{i:02}-{name}");
                let size = if i % 2 == 0 { 4096 + i } else { (2 << 20) + i };
                let ino = pfs
                    .create_file(&path, i as u32, Content::synthetic(d * 100 + i, size))
                    .unwrap();
                match i % 3 {
                    1 => pfs.mark_premigrated(ino, d * 100 + i).unwrap(),
                    2 => {
                        pfs.mark_premigrated(ino, d * 100 + i).unwrap();
                        pfs.punch_hole(ino).unwrap();
                    }
                    _ => {}
                }
            }
        }
        pfs.clock().advance_to(SimInstant::from_secs(3600));
        let path_free = vec![
            Rule::exclude(
                "skip-slow-stubs",
                Predicate::InPool("slow".to_string()).and(Predicate::Hsm(HsmState::Migrated)),
            ),
            Rule::list("stubs", "stubs", Predicate::Hsm(HsmState::Migrated)),
            Rule::list("big", "tape", Predicate::SizeBytes(Cmp::Ge, 1 << 20)),
            Rule::list("rest", "tape", Predicate::Uid(Cmp::Lt, 20)),
        ];
        let with_paths = vec![
            Rule::exclude("skip-tmp", Predicate::NameMatches("*.tmp".to_string())),
            Rule::list(
                "stubs",
                "stubs",
                Predicate::Hsm(HsmState::Migrated).and(Predicate::Under("/proj/a".to_string())),
            ),
            Rule::list(
                "not-b",
                "not-b",
                Predicate::Not(Box::new(Predicate::Under("/proj/b".to_string()))),
            ),
            Rule::list("rest", "tape", Predicate::True),
        ];
        let records = pfs.scan_records_with(1);
        assert_eq!(records.len(), 120);
        assert!(records.windows(2).all(|w| w[0].path < w[1].path));
        assert!(records.windows(2).any(|w| w[0].ino > w[1].ino));
        let now = pfs.clock().now();
        for (rules, interleaved) in [(path_free, true), (with_paths, false)] {
            let engine = PolicyEngine::new(rules);
            let tagged: Vec<(usize, FileRecord)> = (records.iter())
                .filter_map(|r| {
                    let view = r.view(pfs.pool(r.pool).name());
                    engine.classify(&view, now).map(|i| (i, r.clone()))
                })
                .collect();
            let mut groups: BTreeMap<usize, Vec<FileRecord>> = BTreeMap::new();
            for (i, r) in &tagged {
                groups.entry(*i).or_default().push(r.clone());
            }
            let mut reference: BTreeMap<String, Vec<FileRecord>> = BTreeMap::new();
            for (i, mut files) in groups {
                files.sort_by(|a, b| a.path.cmp(&b.path));
                if let Action::List { list } = &engine.rules()[i].action {
                    reference.entry(list.clone()).or_default().extend(files);
                }
            }
            assert!(reference.values().all(|v| !v.is_empty()));
            let tape = &reference["tape"];
            assert_eq!(tape.windows(2).any(|w| w[0].path > w[1].path), interleaved);
            for threads in [1, 2, 3, 8] {
                let report = pfs.run_policy_with(&engine, threads);
                assert_eq!(report.scanned, records.len());
                assert_eq!(report.lists, reference, "{threads} threads");
            }
            // A scan this small may leave every run but one empty, so the
            // merge also gets runs split by a fixed rule.
            for k in [2, 3, 8] {
                let mut runs = vec![Vec::new(); k];
                for (n, t) in tagged.iter().enumerate() {
                    runs[n % k].push(t.clone());
                }
                for run in &mut runs {
                    run.sort_by(crate::policy::tagged_order);
                }
                let report = engine.assemble(runs, records.len(), std::time::Instant::now());
                assert_eq!(report.lists, reference, "{k} runs");
            }
        }
        // The records agree with the per-file accessors, and cover both
        // pools, every state and the stub-size overlay.
        for r in &records {
            assert_eq!(r.path, pfs.path_of(r.ino).unwrap());
            assert_eq!(r.pool, pfs.pool_of(r.ino));
            assert_eq!(r.hsm, pfs.hsm_state(r.ino).unwrap());
            assert_eq!(r.size, pfs.residency(r.ino).unwrap().size);
        }
        let stub = records
            .iter()
            .find(|r| r.hsm == HsmState::Migrated)
            .unwrap();
        assert!(stub.size >= 4096 && pfs.vfs().stat_ino(stub.ino).unwrap().size == 0);
        for pool in ["fast", "slow"] {
            assert!(records.iter().any(|r| pfs.pool(r.pool).name() == pool));
        }
        assert!(records.iter().any(|r| r.hsm == HsmState::Premigrated));
        assert!(records.iter().any(|r| r.hsm == HsmState::Resident));
    }

    /// The one scan path that reads the pool: an `InPool` rule, alone and
    /// beside an age rule, lists at every thread count exactly what a
    /// filter over `scan_records` keeps. The external pool comes first, so
    /// the default pool is not pool 0, and a file created straight through
    /// the `Vfs` reads as the default pool.
    #[test]
    fn in_pool_rules_list_what_a_filter_over_scan_records_keeps() {
        let pfs = PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::external("tape"))
            .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
            .pool(PoolConfig::slow_disk("slow", 2, DataSize::tb(100)))
            .placement(archive_fs().shared.placement.rules().to_vec())
            .build();
        pfs.mkdir_p("/d").unwrap();
        for i in 0..120u64 {
            let size = if i % 3 == 0 { 4096 } else { 2 << 20 };
            let path = format!("/d/f{i:03}");
            pfs.create_file(&path, 0, Content::synthetic(i, size))
                .unwrap();
            if i == 60 {
                pfs.clock().advance_to(SimInstant::from_secs(3600));
            }
        }
        let raw = pfs.vfs().create("/d/raw", 0, 0, Content::empty()).unwrap();
        assert_eq!(pfs.pool(pfs.pool_of(raw)).name(), "fast");
        pfs.clock().advance_to(SimInstant::from_secs(5400));
        let records = pfs.scan_records();
        let hour = SimDuration::from_secs(3600);
        let in_pool = |pool: &str| Predicate::InPool(pool.to_string());
        // (rule, the pool it keeps, whether it keeps only files over an hour old)
        let cases = [
            (in_pool("slow"), "slow", false),
            (
                in_pool("slow").and(Predicate::MtimeAge(Cmp::Ge, hour)),
                "slow",
                true,
            ),
            (
                Predicate::MtimeAge(Cmp::Ge, hour).and(in_pool("fast")),
                "fast",
                true,
            ),
        ];
        for (predicate, pool, aged) in cases {
            let want: Vec<FileRecord> = records
                .iter()
                .filter(|r| {
                    pfs.pool(r.pool).name() == pool
                        && (!aged || r.mtime < SimInstant::from_secs(3600))
                })
                .cloned()
                .collect();
            assert!(!want.is_empty() && want.len() < records.len());
            let engine = PolicyEngine::new(vec![Rule::list("hit", "hit", predicate)]);
            for threads in [1, 2, 4] {
                let report = pfs.run_policy_with(&engine, threads);
                assert_eq!(report.lists["hit"], want, "{threads} threads");
            }
        }
        assert!(records
            .iter()
            .any(|r| r.path == "/d/raw" && pfs.pool(r.pool).name() == "fast"));
    }

    #[test]
    fn read_charges_pool_devices() {
        let pfs = PfsBuilder::new("a", Clock::new())
            .pool(PoolConfig {
                name: "fast".to_string(),
                devices: 1,
                device_bandwidth: Bandwidth::mb_per_sec(100),
                device_latency: SimDuration::ZERO,
                capacity: DataSize::tb(1),
                external: false,
            })
            .build();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 100 << 20))
            .unwrap();
        let r = pfs.charge_read(ino, SimInstant::EPOCH, DataSize::from_bytes(100 << 20));
        assert!((r.duration().as_secs_f64() - (100 << 20) as f64 / 100e6).abs() < 1e-6);
    }
}
