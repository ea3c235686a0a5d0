//! The assembled archive system.

use copra_cluster::FtaCluster;
use copra_faults::{FaultPlan, FaultPlane};
use copra_fuse::ArchiveFuse;
use copra_hsm::{DataPath, Hsm, HsmResult, PlacementPolicy, TsmServer};
use copra_metadb::TsmCatalog;
use copra_obs::Registry;
use copra_pfs::{Cmp, Pfs, PfsBuilder, PolicyEngine, PoolConfig, Predicate, Rule};
use copra_pftool::{pfcm, pfcp, CompareReport, CopyReport, FsView, PftoolConfig};
use copra_simtime::{Clock, DataSize, SimDuration, SimInstant};
use copra_stager::{MigrateRequest, Stager, StagerConfig};
use copra_tape::{TapeFleet, TapeTiming};
use std::sync::Arc;

use crate::obs::{DeviceUtilization, SystemSnapshot};

/// Files below this size are placed in the slow pool (small-file tier).
const SMALL_FILE_CUTOFF: DataSize = DataSize::mb(1);

/// Deployment description (Figure 7 / §4.3.1 defaults). Tapes are LTO-4
/// ([`TapeTiming::lto4`]).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// FTA mover nodes (§4.3.1; ten in the paper's deployment).
    pub nodes: usize,
    /// Tape libraries on the SAN (each with its own robot arm). The
    /// paper's deployment has one; replicated placements want two or more
    /// so a whole-library outage leaves every object recallable.
    pub libraries: usize,
    /// Tape drives on the SAN, **per library**.
    pub drives: usize,
    /// Scratch volumes, **per library**.
    pub tapes: usize,
    /// Where migrated objects land across the libraries (replica count
    /// and steering) — see [`PlacementPolicy`].
    pub placement: PlacementPolicy,
    /// Fast FC disk pool capacity (archive first tier).
    pub fast_pool: DataSize,
    /// Devices (LUN groups) in the fast pool.
    pub fast_devices: usize,
    /// Slow pool capacity (small-file tier).
    pub slow_pool: DataSize,
    pub slow_devices: usize,
    /// Scratch file system device count.
    pub scratch_devices: usize,
    /// ArchiveFUSE threshold and chunk size (§4.1.2-4).
    pub fuse_threshold: DataSize,
    pub fuse_chunk: DataSize,
    /// Span tracer the whole stack records into
    /// ([`SystemConfig::with_tracer`]); disabled by default.
    pub tracer: copra_trace::Tracer,
    /// Stager front end to build at construction
    /// ([`SystemConfig::with_stager`]). `None` builds none: callers drive
    /// the HSM themselves.
    pub stager: Option<StagerConfig>,
}

impl SystemConfig {
    /// The paper's Roadrunner Open Science deployment: ten FTA mover
    /// nodes, 24 LTO-4 drives, 100 TB of FC4 disk, 2×10GigE trunk.
    pub fn roadrunner() -> Self {
        SystemConfig {
            nodes: 10,
            libraries: 1,
            drives: 24,
            tapes: 512,
            placement: PlacementPolicy::Single,
            fast_pool: DataSize::tb(100),
            fast_devices: 10,
            slow_pool: DataSize::tb(100),
            slow_devices: 4,
            scratch_devices: 24,
            fuse_threshold: DataSize::gb(100),
            fuse_chunk: DataSize::gb(10),
            tracer: copra_trace::Tracer::disabled(),
            stager: None,
        }
    }

    /// A scaled-down rig for tests: everything smaller, fuse kicks in at
    /// 200 MB.
    pub fn test_small() -> Self {
        SystemConfig {
            nodes: 4,
            libraries: 1,
            drives: 4,
            tapes: 32,
            placement: PlacementPolicy::Single,
            fast_pool: DataSize::tb(10),
            fast_devices: 4,
            slow_pool: DataSize::tb(10),
            slow_devices: 2,
            scratch_devices: 8,
            fuse_threshold: DataSize::mb(200),
            fuse_chunk: DataSize::mb(50),
            tracer: copra_trace::Tracer::disabled(),
            stager: None,
        }
    }

    /// The test rig with a replicated tape fleet: `libraries` identical
    /// libraries and two-way mirrored placement.
    pub fn test_replicated(libraries: usize) -> Self {
        SystemConfig {
            libraries,
            placement: PlacementPolicy::Mirror { copies: 2 },
            ..SystemConfig::test_small()
        }
    }

    /// Record spans from every layer (both file systems, the HSM, the
    /// journal, recovery, PFTool, the stager) into `tracer`'s store.
    pub fn with_tracer(mut self, tracer: copra_trace::Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Build a [`Stager`] front end at construction; reach it through
    /// [`ArchiveSystem::stager`].
    pub fn with_stager(mut self, cfg: StagerConfig) -> Self {
        self.stager = Some(cfg);
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::roadrunner()
    }
}

/// The whole COTS Parallel Archive System, assembled.
#[derive(Clone)]
pub struct ArchiveSystem {
    clock: Clock,
    cluster: FtaCluster,
    scratch: Pfs,
    archive: Pfs,
    hsm: Hsm,
    fuse: ArchiveFuse,
    catalog: Arc<TsmCatalog>,
    scratch_view: FsView,
    archive_view: FsView,
    obs: Arc<Registry>,
    stager: Option<Arc<Stager>>,
}

impl ArchiveSystem {
    /// Build the full stack from a deployment description.
    pub fn new(config: SystemConfig) -> Self {
        let clock = Clock::new();
        let cluster = FtaCluster::new(config.nodes);
        let scratch = PfsBuilder::scratch("scratch", clock.clone(), config.scratch_devices)
            .tracer(config.tracer.clone())
            .build();
        let archive = PfsBuilder::new("archive", clock.clone())
            .pool(PoolConfig::fast_disk(
                "fast",
                config.fast_devices,
                config.fast_pool,
            ))
            .pool(PoolConfig::slow_disk(
                "slow",
                config.slow_devices,
                config.slow_pool,
            ))
            .pool(PoolConfig::external("tape"))
            .placement(vec![
                Rule {
                    name: "small-files-to-slow-pool".to_string(),
                    action: copra_pfs::Action::Place {
                        pool: "slow".to_string(),
                    },
                    predicate: Predicate::SizeBytes(Cmp::Lt, SMALL_FILE_CUTOFF.as_bytes()),
                },
                Rule {
                    name: "default-fast".to_string(),
                    action: copra_pfs::Action::Place {
                        pool: "fast".to_string(),
                    },
                    predicate: Predicate::True,
                },
            ])
            .tracer(config.tracer.clone())
            .build();
        // One registry for the whole stack: the tape fleet owns it, and
        // the server / agents / HSM / PFTool all reach it through the
        // fleet.
        let obs = Registry::traced(config.tracer);
        let fleet = TapeFleet::new(
            config.libraries.max(1),
            config.drives,
            config.tapes,
            TapeTiming::lto4(),
            obs.clone(),
        );
        let server = TsmServer::roadrunner(fleet);
        let hsm = Hsm::new(archive.clone(), server, cluster.clone(), config.placement);
        let fuse = ArchiveFuse::new(archive.clone(), config.fuse_threshold, config.fuse_chunk);
        let catalog = Arc::new(TsmCatalog::new());
        let scratch_view = FsView::plain(scratch.clone(), cluster.clone());
        let archive_view = FsView::archive(
            archive.clone(),
            fuse.clone(),
            hsm.clone(),
            catalog.clone(),
            cluster.clone(),
        );
        // Standard trashcan root, present from day one (§4.2.7).
        archive.mkdir_p(crate::trashcan::TRASH_ROOT).unwrap();
        let stager = config
            .stager
            .map(|cfg| Arc::new(Stager::new(hsm.clone(), cfg)));
        ArchiveSystem {
            clock,
            cluster,
            scratch,
            archive,
            hsm,
            fuse,
            catalog,
            scratch_view,
            archive_view,
            obs,
            stager,
        }
    }

    // ----- accessors -------------------------------------------------------

    pub fn clock(&self) -> &Clock {
        &self.clock
    }
    pub fn cluster(&self) -> &FtaCluster {
        &self.cluster
    }
    pub fn scratch(&self) -> &Pfs {
        &self.scratch
    }
    pub fn archive(&self) -> &Pfs {
        &self.archive
    }
    pub fn hsm(&self) -> &Hsm {
        &self.hsm
    }
    pub fn fuse(&self) -> &ArchiveFuse {
        &self.fuse
    }
    pub fn catalog(&self) -> &Arc<TsmCatalog> {
        &self.catalog
    }
    pub fn scratch_view(&self) -> &FsView {
        &self.scratch_view
    }
    pub fn archive_view(&self) -> &FsView {
        &self.archive_view
    }
    /// The stack-wide metrics registry.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }
    /// The stager front end, when [`SystemConfig::with_stager`] built one.
    pub fn stager(&self) -> Option<&Arc<Stager>> {
        self.stager.as_ref()
    }

    // ----- typed request entry points ---------------------------------------

    /// Migrate through the typed request surface: resolves the path, picks
    /// a mover node, and runs the HSM migrate with the request's `punch`
    /// flag. Returns the completion instant.
    pub fn migrate(&self, req: &MigrateRequest, now: SimInstant) -> HsmResult<SimInstant> {
        let ino = self.archive.resolve(&req.path)?;
        let nodes = self.cluster.node_count() as u32;
        let node = copra_cluster::NodeId((ino.0 % nodes as u64) as u32);
        let (_objid, end) =
            self.hsm
                .migrate_file(ino, node, DataPath::LanFree, now, req.punch, None)?;
        Ok(end)
    }

    // ----- fault injection --------------------------------------------------

    /// Arm a fault plan against the whole stack: the plan freezes into a
    /// [`FaultPlane`] wired to this system's metrics registry, and the
    /// tape library starts consulting it — which puts it in reach of the
    /// HSM agents and PFTool's movers too. Fault-free systems never arm a
    /// plane, so the `faults.*` metric family stays unregistered and a
    /// snapshot reports zero for all of it. Unlike tracing and placement
    /// this is a run-time call: a plan may name instants and tape
    /// addresses that exist only after the first migrates.
    pub fn arm_faults(&self, plan: FaultPlan) -> Arc<FaultPlane> {
        let plane = plan.arm(self.obs.clone());
        self.hsm.server().library().arm_faults(plane.clone());
        plane
    }

    // ----- recovery ---------------------------------------------------------

    /// The stack's write-ahead intent journal (owned by the HSM layer).
    pub fn journal(&self) -> &Arc<copra_journal::Journal> {
        self.hsm.journal()
    }

    /// Recover after a (simulated) crash: drain the intent journal and
    /// scrub the stores back into agreement. See [`crate::recovery`].
    pub fn recover(
        &self,
        ready: copra_simtime::SimInstant,
    ) -> copra_hsm::HsmResult<crate::recovery::RecoveryReport> {
        crate::recovery::recover(&self.hsm, &self.catalog, ready)
    }

    // ----- observability ----------------------------------------------------

    /// Capture the whole stack's observability state at the clock's *now*:
    /// utilization of every device timeline (trunk links, per-node NICs
    /// and HBAs, the server backbone NIC, every tape drive) folded via
    /// [`copra_simtime::TimelineStats::utilization`], plus the registry's
    /// counters, gauges, histograms and event trace.
    pub fn snapshot(&self) -> SystemSnapshot {
        let now = self.clock.now();
        let mut devices = Vec::new();
        for (i, link) in self.cluster.trunk().members().iter().enumerate() {
            devices.push(DeviceUtilization::from_stats(
                format!("trunk.link{i}"),
                &link.stats(),
                now,
            ));
        }
        for node in self.cluster.nodes() {
            devices.push(DeviceUtilization::from_stats(
                format!("nic.node{}", node.0),
                &self.cluster.nic(node).stats(),
                now,
            ));
            devices.push(DeviceUtilization::from_stats(
                format!("hba.node{}", node.0),
                &self.cluster.hba(node).stats(),
                now,
            ));
        }
        SystemSnapshot::of_server(self.hsm.server(), now, devices)
    }

    /// The plain-text campaign dashboard for the current snapshot.
    pub fn dashboard(&self) -> String {
        self.snapshot().dashboard()
    }

    /// The policy engine users typically run for migration candidates:
    /// LIST files on disk pools that already aged past `min_age`.
    pub fn migration_policy(&self, min_age: SimDuration) -> PolicyEngine {
        PolicyEngine::new(vec![Rule::list(
            "migration-candidates",
            "migrate",
            Predicate::All(vec![
                Predicate::Hsm(copra_pfs::HsmState::Resident),
                Predicate::MtimeAge(Cmp::Ge, min_age),
                Predicate::Not(Box::new(Predicate::Under(
                    crate::trashcan::TRASH_ROOT.to_string(),
                ))),
            ]),
        )])
    }

    /// Export the TSM database into the indexed replica (§4.2.5's nightly
    /// MySQL dump). Returns rows exported.
    pub fn export_catalog(&self) -> usize {
        self.hsm.server().export(&self.catalog)
    }

    // ----- user-facing commands (launched via MOAB in the paper) -----------

    /// Machine list for a run: the first `k` nodes (at least one) in
    /// node order.
    fn machines(&self, k: usize) -> Vec<copra_cluster::NodeId> {
        self.cluster.nodes().take(k.max(1)).collect()
    }

    /// `pfcp` scratch → archive.
    pub fn archive_tree(&self, src: &str, dst: &str, config: &PftoolConfig) -> CopyReport {
        let nodes = self.machines(config.workers);
        pfcp(
            &self.scratch_view,
            src,
            &self.archive_view,
            dst,
            config,
            &nodes,
        )
    }

    /// `pfcp` archive → scratch (restores from tape as needed).
    pub fn retrieve_tree(&self, src: &str, dst: &str, config: &PftoolConfig) -> CopyReport {
        // Recalls need the catalog current.
        self.export_catalog();
        let nodes = self.machines(config.workers);
        pfcp(
            &self.archive_view,
            src,
            &self.scratch_view,
            dst,
            config,
            &nodes,
        )
    }

    /// `pfcm` scratch vs archive (post-archive integrity check).
    pub fn verify_tree(&self, src: &str, dst: &str, config: &PftoolConfig) -> CompareReport {
        let nodes = self.machines(config.workers);
        pfcm(
            &self.scratch_view,
            src,
            &self.archive_view,
            dst,
            config,
            &nodes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_vfs::Content;

    #[test]
    fn builds_roadrunner_shape() {
        let sys = ArchiveSystem::new(SystemConfig::roadrunner());
        assert_eq!(sys.cluster().node_count(), 10);
        assert_eq!(sys.hsm().server().library().drive_count(), 24);
        assert!(sys.archive().pool_by_name("fast").is_some());
        assert!(sys.archive().pool_by_name("slow").is_some());
        assert!(sys.archive().pool_by_name("tape").unwrap().is_external());
        assert!(sys.archive().exists(crate::trashcan::TRASH_ROOT));
    }

    #[test]
    fn archive_and_verify_roundtrip() {
        let sys = ArchiveSystem::new(SystemConfig::test_small());
        sys.scratch().mkdir_p("/campaign/run1").unwrap();
        for i in 0..8u64 {
            sys.scratch()
                .create_file(
                    &format!("/campaign/run1/f{i}.dat"),
                    100,
                    Content::synthetic(i, 2_000_000 + i * 1000),
                )
                .unwrap();
        }
        let config = PftoolConfig::test_small();
        let report = sys.archive_tree("/campaign", "/archive/campaign", &config);
        assert!(report.stats.ok(), "{:?}", report.stats.errors);
        assert_eq!(report.stats.files, 8);
        let cmp = sys.verify_tree("/campaign", "/archive/campaign", &config);
        assert!(cmp.identical());
    }

    #[test]
    fn small_files_placed_in_slow_pool() {
        let sys = ArchiveSystem::new(SystemConfig::test_small());
        let tiny = sys
            .archive()
            .create_file("/t", 0, Content::synthetic(1, 100))
            .unwrap();
        let big = sys
            .archive()
            .create_file("/b", 0, Content::synthetic(2, 50_000_000))
            .unwrap();
        assert_eq!(
            sys.archive().pool(sys.archive().pool_of(tiny)).name(),
            "slow"
        );
        assert_eq!(
            sys.archive().pool(sys.archive().pool_of(big)).name(),
            "fast"
        );
    }

    #[test]
    fn migration_policy_lists_aged_resident_files() {
        let sys = ArchiveSystem::new(SystemConfig::test_small());
        sys.archive().mkdir_p("/data").unwrap();
        sys.archive()
            .create_file("/data/old", 0, Content::synthetic(1, 1000))
            .unwrap();
        sys.clock()
            .advance_to(copra_simtime::SimInstant::from_secs(7200));
        sys.archive()
            .create_file("/data/new", 0, Content::synthetic(2, 1000))
            .unwrap();
        let engine = sys.migration_policy(SimDuration::from_secs(3600));
        let report = sys.archive().run_policy(&engine);
        let names: Vec<_> = report.lists["migrate"]
            .iter()
            .map(|r| r.path.clone())
            .collect();
        assert_eq!(names, vec!["/data/old"]);
    }
}
