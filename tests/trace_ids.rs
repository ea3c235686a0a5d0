//! Span identity over whole traced runs: every span id is unique.
//!
//! Span ids are derived from (parent, name, key), so a root keyed by a
//! value that repeats across calls (a batch size, a thread count, an ino
//! submitted twice) collides with an earlier root, and the phase table
//! merges the children of both. These runs repeat exactly those values —
//! equal-sized waves, one scan width, a few files recalled many times —
//! and must still record no duplicate id. PFTool keys its per-file spans
//! by inode and offset, so a copy and a compare of the same tree, with
//! files split into chunks at several offsets, must not collide either.

use copra::cluster::NodeId;
use copra::core::{migrate_candidates, ArchiveSystem, MigrationPolicy, SyncDeleter, SystemConfig};
use copra::hsm::{DataPath, RecallPolicy, RecallRequest};
use copra::pfs::{Cmp, HsmState, PolicyEngine, Predicate, Rule};
use copra::pftool::PftoolConfig;
use copra::simtime::{DataSize, SimDuration, SimInstant};
use copra::stager::{MigrateRequest, StagerConfig};
use copra::trace::Tracer;
use copra::vfs::Content;

const DAY: u64 = 86_400;
const WAVES: u64 = 3;

#[test]
fn traced_ilm_rounds_record_no_duplicate_span_ids() {
    let tracer = Tracer::armed(7);
    let sys = ArchiveSystem::new(SystemConfig::test_small().with_tracer(tracer.clone()));
    let pfs = sys.archive();
    // Equal waves, one a day: 12 small files that aggregate, 2 that go solo.
    for w in 0..WAVES {
        sys.clock().advance_to(SimInstant::from_secs(w * DAY));
        pfs.mkdir_p(&format!("/proj/w{w}")).unwrap();
        for i in 0..14u64 {
            let size = if i < 12 { 64 << 10 } else { 4 << 20 };
            let path = format!("/proj/w{w}/f{i:02}");
            pfs.create_file(&path, 0, Content::synthetic(w * 100 + i, size))
                .unwrap();
        }
    }
    let engine = PolicyEngine::new(vec![
        Rule::list(
            "aged-resident",
            "migrate",
            Predicate::Hsm(HsmState::Resident).and(Predicate::MtimeAge(
                Cmp::Ge,
                SimDuration::from_secs(3 * DAY / 2),
            )),
        ),
        Rule::list("cold", "cold", Predicate::Hsm(HsmState::Migrated)),
    ]);
    let nodes: Vec<NodeId> = sys.cluster().nodes().collect();
    let deleter = SyncDeleter::new(sys.hsm().clone(), sys.catalog().clone());
    let mut cursor = SimInstant::EPOCH;
    for round in 0..WAVES {
        // Round r finds exactly wave r aged.
        let now = cursor.max(SimInstant::from_secs((round + 2) * DAY));
        sys.clock().advance_to(now);
        let report = pfs.run_policy_with(&engine, 2);
        let aged = &report.lists["migrate"];
        assert_eq!(aged.len(), 14, "round {round}");
        let mig = migrate_candidates(
            sys.hsm(),
            aged,
            &nodes,
            MigrationPolicy::SizeBalanced,
            DataPath::LanFree,
            now,
            true,
            Some((DataSize::mb(1), DataSize::mb(4))),
        );
        assert!(mig.errors.is_empty(), "{:?}", mig.errors);
        sys.export_catalog();
        // Recall one cold file, purge another.
        let cold = pfs.run_policy_with(&engine, 2).lists["cold"].clone();
        let requests = [RecallRequest { ino: cold[0].ino }];
        let recalled = sys
            .hsm()
            .recall_batch(
                &requests,
                RecallPolicy::TapeAffinity,
                DataPath::LanFree,
                mig.makespan,
            )
            .unwrap();
        let purged = deleter.purge(&cold[1..2], recalled.makespan);
        assert!(purged.errors.is_empty(), "{:?}", purged.errors);
        cursor = purged.end;
    }
    let report = tracer.report().unwrap();
    assert_eq!(report.spans_named("pfs.run_policy").count(), 6);
    assert!(report.spans_named("hsm.migrate_aggregated").count() >= WAVES as usize);
    assert!(report.spans_named("hsm.migrate").count() >= 2 * WAVES as usize);
    assert_eq!(report.duplicate_ids(), 0);
}

#[test]
fn traced_stager_storm_records_no_duplicate_span_ids() {
    let tracer = Tracer::armed(11);
    let config = SystemConfig::test_small()
        .with_stager(StagerConfig::default())
        .with_tracer(tracer.clone());
    let sys = ArchiveSystem::new(config);
    let stager = sys.stager().expect("stager configured").clone();
    sys.archive().mkdir_p("/camp").unwrap();
    let mut t = SimInstant::EPOCH;
    for i in 0..6u64 {
        let path = format!("/camp/f{i}");
        sys.archive()
            .create_file(&path, 0, Content::synthetic(i, 8 << 20))
            .unwrap();
        t = sys
            .migrate(&MigrateRequest::new(path).punch(true), t)
            .unwrap();
    }
    // 60 recalls over 6 files: every file is submitted ten times, as a
    // miss, a coalesced queue entry or a pool hit.
    for i in 0..60u64 {
        let at = t + SimDuration::from_secs(i * 5);
        stager.dispatch_round(at).unwrap();
        let req = copra::stager::RecallRequest::new(format!("/camp/f{}", (i * 7) % 6))
            .user((i % 3) as u32);
        stager.submit(req, at).unwrap();
    }
    stager.drain(t + SimDuration::from_secs(300)).unwrap();
    let report = tracer.report().unwrap();
    assert_eq!(report.spans_named("stager.submit").count(), 60);
    assert!(report.spans_named("stager.dispatch").count() >= 6);
    assert_eq!(report.duplicate_ids(), 0);
}

#[test]
fn traced_pfcp_pfcm_record_no_duplicate_span_ids() {
    let tracer = Tracer::armed(13);
    let sys = ArchiveSystem::new(SystemConfig::test_small().with_tracer(tracer.clone()));
    let config = PftoolConfig::test_small();
    let scratch = sys.scratch();
    scratch.mkdir_p("/camp/a/deep").unwrap();
    scratch.mkdir_p("/camp/b").unwrap();
    let mut files = vec![
        // Above the parallel-copy threshold: copies and compares at
        // several offsets of one file.
        (
            "/camp/a/big".to_string(),
            config.parallel_copy_threshold.as_bytes() + (40 << 20),
        ),
        // Above the archive's fuse threshold: chunk files that all start
        // at destination offset 0.
        ("/camp/b/huge".to_string(), 250 << 20),
    ];
    for i in 0..6u64 {
        let dir = ["/camp", "/camp/a", "/camp/a/deep"][i as usize % 3];
        files.push((format!("{dir}/f{i}"), 4096 * (i + 1)));
    }
    for (i, (path, size)) in files.iter().enumerate() {
        scratch
            .create_file(path, 0, Content::synthetic(i as u64, *size))
            .unwrap();
    }
    let copy = sys.archive_tree("/camp", "/archive/camp", &config);
    assert!(copy.stats.ok(), "{:?}", copy.stats.errors);
    let cmp = sys.verify_tree("/camp", "/archive/camp", &config);
    assert!(
        cmp.identical(),
        "{:?} / {:?}",
        cmp.mismatches,
        cmp.stats.errors
    );

    let report = tracer.report().unwrap();
    let runs: Vec<_> = report.spans_named("pftool.run").map(|s| s.id).collect();
    assert_eq!(runs.len(), 2);
    for run in runs {
        let requests = report
            .spans_named("pftool.request")
            .filter(|s| s.parent == Some(run))
            .count();
        assert_eq!(requests, files.len());
    }
    assert!(report.spans_named("pftool.copy").count() > files.len());
    assert!(report.spans_named("pftool.compare").count() > files.len());
    assert_eq!(report.duplicate_ids(), 0);
}

/// One tracer given at construction reaches every layer: a policy run on
/// the scratch file system, one on the archive and an HSM migrate all
/// record into its one store.
#[test]
fn with_tracer_records_scratch_archive_and_hsm_spans_into_one_store() {
    let tracer = Tracer::armed(17);
    let sys = ArchiveSystem::new(SystemConfig::test_small().with_tracer(tracer.clone()));
    let engine = PolicyEngine::new(vec![Rule::list("all", "all", Predicate::True)]);
    sys.scratch()
        .create_file("/s", 0, Content::synthetic(1, 4096))
        .unwrap();
    let ino = sys
        .archive()
        .create_file("/a", 0, Content::synthetic(2, 4 << 20))
        .unwrap();
    assert_eq!(sys.scratch().run_policy(&engine).lists["all"].len(), 1);
    let scratch_runs = tracer
        .report()
        .unwrap()
        .spans_named("pfs.run_policy")
        .count();
    assert_eq!(scratch_runs, 1, "the scratch file system records spans");
    sys.archive().run_policy(&engine);
    sys.hsm()
        .migrate_file(
            ino,
            NodeId(0),
            DataPath::LanFree,
            SimInstant::EPOCH,
            true,
            None,
        )
        .unwrap();
    let report = tracer.report().unwrap();
    assert_eq!(report.spans_named("pfs.run_policy").count(), 2);
    assert_eq!(report.spans_named("hsm.migrate").count(), 1);
    assert_eq!(report.duplicate_ids(), 0);
}
