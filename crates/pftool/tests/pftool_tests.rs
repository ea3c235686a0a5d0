//! End-to-end tests of the PFTool engine over the full substrate stack.

use copra_cluster::{FtaCluster, NodeId};
use copra_fuse::{ArchiveFuse, ChunkInfo};
use copra_hsm::{DataPath, Hsm, PlacementPolicy, TsmServer};
use copra_metadb::TsmCatalog;
use copra_obs::Registry;
use copra_pfs::{Pfs, PfsBuilder, PoolConfig};
use copra_pftool::{pfcm, pfcp, pfls, FsView, PftoolConfig};
use copra_simtime::{Clock, DataSize, SimInstant};
use copra_tape::{TapeFleet, TapeTiming};
use copra_vfs::{ChunkMark, Content};
use std::sync::Arc;

/// A full test rig: scratch FS, archive FS with HSM + fuse + catalog, one
/// cluster, one tape library.
struct Rig {
    clock: Clock,
    scratch: FsView,
    archive: FsView,
    hsm: Hsm,
    catalog: Arc<TsmCatalog>,
}

fn rig() -> Rig {
    let clock = Clock::new();
    let cluster = FtaCluster::new(4);
    let scratch_pfs = PfsBuilder::scratch("scratch", clock.clone(), 8).build();
    let archive_pfs = PfsBuilder::new("archive", clock.clone())
        .pool(PoolConfig::fast_disk("fast", 8, DataSize::tb(100)))
        .pool(PoolConfig::external("tape"))
        .build();
    let library = TapeFleet::new(1, 4, 16, TapeTiming::lto4(), Registry::new());
    let server = TsmServer::roadrunner(library);
    let hsm = Hsm::new(
        archive_pfs.clone(),
        server,
        cluster.clone(),
        PlacementPolicy::Single,
    );
    // Small fuse threshold so tests exercise chunking cheaply.
    let fuse = ArchiveFuse::new(archive_pfs.clone(), DataSize::mb(200), DataSize::mb(50));
    let catalog = Arc::new(TsmCatalog::new());
    let scratch = FsView::plain(scratch_pfs, cluster.clone());
    let archive = FsView::archive(archive_pfs, fuse, hsm.clone(), catalog.clone(), cluster);
    Rig {
        clock,
        scratch,
        archive,
        hsm,
        catalog,
    }
}

fn populate_tree(pfs: &Pfs) -> (usize, u64) {
    pfs.mkdir_p("/proj/run1").unwrap();
    pfs.mkdir_p("/proj/run2/deep").unwrap();
    let mut files = 0;
    let mut bytes = 0;
    for (i, (path, size)) in [
        ("/proj/a.dat", 3_000_000u64),
        ("/proj/run1/b.dat", 12_000_000),
        ("/proj/run1/c.dat", 500),
        ("/proj/run2/d.dat", 7_000_000),
        ("/proj/run2/deep/e.dat", 64),
        ("/proj/run2/deep/empty", 0),
    ]
    .iter()
    .enumerate()
    {
        pfs.create_file(
            path,
            1000 + i as u32,
            Content::synthetic(i as u64 + 1, *size),
        )
        .unwrap();
        files += 1;
        bytes += size;
    }
    (files, bytes)
}

fn cfg() -> PftoolConfig {
    PftoolConfig::test_small()
}

#[test]
fn pfls_lists_whole_tree() {
    let r = rig();
    let (files, bytes) = populate_tree(&r.scratch.pfs);
    let report = pfls(&r.scratch, "/proj", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.files as usize, files);
    assert_eq!(report.stats.bytes, bytes);
    assert_eq!(report.stats.dirs, 3); // run1, run2, run2/deep
    let file_lines = report.lines.iter().filter(|l| l.starts_with("f ")).count();
    assert_eq!(file_lines, files);
}

#[test]
fn pfcp_copies_tree_and_pfcm_verifies() {
    let r = rig();
    let (files, bytes) = populate_tree(&r.scratch.pfs);
    let report = pfcp(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.files as usize, files);
    assert_eq!(report.stats.bytes, bytes);
    assert!(report.stats.sim_end > report.stats.sim_start);

    // Spot-check one file byte-for-byte.
    let src = r.scratch.pfs.read_resident("/proj/run1/b.dat").unwrap();
    let dst = r
        .archive
        .pfs
        .read_resident("/arch/proj/run1/b.dat")
        .unwrap();
    assert!(src.eq_content(&dst));

    // pfcm agrees.
    let cmp = pfcm(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    assert!(
        cmp.identical(),
        "{:?} / {:?}",
        cmp.mismatches,
        cmp.stats.errors
    );
    assert_eq!(cmp.stats.files as usize, files);
}

#[test]
fn pfcm_detects_corruption() {
    let r = rig();
    populate_tree(&r.scratch.pfs);
    pfcp(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    // Corrupt one byte range at the destination.
    let ino = r.archive.pfs.resolve("/arch/proj/run2/d.dat").unwrap();
    r.archive
        .pfs
        .write_at(ino, 1_000_000, Content::literal(&b"XYZZY"[..]))
        .unwrap();
    let cmp = pfcm(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    assert_eq!(cmp.mismatches, vec!["/proj/run2/d.dat".to_string()]);
    assert!(!cmp.identical());
}

#[test]
fn large_file_copies_in_parallel_chunks() {
    let r = rig();
    r.scratch.pfs.mkdir_p("/proj").unwrap();
    // 100 MB with a 64 MB threshold and 16 MB chunks → 7 chunk jobs.
    r.scratch
        .pfs
        .create_file("/proj/big.dat", 0, Content::synthetic(9, 100_000_000))
        .unwrap();
    let report = pfcp(&r.scratch, "/proj", &r.archive, "/dst", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.bytes, 100_000_000);
    let src = r.scratch.pfs.read_resident("/proj/big.dat").unwrap();
    let dst = r.archive.pfs.read_resident("/dst/big.dat").unwrap();
    assert!(src.eq_content(&dst));

    // More workers should cut simulated time vs a single worker.
    let r2 = rig();
    r2.scratch.pfs.mkdir_p("/proj").unwrap();
    r2.scratch
        .pfs
        .create_file("/proj/big.dat", 0, Content::synthetic(9, 100_000_000))
        .unwrap();
    let solo = PftoolConfig {
        workers: 1,
        ..cfg()
    };
    let solo_report = pfcp(&r2.scratch, "/proj", &r2.archive, "/dst", &solo, &[]);
    assert!(
        report.stats.sim_seconds() < solo_report.stats.sim_seconds(),
        "parallel {} vs solo {}",
        report.stats.sim_seconds(),
        solo_report.stats.sim_seconds()
    );
}

#[test]
fn very_large_file_lands_fuse_chunked() {
    let r = rig();
    r.scratch.pfs.mkdir_p("/proj").unwrap();
    // 250 MB ≥ the rig's 200 MB fuse threshold → chunked dst (50 MB chunks).
    let content = Content::synthetic(11, 250_000_000);
    r.scratch
        .pfs
        .create_file("/proj/huge.dat", 7, content.clone())
        .unwrap();
    let report = pfcp(&r.scratch, "/proj", &r.archive, "/dst", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    let fuse = r.archive.fuse.as_ref().unwrap();
    assert!(fuse.is_chunked("/dst/huge.dat").unwrap());
    let chunks = fuse.chunks("/dst/huge.dat").unwrap();
    assert_eq!(chunks.len(), 5);
    match fuse.read_file("/dst/huge.dat").unwrap() {
        copra_fuse::FuseRead::Data(c) => assert!(c.eq_content(&content)),
        other => panic!("{other:?}"),
    }
    // pfcm verifies the chunked destination against the plain source.
    let cmp = pfcm(&r.scratch, "/proj", &r.archive, "/dst", &cfg(), &[]);
    assert!(cmp.identical(), "{:?}", cmp.mismatches);
}

/// pfcm with a fuse-chunked archive file as its source (archive → scratch)
/// reads that source through the overlay by logical path: a clean copy
/// verifies, and one corrupted chunk is reported under the logical file.
#[test]
fn pfcm_reads_chunked_archive_source_through_fuse() {
    let r = rig();
    r.scratch.pfs.mkdir_p("/proj").unwrap();
    r.scratch
        .pfs
        .create_file("/proj/huge.dat", 7, Content::synthetic(11, 250_000_000))
        .unwrap();
    let out = pfcp(&r.scratch, "/proj", &r.archive, "/arch", &cfg(), &[]);
    assert!(out.stats.ok(), "{:?}", out.stats.errors);
    let fuse = r.archive.fuse.as_ref().unwrap();
    assert!(fuse.is_chunked("/arch/huge.dat").unwrap());
    let back = pfcp(&r.archive, "/arch", &r.scratch, "/back", &cfg(), &[]);
    assert!(back.stats.ok(), "{:?}", back.stats.errors);
    assert_eq!(back.stats.bytes, 250_000_000);

    let cmp = pfcm(&r.archive, "/arch", &r.scratch, "/back", &cfg(), &[]);
    assert!(
        cmp.identical(),
        "{:?} / {:?}",
        cmp.mismatches,
        cmp.stats.errors
    );
    assert_eq!(cmp.stats.files, 1);
    assert_eq!(cmp.stats.bytes, 250_000_000);

    let chunk = r.archive.pfs.resolve("/arch/huge.dat/chunk.00002").unwrap();
    r.archive
        .pfs
        .write_at(chunk, 1_000, Content::literal(&b"XYZZY"[..]))
        .unwrap();
    let cmp = pfcm(&r.archive, "/arch", &r.scratch, "/back", &cfg(), &[]);
    assert_eq!(cmp.mismatches, vec!["/arch/huge.dat".to_string()]);
    assert!(cmp.stats.errors.is_empty(), "{:?}", cmp.stats.errors);
}

/// pfcp onto an existing, larger destination file (restart off) truncates
/// and rewrites it. pfcm looks each destination up when it routes the
/// file, so one unlinked after the copy is a mismatch, not an error.
#[test]
fn pfcp_rewrites_existing_destination_and_pfcm_flags_unlinked_one() {
    let r = rig();
    let (files, bytes) = populate_tree(&r.scratch.pfs);
    r.archive.pfs.mkdir_p("/arch/proj/run2").unwrap();
    r.archive
        .pfs
        .create_file(
            "/arch/proj/run2/d.dat",
            0,
            Content::synthetic(99, 9_000_000),
        )
        .unwrap();
    let report = pfcp(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.files as usize, files);
    assert_eq!(report.stats.bytes, bytes);
    assert_eq!(
        r.archive.pfs.stat("/arch/proj/run2/d.dat").unwrap().size,
        7_000_000
    );
    let cmp = pfcm(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    assert!(
        cmp.identical(),
        "{:?} / {:?}",
        cmp.mismatches,
        cmp.stats.errors
    );

    r.archive.pfs.unlink("/arch/proj/run1/c.dat").unwrap();
    let cmp = pfcm(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    assert_eq!(cmp.mismatches, vec!["/proj/run1/c.dat".to_string()]);
    assert!(cmp.stats.errors.is_empty(), "{:?}", cmp.stats.errors);
    assert_eq!(cmp.stats.files as usize, files);
}

/// Copy-back from the archive when files are migrated to tape: the manager
/// routes them through the TapeCQs and TapeProcs, then copies.
#[test]
fn migrated_sources_are_restored_then_copied() {
    let r = rig();
    let apfs = &r.archive.pfs;
    apfs.mkdir_p("/arch").unwrap();
    let mut cursor = SimInstant::EPOCH;
    let mut originals = Vec::new();
    for i in 0..6u64 {
        let path = format!("/arch/f{i}.dat");
        let content = Content::synthetic(100 + i, 5_000_000);
        let ino = apfs.create_file(&path, 0, content.clone()).unwrap();
        let (_, t) = r
            .hsm
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
        originals.push((path, content));
    }
    r.clock.advance_to(cursor);
    // Export the TSM DB into the indexed replica PFTool queries.
    r.hsm.server().export(&r.catalog);

    let report = pfcp(&r.archive, "/arch", &r.scratch, "/restore", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.tape_restores, 6);
    assert_eq!(report.stats.files, 6);
    for (path, content) in &originals {
        let dst = path.replace("/arch", "/restore");
        let got = r.scratch.pfs.read_resident(&dst).unwrap();
        assert!(got.eq_content(content), "{path} corrupted");
    }
}

/// §4.1.2-2: tape-ordered recall beats unordered recall of the same files.
#[test]
fn tape_ordering_reduces_restore_time() {
    let run = |ordering: bool| -> f64 {
        let r = rig();
        let apfs = &r.archive.pfs;
        apfs.mkdir_p("/arch").unwrap();
        let mut cursor = SimInstant::EPOCH;
        // Write 16 files to tape through one agent (same volume, ascending
        // seq); then list them in a scrambled order via directory naming.
        let scramble = [11u64, 3, 14, 7, 0, 9, 2, 15, 5, 12, 1, 8, 13, 4, 10, 6];
        for i in scramble {
            let path = format!("/arch/f{i:02}.dat");
            let ino = apfs
                .create_file(&path, 0, Content::synthetic(i, 50_000_000))
                .unwrap();
            let (_, t) = r
                .hsm
                .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
                .unwrap();
            cursor = t;
        }
        r.clock.advance_to(cursor);
        r.hsm.server().export(&r.catalog);
        let config = PftoolConfig {
            tape_ordering: ordering,
            tape_procs: 1,
            ..cfg()
        };
        let report = pfcp(&r.archive, "/arch", &r.scratch, "/restore", &config, &[]);
        assert!(report.stats.ok(), "{:?}", report.stats.errors);
        assert_eq!(report.stats.tape_restores, 16);
        report.stats.sim_seconds()
    };
    let ordered = run(true);
    let unordered = run(false);
    assert!(
        ordered < unordered,
        "ordered {ordered}s should beat unordered {unordered}s"
    );
}

/// §4.5: restart skips files already complete at the destination.
#[test]
fn restart_skips_up_to_date_files() {
    let r = rig();
    let (files, bytes) = populate_tree(&r.scratch.pfs);
    let first = pfcp(&r.scratch, "/proj", &r.archive, "/arch", &cfg(), &[]);
    assert!(first.stats.ok());
    // Advance time so destination mtimes are >= source mtimes from the
    // copy, then re-run with restart on.
    r.clock.advance_to(SimInstant::from_secs(10_000));
    let config = PftoolConfig {
        restart: true,
        ..cfg()
    };
    let second = pfcp(&r.scratch, "/proj", &r.archive, "/arch", &config, &[]);
    assert!(second.stats.ok(), "{:?}", second.stats.errors);
    assert_eq!(second.stats.skipped_files as usize, files);
    assert_eq!(second.stats.skipped_bytes, bytes);
    assert_eq!(second.stats.bytes, 0, "nothing should be re-sent");
}

/// §4.5 chunk marking: only stale chunks of a very large file are resent.
#[test]
fn restart_resends_only_stale_chunks() {
    let r = rig();
    r.scratch.pfs.mkdir_p("/proj").unwrap();
    let content = Content::synthetic(21, 250_000_000); // 5 fuse chunks
    r.scratch
        .pfs
        .create_file("/proj/huge.dat", 0, content.clone())
        .unwrap();
    let first = pfcp(&r.scratch, "/proj", &r.archive, "/dst", &cfg(), &[]);
    assert!(first.stats.ok());

    // Corrupt one destination chunk (fingerprint mismatch) and delete
    // another — both must be re-sent, the other three skipped.
    let fuse = r.archive.fuse.as_ref().unwrap();
    let chunks = fuse.chunks("/dst/huge.dat").unwrap();
    let mark = ChunkMark::Chunk { fingerprint: 999 };
    r.archive
        .pfs
        .vfs()
        .set_chunk_mark(chunks[1].ino, mark)
        .unwrap();
    r.archive.pfs.unlink(&chunks[3].path).unwrap();

    let config = PftoolConfig {
        restart: true,
        ..cfg()
    };
    let second = pfcp(&r.scratch, "/proj", &r.archive, "/dst", &config, &[]);
    assert!(second.stats.ok(), "{:?}", second.stats.errors);
    assert_eq!(second.stats.bytes, 100_000_000, "two 50 MB chunks resent");
    assert_eq!(second.stats.skipped_bytes, 150_000_000);
    match fuse.read_file("/dst/huge.dat").unwrap() {
        copra_fuse::FuseRead::Data(c) => assert!(c.eq_content(&content)),
        other => panic!("{other:?}"),
    }
}

/// ArchiveFUSE's own write and pfcp's N-to-N copy lay a chunked file out
/// alike: the same manifest, logical size and marks, so neither copy finds
/// a chunk of the other stale.
#[test]
fn fuse_write_and_pfcp_lay_out_chunks_alike() {
    let r = rig();
    let content = Content::synthetic(33, 230_000_000); // 4 × 50 MB + 30 MB
    r.scratch.pfs.mkdir_p("/proj").unwrap();
    r.scratch
        .pfs
        .create_file("/proj/big.dat", 7, content.clone())
        .unwrap();
    let copied = pfcp(&r.scratch, "/proj", &r.archive, "/dst", &cfg(), &[]);
    assert!(copied.stats.ok(), "{:?}", copied.stats.errors);
    let fuse = r.archive.fuse.as_ref().unwrap();
    fuse.pfs().mkdir_p("/direct").unwrap();
    fuse.write_file("/direct/big.dat", 7, content).unwrap();

    let (written, copied) = ("/direct/big.dat", "/dst/big.dat");
    let (a, b) = (fuse.chunks(written).unwrap(), fuse.chunks(copied).unwrap());
    let key = |c: &ChunkInfo| (c.index, c.len, c.fingerprint);
    assert_eq!(a.len(), 5);
    assert_eq!(
        a.iter().map(key).collect::<Vec<_>>(),
        b.iter().map(key).collect::<Vec<_>>()
    );
    assert_eq!(fuse.stat(written).unwrap().size, 230_000_000);
    assert_eq!(fuse.stat(copied).unwrap().size, 230_000_000);
    let mark = |path: &str| fuse.pfs().stat(path).unwrap().chunk_mark;
    assert_eq!(
        mark(written),
        Some(ChunkMark::Dir {
            logical: 230_000_000
        })
    );
    assert_eq!(mark(copied), mark(written));
    for (ca, cb) in a.iter().zip(&b) {
        let fingerprint = ca.fingerprint;
        assert_eq!(mark(&ca.path), Some(ChunkMark::Chunk { fingerprint }));
        assert_eq!(mark(&cb.path), mark(&ca.path));
    }
    assert_eq!(fuse.stale_chunks(written, &b), Ok(vec![]));
    assert_eq!(fuse.stale_chunks(copied, &a), Ok(vec![]));
}

/// One 1 MB copy's simulated duration on a fresh rig (stat included).
fn one_copy_secs() -> f64 {
    let r = rig();
    r.scratch.pfs.mkdir_p("/one").unwrap();
    r.scratch
        .pfs
        .create_file("/one/f", 0, Content::synthetic(1, 1_000_000))
        .unwrap();
    let report = pfcp(&r.scratch, "/one", &r.archive, "/dst", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    report.stats.sim_seconds()
}

/// The WatchDog force-terminates a run whose data movement stalls: with a
/// stall budget shorter than one copy's simulated duration, the dog barks
/// at the first copy and the manager drops the queued work.
#[test]
fn watchdog_aborts_stalled_run() {
    let copy_secs = one_copy_secs();
    let r = rig();
    r.scratch.pfs.mkdir_p("/proj").unwrap();
    for i in 0..40u64 {
        r.scratch
            .pfs
            .create_file(
                &format!("/proj/f{i:04}"),
                0,
                Content::synthetic(i, 1_000_000),
            )
            .unwrap();
    }
    let config = PftoolConfig {
        workers: 2,
        watchdog_stall: std::time::Duration::from_secs_f64(copy_secs / 2.0),
        ..cfg()
    };
    let report = pfcp(&r.scratch, "/proj", &r.archive, "/dst", &config, &[]);
    assert!(report.stats.aborted, "watchdog should have aborted the run");
    assert!(
        report.stats.bytes < 40 * 1_000_000,
        "abort should have dropped queued copies"
    );
    // The default budget lets the same run finish.
    let r = rig();
    r.scratch.pfs.mkdir_p("/proj").unwrap();
    r.scratch
        .pfs
        .create_file("/proj/f", 0, Content::synthetic(1, 1_000_000))
        .unwrap();
    let report = pfcp(&r.scratch, "/proj", &r.archive, "/dst", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
}

/// A TapeProc's batch is a whole tape and commits only at its end, yet a
/// tape that restores file after file is progress, not a stall: a batch
/// longer than the stall budget, made of files that each restore well
/// within it, runs to completion.
#[test]
fn long_tape_batch_is_not_a_stall() {
    let r = rig();
    let apfs = &r.archive.pfs;
    apfs.mkdir_p("/arch").unwrap();
    let mut cursor = SimInstant::EPOCH;
    // 24 × 1 GB on one tape: at LTO-4's 120 MB/s the batch streams for
    // at least 200 s, while one file restores in ~8 s (~40 s for the
    // first, which also mounts and locates).
    for i in 0..24u64 {
        let ino = apfs
            .create_file(
                &format!("/arch/f{i:02}.dat"),
                0,
                Content::synthetic(i, 1 << 30),
            )
            .unwrap();
        let (_, t) = r
            .hsm
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
    }
    r.clock.advance_to(cursor);
    r.hsm.server().export(&r.catalog);
    let stall = std::time::Duration::from_secs(60);
    let config = PftoolConfig {
        tape_procs: 1,
        watchdog_stall: stall,
        ..cfg()
    };
    let report = pfcp(&r.archive, "/arch", &r.scratch, "/restore", &config, &[]);
    assert!(!report.stats.aborted, "a restoring tape is not a stall");
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.tape_restores, 24);
    assert_eq!(report.stats.files, 24);
    assert!(
        report.stats.sim_seconds() > 3.0 * stall.as_secs_f64(),
        "the tape batch should outlast the stall budget: {} s",
        report.stats.sim_seconds()
    );
}

/// The WatchDog keeps one ProgressSample per check interval of simulated
/// time: a run spanning many intervals leaves several samples, spaced at
/// least one interval apart, with monotone counters.
#[test]
fn watchdog_samples_progress_on_cadence() {
    let r = rig();
    r.scratch.pfs.mkdir_p("/proj").unwrap();
    for i in 0..12u64 {
        r.scratch
            .pfs
            .create_file(
                &format!("/proj/f{i:02}"),
                0,
                Content::synthetic(i, 1_000_000),
            )
            .unwrap();
    }
    let interval = std::time::Duration::from_secs_f64(one_copy_secs() / 2.0);
    let config = PftoolConfig {
        workers: 1,
        watchdog_interval: interval,
        ..cfg()
    };
    let report = pfcp(&r.scratch, "/proj", &r.archive, "/dst", &config, &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    let samples = &report.stats.progress_samples;
    assert!(
        samples.len() >= 2,
        "a run spanning many intervals should leave several samples, got {}",
        samples.len()
    );
    for pair in samples.windows(2) {
        assert!(
            pair[1].sim_secs - pair[0].sim_secs >= interval.as_secs_f64(),
            "samples closer than the check interval: {pair:?}"
        );
        assert!(
            pair[1].files >= pair[0].files,
            "files went backwards: {pair:?}"
        );
        assert!(
            pair[1].bytes >= pair[0].bytes,
            "bytes went backwards: {pair:?}"
        );
    }
    let last = samples.last().unwrap();
    assert!(last.sim_secs <= report.stats.sim_seconds());
    assert_eq!(last.files, report.stats.files);
    assert_eq!(last.bytes, report.stats.bytes);
}

#[test]
fn single_file_copy_works() {
    let r = rig();
    r.scratch.pfs.mkdir_p("/d").unwrap();
    let content = Content::synthetic(5, 1234);
    r.scratch
        .pfs
        .create_file("/d/one", 9, content.clone())
        .unwrap();
    let report = pfcp(&r.scratch, "/d/one", &r.archive, "/copied/one", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.files, 1);
    let got = r.archive.pfs.read_resident("/copied/one").unwrap();
    assert!(got.eq_content(&content));
    assert_eq!(r.archive.pfs.stat("/copied/one").unwrap().uid, 9);
    let cmp = pfcm(&r.scratch, "/d/one", &r.archive, "/copied/one", &cfg(), &[]);
    assert!(
        cmp.identical(),
        "{:?} / {:?}",
        cmp.mismatches,
        cmp.stats.errors
    );

    // The destination path names the copy, not the source's name.
    let report = pfcp(&r.scratch, "/d/one", &r.archive, "/other/two", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    let got = r.archive.pfs.read_resident("/other/two").unwrap();
    assert!(got.eq_content(&content));
    let cmp = pfcm(&r.scratch, "/d/one", &r.archive, "/other/two", &cfg(), &[]);
    assert!(
        cmp.identical(),
        "{:?} / {:?}",
        cmp.mismatches,
        cmp.stats.errors
    );
    let cmp = pfcm(&r.scratch, "/d/one", &r.archive, "/other/none", &cfg(), &[]);
    assert_eq!(cmp.mismatches, ["/d/one"]);
}

#[test]
fn missing_source_reports_error() {
    let r = rig();
    let report = pfls(&r.scratch, "/nonexistent", &cfg(), &[]);
    assert!(!report.stats.ok());
    assert_eq!(report.stats.files, 0);
}

#[test]
fn empty_directory_copy_is_clean() {
    let r = rig();
    r.scratch.pfs.mkdir_p("/empty").unwrap();
    let report = pfcp(&r.scratch, "/empty", &r.archive, "/dst-empty", &cfg(), &[]);
    assert!(report.stats.ok());
    assert_eq!(report.stats.files, 0);
    assert!(r.archive.pfs.exists("/dst-empty"));
}

/// Premigrated files (tape copy exists, data still on disk) copy straight
/// from disk — no tape restore is triggered.
#[test]
fn premigrated_sources_copy_without_recall() {
    let r = rig();
    let apfs = &r.archive.pfs;
    apfs.mkdir_p("/arch").unwrap();
    let mut cursor = SimInstant::EPOCH;
    for i in 0..4u64 {
        let ino = apfs
            .create_file(&format!("/arch/f{i}"), 0, Content::synthetic(i, 2_000_000))
            .unwrap();
        let (_, t) = r
            .hsm
            .migrate_file(
                ino,
                NodeId(0),
                copra_hsm::DataPath::LanFree,
                cursor,
                false,
                None,
            )
            .unwrap();
        cursor = t;
    }
    r.clock.advance_to(cursor);
    let mounts_before = r.hsm.server().library().stats().totals.mounts;
    let report = pfcp(&r.archive, "/arch", &r.scratch, "/back", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.files, 4);
    assert_eq!(report.stats.tape_restores, 0, "no recall needed");
    assert_eq!(
        r.hsm.server().library().stats().totals.mounts,
        mounts_before,
        "no tape activity at all"
    );
}

/// pfls is tape-aware output: stubs list with their logical size and
/// `migrated` residency, without touching a single tape.
#[test]
fn pfls_shows_residency_without_recalling() {
    let r = rig();
    let apfs = &r.archive.pfs;
    apfs.mkdir_p("/arch").unwrap();
    let ino = apfs
        .create_file("/arch/stub.dat", 7, Content::synthetic(1, 5_000_000))
        .unwrap();
    let (_, t) = r
        .hsm
        .migrate_file(
            ino,
            NodeId(0),
            copra_hsm::DataPath::LanFree,
            SimInstant::EPOCH,
            true,
            None,
        )
        .unwrap();
    apfs.create_file("/arch/hot.dat", 7, Content::synthetic(2, 1000))
        .unwrap();
    r.clock.advance_to(t);
    let reads_before = r.hsm.server().library().stats().totals.bytes_read;
    let report = pfls(&r.archive, "/arch", &cfg(), &[]);
    assert!(report.stats.ok());
    assert_eq!(report.stats.files, 2);
    // logical size reported for the stub
    assert_eq!(report.stats.bytes, 5_001_000);
    let stub_line = report
        .lines
        .iter()
        .find(|l| l.contains("stub.dat"))
        .unwrap();
    assert!(stub_line.contains("5000000"), "{stub_line}");
    assert!(stub_line.contains("migrated"), "{stub_line}");
    let hot_line = report.lines.iter().find(|l| l.contains("hot.dat")).unwrap();
    assert!(hot_line.contains("resident"), "{hot_line}");
    assert_eq!(
        r.hsm.server().library().stats().totals.bytes_read,
        reads_before,
        "listing must not read tape"
    );
}

/// Chunked fuse files with migrated chunks restore through the TapeCQs and
/// reassemble correctly on retrieval.
#[test]
fn chunked_file_with_migrated_chunks_restores() {
    let r = rig();
    let fuse = r.archive.fuse.as_ref().unwrap();
    r.archive.pfs.mkdir_p("/arch").unwrap();
    let content = Content::synthetic(31, 250_000_000); // 5 x 50 MB chunks
    fuse.write_file("/arch/big.bin", 0, content.clone())
        .unwrap();
    // Migrate all chunks to tape.
    let mut cursor = SimInstant::EPOCH;
    for c in fuse.chunks("/arch/big.bin").unwrap() {
        let (_, t) = r
            .hsm
            .migrate_file(
                c.ino,
                NodeId(0),
                copra_hsm::DataPath::LanFree,
                cursor,
                true,
                None,
            )
            .unwrap();
        cursor = t;
    }
    r.clock.advance_to(cursor);
    r.hsm.server().export(&r.catalog);
    let report = pfcp(&r.archive, "/arch", &r.scratch, "/back", &cfg(), &[]);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.tape_restores, 5);
    assert_eq!(report.stats.files, 1, "one logical file");
    let got = r.scratch.pfs.read_resident("/back/big.bin").unwrap();
    assert!(got.eq_content(&content));
}

/// Every device timeline of a rig, named, with its accounting.
fn device_stats(r: &Rig) -> Vec<(String, copra_simtime::TimelineStats)> {
    let cluster = &r.scratch.cluster;
    let mut out = Vec::new();
    for (i, link) in cluster.trunk().members().iter().enumerate() {
        out.push((format!("trunk{i}"), link.stats()));
    }
    for node in cluster.nodes() {
        out.push((format!("nic{}", node.0), cluster.nic(node).stats()));
        out.push((format!("hba{}", node.0), cluster.hba(node).stats()));
    }
    for view in [&r.scratch, &r.archive] {
        for pool in view.pfs.pools() {
            for (i, dev) in pool.devices().iter().flat_map(|d| d.members()).enumerate() {
                out.push((format!("{}.{i}", pool.name()), dev.stats()));
            }
        }
    }
    out.push(("server.nic".into(), r.hsm.server().nic_stats()));
    for (i, drive) in r
        .hsm
        .server()
        .library()
        .drive_timeline_stats()
        .into_iter()
        .enumerate()
    {
        out.push((format!("drive{i}"), drive));
    }
    out
}

/// A run's statistics with the host-dependent wall time blanked out.
fn sim_stats(stats: &copra_pftool::RunStats) -> String {
    let mut stats = stats.clone();
    stats.wall_seconds = 0.0;
    serde_json::to_string(&stats).unwrap()
}

/// PFTool's simulated results are a pure function of the configuration
/// and the input tree: two fresh rigs running pfcp then pfcm give equal
/// statistics and leave every device with the same accounting, at any
/// worker count.
#[test]
fn runs_are_deterministic_at_any_worker_count() {
    for workers in [1usize, 3, 8] {
        let config = PftoolConfig { workers, ..cfg() };
        let run = || {
            let r = rig();
            populate_tree(&r.scratch.pfs);
            for (name, size) in [("big", 100_000_000u64), ("huge", 250_000_000)] {
                r.scratch
                    .pfs
                    .create_file(
                        &format!("/proj/{name}.dat"),
                        0,
                        Content::synthetic(size, size),
                    )
                    .unwrap();
            }
            let copy = pfcp(&r.scratch, "/proj", &r.archive, "/arch/proj", &config, &[]);
            assert!(copy.stats.ok(), "{:?}", copy.stats.errors);
            let cmp = pfcm(&r.scratch, "/proj", &r.archive, "/arch/proj", &config, &[]);
            assert!(cmp.identical(), "{:?}", cmp.mismatches);
            (
                sim_stats(&copy.stats),
                sim_stats(&cmp.stats),
                device_stats(&r),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.0, b.0, "pfcp stats differ at {workers} workers");
        assert_eq!(a.1, b.1, "pfcm stats differ at {workers} workers");
        assert_eq!(a.2, b.2, "device accounting differs at {workers} workers");
    }
}

/// Worker busy/idle events mark idle spells, not jobs: a Worker handed
/// its next job as its last one commits never went idle.
#[test]
fn worker_transitions_mark_idle_spells_not_jobs() {
    for workers in [1usize, 3] {
        let r = rig();
        populate_tree(&r.scratch.pfs);
        let obs = r.hsm.server().obs();
        let (busy, idle) = (
            obs.counter("pftool.worker_busy_transitions"),
            obs.counter("pftool.worker_idle_transitions"),
        );
        let config = PftoolConfig { workers, ..cfg() };
        let copy = pfcp(&r.scratch, "/proj", &r.archive, "/arch/proj", &config, &[]);
        assert!(copy.stats.ok(), "{:?}", copy.stats.errors);
        // Six stats and five copies (the empty file moves no data).
        let jobs = 11;
        assert_eq!(busy.get(), idle.get(), "at {workers} workers");
        assert!(busy.get() >= 1 && busy.get() < jobs, "at {workers} workers");
        if workers == 1 {
            // The lone Worker is fed from the first stat to the last copy.
            assert_eq!(busy.get(), 1);
        }
    }
}

fn errors_of(stats: &copra_pftool::RunStats) -> Vec<(String, String)> {
    let mut errors = stats.errors.clone();
    errors.sort();
    errors
}

/// A destination directory that is gone makes every file below it, at any
/// depth, a mismatch listed by its full source path; none is an error.
#[test]
fn pfcm_lists_every_file_under_a_missing_destination_directory() {
    let r = rig();
    let (files, _) = populate_tree(&r.scratch.pfs);
    let copy = pfcp(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    assert!(copy.stats.ok(), "{:?}", copy.stats.errors);
    r.archive
        .pfs
        .rename("/arch/proj/run2", "/arch/moved")
        .unwrap();
    let cmp = pfcm(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    let mut mismatches = cmp.mismatches.clone();
    mismatches.sort();
    assert_eq!(
        mismatches,
        [
            "/proj/run2/d.dat",
            "/proj/run2/deep/e.dat",
            "/proj/run2/deep/empty"
        ]
    );
    assert!(cmp.stats.errors.is_empty(), "{:?}", cmp.stats.errors);
    assert_eq!(cmp.stats.files as usize, files);
}

/// A regular file where pfcm expects a destination directory: each file
/// below it is an error naming its source path and its destination.
#[test]
fn pfcm_reports_files_under_a_destination_directory_that_is_a_file() {
    let r = rig();
    let (files, _) = populate_tree(&r.scratch.pfs);
    pfcp(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    r.archive
        .pfs
        .rename("/arch/proj/run1", "/arch/moved")
        .unwrap();
    r.archive
        .pfs
        .create_file("/arch/proj/run1", 0, Content::synthetic(7, 10))
        .unwrap();
    let cmp = pfcm(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    assert!(cmp.mismatches.is_empty(), "{:?}", cmp.mismatches);
    let expected: Vec<(String, String)> = ["b.dat", "c.dat"]
        .iter()
        .map(|name| {
            (
                format!("/proj/run1/{name}"),
                format!("/proj/run1/{name}: not a directory: /arch/proj/run1/{name}"),
            )
        })
        .collect();
    assert_eq!(errors_of(&cmp.stats), expected);
    assert_eq!(cmp.stats.files as usize, files);
}

/// pfcp cannot mirror a directory whose destination name a regular file
/// holds: the directory and each file below it are errors naming their
/// destination paths, and the rest of the tree still copies.
#[test]
fn pfcp_names_the_destination_when_a_file_holds_a_directory_name() {
    let r = rig();
    let (files, _) = populate_tree(&r.scratch.pfs);
    r.archive.pfs.mkdir_p("/arch/proj").unwrap();
    r.archive
        .pfs
        .create_file("/arch/proj/run1", 0, Content::synthetic(7, 10))
        .unwrap();
    let copy = pfcp(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    let expected: Vec<(String, String)> = ["", "/b.dat", "/c.dat"]
        .iter()
        .map(|rest| {
            let path = format!("/arch/proj/run1{rest}");
            let msg = format!("not a directory: {path}");
            (path, msg)
        })
        .collect();
    assert_eq!(errors_of(&copy.stats), expected);
    assert_eq!(copy.stats.files as usize, files);
    let cmp = pfcm(
        &r.scratch,
        "/proj/run2",
        &r.archive,
        "/arch/proj/run2",
        &cfg(),
        &[],
    );
    assert!(
        cmp.identical(),
        "{:?} / {:?}",
        cmp.mismatches,
        cmp.stats.errors
    );
}

/// Mismatch lines and copy errors name the full source path of the file.
#[test]
fn mismatch_lines_and_copy_errors_carry_the_full_source_path() {
    let r = rig();
    populate_tree(&r.scratch.pfs);
    pfcp(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    let ino = r.archive.pfs.resolve("/arch/proj/run2/deep/e.dat").unwrap();
    r.archive
        .pfs
        .write_at(ino, 0, Content::literal(&b"XY"[..]))
        .unwrap();
    let cmp = pfcm(&r.scratch, "/proj", &r.archive, "/arch/proj", &cfg(), &[]);
    assert_eq!(cmp.mismatches, ["/proj/run2/deep/e.dat"]);
    assert!(cmp.stats.errors.is_empty(), "{:?}", cmp.stats.errors);

    // Copying a tree onto itself truncates each destination, which is its
    // own source, before the copy reads it: every non-empty file's copy
    // fails, and the error starts with the file's source path.
    let copy = pfcp(&r.scratch, "/proj", &r.scratch, "/proj", &cfg(), &[]);
    let mut failed: Vec<&str> = copy
        .stats
        .errors
        .iter()
        .map(|(_, msg)| msg.split(": ").next().unwrap())
        .collect();
    failed.sort();
    assert_eq!(
        failed,
        [
            "/proj/a.dat",
            "/proj/run1/b.dat",
            "/proj/run1/c.dat",
            "/proj/run2/d.dat",
            "/proj/run2/deep/e.dat"
        ]
    );
    assert!(
        copy.stats
            .errors
            .iter()
            .all(|(_, msg)| msg.contains("invalid range")),
        "{:?}",
        copy.stats.errors
    );
}

/// pfcm lists a file compared in several pieces once, however many of its
/// pieces differ, and counts no bytes for a destination that is missing.
#[test]
fn pfcm_lists_a_chunk_compared_file_once() {
    let r = rig();
    r.scratch.pfs.mkdir_p("/t").unwrap();
    // 100 MB with a 64 MB threshold and 16 MB chunks → 7 compare pieces.
    r.scratch
        .pfs
        .create_file("/t/big", 0, Content::synthetic(9, 100_000_000))
        .unwrap();
    let copy = pfcp(&r.scratch, "/t", &r.archive, "/dst", &cfg(), &[]);
    assert!(copy.stats.ok(), "{:?}", copy.stats.errors);

    r.archive.pfs.unlink("/dst/big").unwrap();
    let cmp = pfcm(&r.scratch, "/t", &r.archive, "/dst", &cfg(), &[]);
    assert_eq!(cmp.mismatches, ["/t/big"]);
    assert!(cmp.stats.errors.is_empty(), "{:?}", cmp.stats.errors);
    assert_eq!(cmp.stats.bytes, 0);

    r.archive
        .pfs
        .create_file("/dst/big", 0, Content::synthetic(99, 100_000_000))
        .unwrap();
    let cmp = pfcm(&r.scratch, "/t", &r.archive, "/dst", &cfg(), &[]);
    assert_eq!(cmp.mismatches, ["/t/big"]);
    assert!(cmp.stats.errors.is_empty(), "{:?}", cmp.stats.errors);
    assert_eq!(cmp.stats.bytes, 100_000_000);
}
