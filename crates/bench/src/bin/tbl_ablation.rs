//! Ablations of the design choices DESIGN.md §6 calls out:
//!
//! * **A1 — aggregation container size** (§6.1 fix): per-drive migration
//!   rate for 8 MB files vs container capacity.
//! * **A2 — fuse chunk size × drive count** (§4.1.2-4): makespan of
//!   migrating one 100 GB file N-to-N as the chunk size varies.
//! * **A3 — reclamation threshold**: volumes reclaimed and bytes moved as
//!   the dead-space threshold varies, on a post-purge archive.
//! * **A4 — "grass files" in parallel** (§7 future work): aggregated
//!   small-file migration scaled across FTA nodes.
//! * **A5 — co-location** (§4 feature list item 5): mounts and makespan to
//!   restore one project's files with and without co-location groups.

use copra_bench::{print_table, write_json, BenchCli};
use copra_cluster::NodeId;
use copra_core::{migrate_candidates, MigrationPolicy};
use copra_fuse::ArchiveFuse;
use copra_hsm::aggregate::migrate_aggregated;
use copra_hsm::{reclaim_eligible, DataPath, Hsm};
use copra_simtime::{DataSize, SimInstant};
use copra_tape::TapeTiming;
use copra_vfs::Content;
use copra_workloads::{populate, small_file_storm};
use serde::Serialize;

#[derive(Serialize)]
struct A1Row {
    container_mb: u64,
    containers: usize,
    mb_s: f64,
}

fn a1_container_size(cli: &BenchCli) -> Vec<A1Row> {
    let mut rows = Vec::new();
    for container_mb in [16u64, 64, 256, 1024, 4096] {
        let h = cli.hsm_rig(1, 1, 64, 16, TapeTiming::lto4());
        let tree = small_file_storm(200, 8_000_000, 3);
        populate(h.pfs(), "/data", &tree);
        let records = h.pfs().scan_records();
        let files: Vec<_> = records.iter().map(|r| (r.ino, r.path.as_str())).collect();
        let out = migrate_aggregated(
            &h,
            &files,
            NodeId(0),
            DataPath::LanFree,
            DataSize::mb(container_mb),
            SimInstant::EPOCH,
            true,
        )
        .unwrap();
        rows.push(A1Row {
            container_mb,
            containers: out.containers,
            mb_s: copra_bench::mb_per_sec(tree.total_bytes(), SimInstant::EPOCH, out.end),
        });
    }
    rows
}

#[derive(Serialize)]
struct A2Row {
    chunk_gb: u64,
    drives: usize,
    chunks: usize,
    makespan_s: f64,
}

fn a2_fuse_chunk_size(cli: &BenchCli) -> Vec<A2Row> {
    let mut rows = Vec::new();
    for chunk_gb in [2u64, 5, 10, 25, 50] {
        for drives in [4usize, 8] {
            let h = cli.hsm_rig(drives, drives, 64, 16, TapeTiming::lto4());
            let fuse = ArchiveFuse::new(h.pfs().clone(), DataSize::gb(50), DataSize::gb(chunk_gb));
            h.pfs().mkdir_p("/data").unwrap();
            fuse.write_file("/data/big", 0, Content::synthetic(1, 100_000_000_000))
                .unwrap();
            let records = h.pfs().scan_records();
            let nodes: Vec<NodeId> = h.cluster().nodes().collect();
            let report = migrate_candidates(
                &h,
                &records,
                &nodes,
                MigrationPolicy::SizeBalanced,
                DataPath::LanFree,
                SimInstant::EPOCH,
                true,
                None,
            );
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            rows.push(A2Row {
                chunk_gb,
                drives,
                chunks: report.files,
                makespan_s: report.makespan.as_secs_f64(),
            });
        }
    }
    rows
}

#[derive(Serialize)]
struct A3Row {
    threshold_pct: u64,
    volumes_reclaimed: usize,
    moved_gb: f64,
    scratch_recovered: usize,
}

fn a3_reclaim_threshold(cli: &BenchCli) -> Vec<A3Row> {
    let mut rows = Vec::new();
    for threshold_pct in [30u64, 50, 70, 90] {
        let h = cli.hsm_rig(2, 2, 24, 16, TapeTiming::lto4());
        let pfs = h.pfs().clone();
        // Fill several volumes, then delete a varying share per volume by
        // deleting every file whose index hits a modulus.
        let mut cursor = SimInstant::EPOCH;
        let mut all = Vec::new();
        for i in 0..120u64 {
            let ino = pfs
                .create_file(&format!("/f{i:03}"), 0, Content::synthetic(i, 40_000_000))
                .unwrap();
            let (objid, t) = h
                .migrate_file(
                    ino,
                    NodeId((i % 2) as u32),
                    DataPath::LanFree,
                    cursor,
                    true,
                    None,
                )
                .unwrap();
            cursor = t;
            all.push((ino, objid, format!("/f{i:03}")));
        }
        for (i, (_, objid, path)) in all.iter().enumerate() {
            if i % 3 != 0 {
                cursor = h.server().delete_object(*objid, cursor).unwrap();
                pfs.unlink(path).unwrap();
            }
        }
        let reports = reclaim_eligible(h.server(), threshold_pct as f64 / 100.0, cursor).unwrap();
        rows.push(A3Row {
            threshold_pct,
            volumes_reclaimed: reports.len(),
            moved_gb: reports
                .iter()
                .map(|(_, r)| r.moved_bytes as f64 / 1e9)
                .sum(),
            scratch_recovered: reports.iter().filter(|(_, r)| r.erased).count(),
        });
    }
    rows
}

#[derive(Serialize)]
struct A4Row {
    nodes: usize,
    files: usize,
    makespan_s: f64,
    mb_s: f64,
    speedup: f64,
}

/// §7 future work: "an efficient solution for archiving very large number
/// of small files in parallel (i.e. very large number grass files parallel
/// copy problem)" — aggregation (A1) composed with the size-balanced
/// migrator gives node-parallel aggregated migration.
fn a4_grass_files(cli: &BenchCli) -> Vec<A4Row> {
    let mut rows = Vec::new();
    let mut base = None;
    for nodes in [1usize, 2, 4, 8] {
        let h = cli.hsm_rig(nodes, nodes.max(2), 128, 16, TapeTiming::lto4());
        let tree = small_file_storm(10_000, 4_000_000, 5); // 10k x 4 MB grass
        populate(h.pfs(), "/grass", &tree);
        let records = h.pfs().scan_records();
        let node_list: Vec<NodeId> = h.cluster().nodes().collect();
        let report = migrate_candidates(
            &h,
            &records,
            &node_list,
            MigrationPolicy::SizeBalanced,
            DataPath::LanFree,
            SimInstant::EPOCH,
            true,
            Some((DataSize::mb(64), DataSize::gb(1))),
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let secs = report.makespan.as_secs_f64();
        let b = *base.get_or_insert(secs);
        rows.push(A4Row {
            nodes,
            files: report.files,
            makespan_s: secs,
            mb_s: copra_bench::mb_per_sec(report.bytes, SimInstant::EPOCH, report.makespan),
            speedup: b / secs,
        });
    }
    rows
}

#[derive(Serialize)]
struct A5Row {
    mode: String,
    tapes_holding_project: usize,
    restore_mounts: u64,
    restore_secs: f64,
}

/// §4 feature list item 5: steer each project's objects to its own volume
/// so restoring a project touches one cartridge instead of many. Also
/// returns the last rig it built.
fn a5_collocation(cli: &BenchCli) -> (Vec<A5Row>, Option<Hsm>) {
    use copra_hsm::{RecallPolicy, RecallRequest};
    let mut rows = Vec::new();
    let mut rig = None;
    for collocated in [false, true] {
        let h = cli.hsm_rig(4, 4, 32, 16, TapeTiming::lto4());
        let pfs = h.pfs().clone();
        let projects = ["alpha", "beta", "gamma", "delta"];
        for p in projects {
            pfs.mkdir_p(&format!("/{p}")).unwrap();
        }
        let mut cursor = SimInstant::EPOCH;
        let mut alpha_files = Vec::new();
        // Projects' files arrive interleaved (as real campaigns do); each
        // file is migrated by a different agent, so without co-location
        // the per-agent sticky volumes stripe every project over many
        // tapes.
        for i in 0..48u64 {
            let project = projects[(i % 4) as usize];
            let path = format!("/{project}/f{i:03}");
            let ino = pfs
                .create_file(&path, 0, Content::synthetic(i, 50_000_000))
                .unwrap();
            // decoupled from the project cycle so a project's files pass
            // through different agents (the realistic mover assignment)
            let node = NodeId((i % 3) as u32);
            let group = collocated.then_some(project);
            let (_, t) = h
                .migrate_file(ino, node, DataPath::LanFree, cursor, true, group)
                .unwrap();
            cursor = t;
            if project == "alpha" {
                alpha_files.push(ino);
            }
        }
        // How scattered is project alpha?
        let tapes: std::collections::BTreeSet<u32> = alpha_files
            .iter()
            .map(|ino| {
                let objid = pfs.hsm_objid(*ino).unwrap().unwrap();
                h.server().get(objid).unwrap().addr.tape.0
            })
            .collect();
        // Quiesce: dismount everything, as hours pass between the campaign
        // and the restore — every volume the restore needs must re-mount.
        let lib = h.server().library().clone();
        for d in lib.drives() {
            cursor = lib.dismount(d, cursor).unwrap();
        }
        // Restore alpha.
        let mounts_before = h.server().library().stats().totals.mounts;
        let reqs: Vec<RecallRequest> = alpha_files
            .iter()
            .map(|&ino| RecallRequest { ino })
            .collect();
        let out = h
            .recall_batch(&reqs, RecallPolicy::TapeAffinity, DataPath::LanFree, cursor)
            .unwrap();
        let mounts = h.server().library().stats().totals.mounts - mounts_before;
        rows.push(A5Row {
            mode: if collocated { "collocated" } else { "stock" }.to_string(),
            tapes_holding_project: tapes.len(),
            restore_mounts: mounts,
            restore_secs: out.makespan.saturating_since(cursor).as_secs_f64(),
        });
        rig = Some(h);
    }
    (rows, rig)
}

fn main() {
    let cli = BenchCli::parse();
    let a1 = a1_container_size(&cli);
    print_table(
        "A1: aggregation container size (200 x 8 MB files, 1 drive)",
        &["container MB", "containers", "MB/s"],
        &a1.iter()
            .map(|r| {
                vec![
                    r.container_mb.to_string(),
                    r.containers.to_string(),
                    format!("{:.1}", r.mb_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_json("tbl_ablation_a1", &a1);

    let a2 = a2_fuse_chunk_size(&cli);
    print_table(
        "A2: fuse chunk size x drives (one 100 GB file, N-to-N migration)",
        &["chunk GB", "drives", "chunks", "makespan s"],
        &a2.iter()
            .map(|r| {
                vec![
                    r.chunk_gb.to_string(),
                    r.drives.to_string(),
                    r.chunks.to_string(),
                    format!("{:.0}", r.makespan_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_json("tbl_ablation_a2", &a2);

    let a3 = a3_reclaim_threshold(&cli);
    print_table(
        "A3: reclamation threshold (120 x 40 MB migrated, 2/3 deleted)",
        &[
            "threshold %",
            "volumes reclaimed",
            "moved GB",
            "scratch recovered",
        ],
        &a3.iter()
            .map(|r| {
                vec![
                    r.threshold_pct.to_string(),
                    r.volumes_reclaimed.to_string(),
                    format!("{:.1}", r.moved_gb.max(0.0)),
                    r.scratch_recovered.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_json("tbl_ablation_a3", &a3);

    let a4 = a4_grass_files(&cli);
    print_table(
        "A4: grass files in parallel (10k x 4 MB, aggregated, size-balanced)",
        &["nodes", "files", "makespan s", "MB/s", "speedup"],
        &a4.iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    r.files.to_string(),
                    format!("{:.0}", r.makespan_s),
                    format!("{:.1}", r.mb_s),
                    format!("{:.2}x", r.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_json("tbl_ablation_a4", &a4);

    let (a5, rig) = a5_collocation(&cli);
    print_table(
        "A5: co-location (4 projects interleaved, restore one project)",
        &["mode", "project on N tapes", "restore mounts", "restore s"],
        &a5.iter()
            .map(|r| {
                vec![
                    r.mode.clone(),
                    r.tapes_holding_project.to_string(),
                    r.restore_mounts.to_string(),
                    format!("{:.0}", r.restore_secs),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_json("tbl_ablation_a5", &a5);
    cli.finish(&rig);
    println!("\n  A1: bigger containers amortize backhitches until streaming dominates.");
    println!("  A2: smaller chunks spread one file over more drives; too small adds");
    println!("      per-transaction overhead back in.");
    println!("  A3: lower thresholds reclaim more volumes but move more live data.");
    println!("  A4: aggregation composes with node parallelism — the paper's 'grass");
    println!("      files' future-work item.");
    println!("  A5: co-location keeps a project on one volume; stock per-agent");
    println!("      stickiness stripes it across the library.");
}
