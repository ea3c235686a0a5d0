//! T-SYNCDEL (§4.2.6): synchronous delete vs reconciliation.
//!
//! Paper datum: the stock reconcile agent "does a directory tree-walk and
//! compares each file one by one … for an archive with tens to hundreds of
//! millions of files, the overhead is unacceptable". The synchronous
//! deleter pays a cost proportional to the files actually deleted instead.
//!
//! We migrate N files, delete 1% of them, and compare the simulated time
//! of (a) unlink + reconcile-with-fix and (b) synchronous delete. Both
//! must leave zero orphans.

use copra_bench::{print_table, write_json, BenchCli};
use copra_cluster::NodeId;
use copra_core::SyncDeleter;
use copra_hsm::aggregate::migrate_aggregated;
use copra_hsm::{reconcile, DataPath, Hsm};
use copra_metadb::TsmCatalog;
use copra_simtime::{DataSize, SimInstant};
use copra_tape::TapeTiming;
use copra_workloads::{mixed_tree, populate};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Row {
    files: usize,
    deleted: usize,
    reconcile_secs: f64,
    syncdel_secs: f64,
    advantage: f64,
}

fn build(cli: &BenchCli, files: usize) -> (Hsm, Arc<TsmCatalog>, Vec<String>, SimInstant) {
    let hsm = cli.hsm_rig(4, 8, 256, 16, TapeTiming::lto4());
    let tree = mixed_tree(files, 20_000_000, 1.0, 16, 5);
    populate(hsm.pfs(), "/data", &tree);
    let records = hsm.pfs().scan_records();
    let files: Vec<_> = records.iter().map(|r| (r.ino, r.path.as_str())).collect();
    let out = migrate_aggregated(
        &hsm,
        &files,
        NodeId(0),
        DataPath::LanFree,
        DataSize::gb(4),
        SimInstant::EPOCH,
        true,
    )
    .expect("bulk migration");
    let catalog = Arc::new(TsmCatalog::new());
    hsm.server().export(&catalog);
    let victims: Vec<String> = records
        .iter()
        .step_by(100)
        .map(|r| r.path.clone())
        .collect();
    (hsm, catalog, victims, out.end)
}

fn main() {
    let cli = BenchCli::parse();
    let mut rows = Vec::new();
    let mut rig = None;
    for files in [2_000usize, 10_000, 40_000] {
        // (a) classic: plain unlink then reconcile cleans the orphans.
        let (hsm, _catalog, victims, t0) = build(&cli, files);
        let n_victims = victims.len();
        for v in &victims {
            hsm.pfs().unlink(v).unwrap();
        }
        let rep = reconcile(hsm.pfs(), hsm.server(), t0, true).expect("reconcile");
        assert_eq!(rep.orphans.len(), n_victims);
        let reconcile_secs = rep.end.saturating_since(t0).as_secs_f64();
        let verify = reconcile(hsm.pfs(), hsm.server(), rep.end, false).unwrap();
        assert!(verify.orphans.is_empty());

        // (b) synchronous delete.
        let (hsm, catalog, victims, t0) = build(&cli, files);
        let deleter = SyncDeleter::new(hsm.clone(), catalog);
        let mut cursor = t0;
        let mut deleted = 0;
        for v in &victims {
            let r = deleter.delete_file(v, cursor).expect("syncdel");
            cursor = r.end;
            deleted += r.files_deleted;
        }
        assert_eq!(deleted, n_victims);
        assert!(
            hsm.journal().is_empty(),
            "a finished synchronous delete leaves no intent in the journal"
        );
        let syncdel_secs = cursor.saturating_since(t0).as_secs_f64();
        let verify = reconcile(hsm.pfs(), hsm.server(), cursor, false).unwrap();
        assert!(verify.orphans.is_empty(), "syncdel left orphans");
        rig = Some(hsm);

        rows.push(Row {
            files,
            deleted: n_victims,
            reconcile_secs,
            syncdel_secs,
            advantage: reconcile_secs / syncdel_secs.max(1e-9),
        });
    }
    print_table(
        "T-SYNCDEL (§4.2.6): delete 1% of N migrated files — reconcile vs synchronous delete",
        &["files", "deleted", "reconcile s", "syncdel s", "advantage"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.files.to_string(),
                    r.deleted.to_string(),
                    format!("{:.1}", r.reconcile_secs),
                    format!("{:.3}", r.syncdel_secs),
                    format!("{:.0}x", r.advantage),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\n  Paper: reconcile walks and compares EVERY file (O(N)); the\n  synchronous deleter pays only for what was deleted (O(deleted)).");
    write_json("tbl_syncdel", &rows);
    cli.finish(&rig);
}
