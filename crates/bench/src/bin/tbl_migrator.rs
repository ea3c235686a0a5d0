//! T-MIGR (§4.2.4): size-balanced migration vs the naive GPFS behaviours.
//!
//! Paper datum: the GPFS policy engine's parallel migration balances by
//! count ("one process may be responsible for all of the large files in
//! the list while another has nothing but small files") and may pile every
//! migration process onto a single machine. The custom migrator sorts and
//! distributes candidates **by size** so all machines finish together.

use copra_bench::{print_table, write_json, BenchCli};
use copra_cluster::NodeId;
use copra_core::{migrate_candidates, MigrationPolicy};
use copra_hsm::{DataPath, Hsm};
use copra_simtime::SimInstant;
use copra_tape::TapeTiming;
use copra_workloads::{mixed_tree, populate};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    policy: String,
    makespan_secs: f64,
    imbalance: f64,
    slowest_node_gb: f64,
    fastest_node_gb: f64,
}

fn run(cli: &BenchCli, policy: MigrationPolicy) -> (Row, Hsm) {
    let hsm = cli.hsm_rig(10, 24, 128, 16, TapeTiming::lto4());
    let pfs = hsm.pfs();
    // A heavy-tailed candidate list: mostly small files, a few huge ones —
    // exactly the mix that breaks count-balancing.
    let tree = mixed_tree(400, 2_000_000_000, 2.2, 8, 99);
    populate(pfs, "/data", &tree);
    let records = pfs.scan_records();
    let nodes: Vec<NodeId> = hsm.cluster().nodes().collect();
    let start = SimInstant::EPOCH;
    let report = migrate_candidates(
        &hsm,
        &records,
        &nodes,
        policy,
        DataPath::LanFree,
        start,
        true,
        None,
    );
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let busy: Vec<f64> = report
        .per_node
        .iter()
        .filter(|(_, f, _, _)| *f > 0)
        .map(|(_, _, b, _)| *b as f64 / 1e9)
        .collect();
    let row = Row {
        policy: format!("{policy:?}"),
        makespan_secs: report.makespan.saturating_since(start).as_secs_f64(),
        imbalance: report.imbalance(start),
        slowest_node_gb: busy.iter().cloned().fold(f64::MIN, f64::max),
        fastest_node_gb: busy.iter().cloned().fold(f64::MAX, f64::min),
    };
    (row, hsm)
}

fn main() {
    let cli = BenchCli::parse();
    let mut rows = Vec::new();
    let mut rig = None;
    for policy in [
        MigrationPolicy::SizeBalanced,
        MigrationPolicy::RoundRobin,
        MigrationPolicy::SingleNode,
    ] {
        let (row, hsm) = run(&cli, policy);
        rows.push(row);
        rig = Some(hsm);
    }
    print_table(
        "T-MIGR (§4.2.4): 400-file heavy-tailed migration over 10 nodes / 24 drives",
        &[
            "policy",
            "makespan s",
            "imbalance",
            "max node GB",
            "min node GB",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    format!("{:.0}", r.makespan_secs),
                    format!("{:.2}", r.imbalance),
                    format!("{:.0}", r.slowest_node_gb),
                    format!("{:.0}", r.fastest_node_gb),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\n  Paper: size-balanced distribution lets migrations 'complete at the\n  same time across machines'; count-balancing skews, single-node is worst.");
    write_json("tbl_migrator", &rows);
    cli.finish(&rig);
}
