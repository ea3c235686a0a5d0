//! T-THRASH (§6.2): recall-daemon assignment — scatter vs tape affinity.
//!
//! Paper datum: with LAN-free movers, HSM assigns recalls of one tape's
//! files to whichever machine is next; every hand-off rewinds the tape and
//! re-verifies its label even though it never physically dismounts — "a
//! massive performance hit". Binding each tape's recalls to one machine
//! fixes it.
//!
//! We migrate K files (one volume, ascending seq), then recall all of them
//! under both policies across a varying node count.

use copra_bench::{print_table, write_json, BenchCli};
use copra_cluster::NodeId;
use copra_hsm::{DataPath, Hsm, RecallPolicy, RecallRequest};
use copra_simtime::SimInstant;
use copra_tape::TapeTiming;
use copra_vfs::Content;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    nodes: usize,
    files: usize,
    scatter_secs: f64,
    scatter_handoffs: u64,
    affinity_secs: f64,
    affinity_handoffs: u64,
    penalty: f64,
}

fn run(cli: &BenchCli, nodes: usize, files: usize, policy: RecallPolicy) -> (f64, u64, Hsm) {
    let hsm = cli.hsm_rig(nodes, 2, 8, 8, TapeTiming::lto4());
    let pfs = hsm.pfs();
    let mut cursor = SimInstant::EPOCH;
    let mut inos = Vec::new();
    for i in 0..files as u64 {
        let ino = pfs
            .create_file(
                &format!("/f{i:03}"),
                0,
                Content::synthetic(i, 100_000_000), // mid-size files, the §6.2 case
            )
            .unwrap();
        let (_, t) = hsm
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
        inos.push(ino);
    }
    let requests: Vec<RecallRequest> = inos.iter().map(|&ino| RecallRequest { ino }).collect();
    let start = cursor;
    let out = hsm
        .recall_batch(&requests, policy, DataPath::LanFree, start)
        .unwrap();
    let handoffs = hsm.server().library().stats().totals.handoffs;
    let secs = out.makespan.saturating_since(start).as_secs_f64();
    (secs, handoffs, hsm)
}

fn main() {
    let cli = BenchCli::parse();
    let mut rows = Vec::new();
    let mut rig = None;
    for nodes in [2usize, 4, 8] {
        let files = 24;
        let (scatter_secs, scatter_handoffs, _) = run(&cli, nodes, files, RecallPolicy::Scatter);
        let (affinity_secs, affinity_handoffs, hsm) =
            run(&cli, nodes, files, RecallPolicy::TapeAffinity);
        rig = Some(hsm);
        rows.push(Row {
            nodes,
            files,
            scatter_secs,
            scatter_handoffs,
            affinity_secs,
            affinity_handoffs,
            penalty: scatter_secs / affinity_secs.max(1e-9),
        });
    }
    print_table(
        "T-THRASH (§6.2): recall of one tape's files, scatter vs tape-affinity",
        &[
            "nodes",
            "files",
            "scatter s",
            "handoffs",
            "affinity s",
            "handoffs",
            "penalty",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    r.files.to_string(),
                    format!("{:.0}", r.scatter_secs),
                    r.scatter_handoffs.to_string(),
                    format!("{:.0}", r.affinity_secs),
                    r.affinity_handoffs.to_string(),
                    format!("{:.2}x", r.penalty),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\n  Paper: hand-offs rewind + re-verify the label each time — 'a massive\n  performance hit'; same-machine affinity eliminates it (0 hand-offs)."
    );
    write_json("tbl_thrash", &rows);
    cli.finish(&rig);
}
