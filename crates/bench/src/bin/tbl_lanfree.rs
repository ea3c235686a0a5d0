//! T-LANFREE (§4.2.2, Figure 6): LAN vs LAN-free data movement.
//!
//! Paper datum: "for standard TSM operations, all data is passed to a
//! central server via the network, making the TSM server's network
//! connection the bottleneck"; LAN-free moves data client→SAN→drive with
//! only metadata touching the server, so machines "read and write to
//! different tapes independently of each other" — the enabler of parallel
//! tape movement.
//!
//! M nodes each migrate the same volume of data; we report aggregate rate
//! for both paths.

use copra_bench::{print_table, write_json, BenchCli};
use copra_cluster::{FtaCluster, NodeId};
use copra_hsm::{DataPath, Hsm, PlacementPolicy, TsmServer};
use copra_obs::Registry;
use copra_pfs::{PfsBuilder, PoolConfig};
use copra_simtime::{Bandwidth, Clock, DataSize, SimDuration, SimInstant};
use copra_tape::{TapeFleet, TapeTiming};
use copra_vfs::Content;
use serde::Serialize;

const FILES_PER_NODE: usize = 12;
const FILE_GB: u64 = 4;

#[derive(Serialize)]
struct Row {
    nodes: usize,
    lan_mb_s: f64,
    lanfree_mb_s: f64,
    advantage: f64,
}

/// The one rig with a derated server NIC, so it is wired here rather
/// than through [`BenchCli::hsm_rig`].
fn run(cli: &BenchCli, nodes: usize, path: DataPath) -> (f64, Hsm) {
    let pfs = PfsBuilder::new("archive", Clock::new())
        .pool(PoolConfig::fast_disk("fast", 16, DataSize::tb(100)))
        .tracer(cli.tracer())
        .build();
    let cluster = FtaCluster::new(nodes);
    // The paper-era server NIC: one 10GigE (derated like the trunk).
    let server = TsmServer::new(
        TapeFleet::new(
            1,
            nodes.max(4),
            64,
            TapeTiming::lto4(),
            Registry::traced(cli.tracer()),
        ),
        Bandwidth::gbit_per_sec(10).scaled(0.75),
        SimDuration::from_millis(2),
    );
    let hsm = Hsm::new(
        pfs.clone(),
        server,
        cluster.clone(),
        PlacementPolicy::Single,
    );
    // Build per-node file sets.
    let mut per_node_files: Vec<Vec<copra_vfs::Ino>> = Vec::new();
    for n in 0..nodes {
        let mut inos = Vec::new();
        pfs.mkdir_p(&format!("/n{n}")).unwrap();
        for i in 0..FILES_PER_NODE {
            inos.push(
                pfs.create_file(
                    &format!("/n{n}/f{i}"),
                    0,
                    Content::synthetic((n * 100 + i) as u64, FILE_GB * 1_000_000_000),
                )
                .unwrap(),
            );
        }
        per_node_files.push(inos);
    }
    // Each node streams its files; streams run concurrently in sim time.
    let start = SimInstant::EPOCH;
    let mut makespan = start;
    for (n, inos) in per_node_files.iter().enumerate() {
        let mut cursor = start;
        for &ino in inos {
            let (_, t) = hsm
                .migrate_file(ino, NodeId(n as u32), path, cursor, true, None)
                .unwrap();
            cursor = t;
        }
        makespan = makespan.max(cursor);
    }
    let total_bytes = (nodes * FILES_PER_NODE) as u64 * FILE_GB * 1_000_000_000;
    let rate = copra_bench::mb_per_sec(total_bytes, start, makespan);
    (rate, hsm)
}

fn main() {
    let cli = BenchCli::parse();
    let mut rows = Vec::new();
    let mut rig = None;
    for nodes in [2usize, 4, 8, 16, 24] {
        let (lan, _) = run(&cli, nodes, DataPath::Lan);
        let (lanfree, hsm) = run(&cli, nodes, DataPath::LanFree);
        rig = Some(hsm);
        rows.push(Row {
            nodes,
            lan_mb_s: lan,
            lanfree_mb_s: lanfree,
            advantage: lanfree / lan.max(1e-9),
        });
    }
    print_table(
        "T-LANFREE (§4.2.2): aggregate migration rate, LAN vs LAN-free",
        &["nodes", "LAN MB/s", "LAN-free MB/s", "advantage"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    format!("{:.0}", r.lan_mb_s),
                    format!("{:.0}", r.lanfree_mb_s),
                    format!("{:.2}x", r.advantage),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\n  Paper: LAN saturates the single server NIC as nodes are added;\n  LAN-free scales per-node (FC4 HBA + its own drive) until drives run out.");
    write_json("tbl_lanfree", &rows);
    cli.finish(&rig);
}
