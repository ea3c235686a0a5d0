//! The three PFTool commands (§4.1.3): `pfls`, `pfcp`, `pfcm`.

use crate::config::PftoolConfig;
use crate::engine::{Engine, Op};
use crate::report::{CompareReport, CopyReport, ListReport, RunStats};
use crate::view::FsView;
use copra_cluster::NodeId;

/// Run `op` from `src_path` on `src` (to `dst` for copy and compare).
/// `nodes` is the MPI machine list (empty = every cluster node, in id
/// order).
fn run(
    op: Op,
    src: (&FsView, &str),
    dst: Option<(&FsView, &str)>,
    config: &PftoolConfig,
    nodes: &[NodeId],
) -> (RunStats, Vec<String>) {
    let nodes = if nodes.is_empty() {
        src.0.cluster.nodes().collect()
    } else {
        nodes.to_vec()
    };
    Engine {
        config,
        op,
        src: src.0,
        dst: dst.map(|d| d.0),
        src_root: src.1.to_string(),
        dst_root: dst.map(|d| d.1.to_string()),
        nodes,
    }
    .run()
}

/// Parallel tree walk + list (`pfls`). `nodes` is the MPI machine list
/// (empty = every cluster node, in id order).
pub fn pfls(src: &FsView, path: &str, config: &PftoolConfig, nodes: &[NodeId]) -> ListReport {
    let (stats, lines) = run(Op::List, (src, path), None, config, nodes);
    ListReport { stats, lines }
}

/// Parallel tree copy (`pfcp`): walk `src_path` on `src` and reproduce it
/// at `dst_path` on `dst`, moving file data in parallel (chunked for large
/// files, fuse-chunked N-to-N for very large ones, via tape restore for
/// migrated sources).
pub fn pfcp(
    src: &FsView,
    src_path: &str,
    dst: &FsView,
    dst_path: &str,
    config: &PftoolConfig,
    nodes: &[NodeId],
) -> CopyReport {
    let (stats, _) = run(
        Op::Copy,
        (src, src_path),
        Some((dst, dst_path)),
        config,
        nodes,
    );
    CopyReport { stats }
}

/// Parallel tree compare (`pfcm`): byte-content comparison of the two
/// trees; users run it to verify data integrity after a copy.
pub fn pfcm(
    src: &FsView,
    src_path: &str,
    dst: &FsView,
    dst_path: &str,
    config: &PftoolConfig,
    nodes: &[NodeId],
) -> CompareReport {
    let (stats, mismatches) = run(
        Op::Compare,
        (src, src_path),
        Some((dst, dst_path)),
        config,
        nodes,
    );
    CompareReport { stats, mismatches }
}
