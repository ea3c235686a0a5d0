//! The parallel data migrator (§4.2.4).
//!
//! GPFS's own migration policy parallelism has two defects the paper calls
//! out: it balances by file *count* rather than size (one process can draw
//! all the large files), and its helper processes "may be created on a
//! single machine despite multiple machines being available". The custom
//! migrator instead uses a LIST policy to gather candidates, then sorts
//! and distributes them **by size** across the FTA nodes so every node's
//! migration stream finishes at about the same time.
//!
//! All three behaviours are implemented so the improvement is measurable
//! (T-MIGR): [`MigrationPolicy::SizeBalanced`] (the paper's),
//! [`MigrationPolicy::RoundRobin`] (count-balanced) and
//! [`MigrationPolicy::SingleNode`] (the GPFS pathology).

use copra_cluster::NodeId;
use copra_hsm::aggregate::migrate_aggregated;
use copra_hsm::{DataPath, Hsm, HsmError};
use copra_pfs::FileRecord;
use copra_simtime::{DataSize, SimInstant};
use copra_vfs::Ino;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// How candidates are spread across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationPolicy {
    /// §4.2.4: sort by size descending, always hand the next file to the
    /// least-loaded node (LPT greedy).
    SizeBalanced,
    /// Count-balanced round-robin in list order (what a naive parallel
    /// policy does).
    RoundRobin,
    /// Everything on one machine (the observed GPFS failure mode).
    SingleNode,
}

/// Result of one migration run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MigrationReport {
    pub policy: MigrationPolicy,
    pub files: usize,
    pub bytes: u64,
    /// Per node: (files, bytes, completion instant).
    pub per_node: Vec<(u32, usize, u64, SimInstant)>,
    /// When the slowest node finished — the number users wait on.
    pub makespan: SimInstant,
    /// Tape transactions issued (containers count once).
    pub transactions: usize,
    pub errors: Vec<String>,
    /// True when a simulated crash killed the run mid-migration: the
    /// remaining candidates were never attempted and the last error names
    /// the crash site.
    #[serde(default)]
    pub aborted: bool,
}

impl MigrationReport {
    /// Ratio of slowest to fastest busy node (1.0 = perfectly balanced).
    pub fn imbalance(&self, start: SimInstant) -> f64 {
        let times: Vec<f64> = self
            .per_node
            .iter()
            .filter(|(_, files, _, _)| *files > 0)
            .map(|(_, _, _, end)| end.saturating_since(start).as_secs_f64())
            .collect();
        if times.is_empty() {
            return 1.0;
        }
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        if min <= 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }
}

/// Partition candidate records over `nodes` according to `policy`.
/// Returns one bucket of records per node (same indexing as `nodes`).
pub fn partition<'a>(
    candidates: &'a [FileRecord],
    nodes: &[NodeId],
    policy: MigrationPolicy,
) -> Vec<Vec<&'a FileRecord>> {
    assert!(!nodes.is_empty(), "migrator needs nodes");
    let mut buckets: Vec<Vec<&FileRecord>> = vec![Vec::new(); nodes.len()];
    match policy {
        MigrationPolicy::SingleNode => {
            buckets[0].extend(candidates.iter());
        }
        MigrationPolicy::RoundRobin => {
            for (i, rec) in candidates.iter().enumerate() {
                buckets[i % nodes.len()].push(rec);
            }
        }
        MigrationPolicy::SizeBalanced => {
            // LPT: biggest first (equal sizes by path), each to the
            // currently lightest bucket. The sort moves compact (size,
            // index) keys; only runs of equal size read the records' paths.
            let mut order: Vec<(Reverse<u64>, usize)> = candidates
                .iter()
                .enumerate()
                .map(|(i, rec)| (Reverse(rec.size), i))
                .collect();
            order.sort_unstable();
            for run in order.chunk_by_mut(|a, b| a.0 == b.0) {
                if run.len() > 1 {
                    run.sort_by_key(|&(_, i)| &candidates[i].path);
                }
            }
            let mut loads = vec![0u64; nodes.len()];
            for (Reverse(size), i) in order {
                let lightest = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, l)| (**l, *i))
                    .map(|(i, _)| i)
                    .expect("nodes non-empty");
                loads[lightest] += size;
                buckets[lightest].push(&candidates[i]);
            }
        }
    }
    buckets
}

/// Run a migration of `candidates` (typically a LIST-policy output) to
/// tape. Files are distributed per `policy`; each node's storage agent
/// migrates its bucket sequentially (one stream per node, as in the
/// paper's deployment). `aggregate_below` bundles files smaller than the
/// given cutoff into containers of `container_cap` (§6.1's fix); pass
/// `None` for stock one-file-one-transaction behaviour.
#[allow(clippy::too_many_arguments)]
pub fn migrate_candidates(
    hsm: &Hsm,
    candidates: &[FileRecord],
    nodes: &[NodeId],
    policy: MigrationPolicy,
    data_path: DataPath,
    start: SimInstant,
    punch: bool,
    aggregate_below: Option<(DataSize, DataSize)>,
) -> MigrationReport {
    let buckets = partition(candidates, nodes, policy);
    let mut report = MigrationReport {
        policy,
        files: 0,
        bytes: 0,
        per_node: Vec::with_capacity(nodes.len()),
        makespan: start,
        transactions: 0,
        errors: Vec::new(),
        aborted: false,
    };
    // Each node's stream is sequential; streams are concurrent in
    // simulated time because each charges its own node/drive timelines
    // from `start`.
    for (node, bucket) in nodes.iter().zip(buckets) {
        let mut cursor = start;
        let mut files = 0usize;
        let mut bytes = 0u64;
        // Split the bucket in one walk: small files aggregate under their
        // records' paths, large files go solo. Without aggregation every
        // file is large.
        let (cutoff, cap) = aggregate_below.unwrap_or((DataSize::ZERO, DataSize::ZERO));
        let mut small: Vec<(Ino, &str)> = Vec::new();
        let mut small_bytes = 0u64;
        let mut large: Vec<&FileRecord> = Vec::new();
        for &rec in &bucket {
            if rec.size < cutoff.as_bytes() {
                small.push((rec.ino, &rec.path));
                small_bytes += rec.size;
            } else {
                large.push(rec);
            }
        }
        if !small.is_empty() {
            match migrate_aggregated(hsm, &small, *node, data_path, cap, cursor, punch) {
                Ok(out) => {
                    files += out.members.len();
                    bytes += small_bytes;
                    report.transactions += out.containers;
                    cursor = cursor.max(out.end);
                }
                Err(e @ HsmError::Crashed { .. }) => {
                    report.errors.push(format!("{node}: {e}"));
                    report.aborted = true;
                }
                Err(e) => report.errors.push(format!("{node}: {e}")),
            }
        }
        for rec in large {
            if report.aborted {
                break;
            }
            match hsm.migrate_file(rec.ino, *node, data_path, cursor, punch, None) {
                Ok((_, end)) => {
                    files += 1;
                    bytes += rec.size;
                    report.transactions += 1;
                    cursor = end;
                }
                Err(e @ HsmError::Crashed { .. }) => {
                    report.errors.push(format!("{}: {e}", rec.path));
                    report.aborted = true;
                }
                Err(e) => report.errors.push(format!("{}: {e}", rec.path)),
            }
        }
        hsm.agent(*node).release_volume();
        report.files += files;
        report.bytes += bytes;
        report.makespan = report.makespan.max(cursor);
        report.per_node.push((node.0, files, bytes, cursor));
        if report.aborted {
            // The process died: remaining buckets were never attempted.
            return report;
        }
    }
    report
}

/// Convenience error type re-export for callers matching on failures.
pub type MigrateError = HsmError;

#[cfg(test)]
mod tests {
    use super::*;
    use copra_pfs::{HsmState, PoolId};

    fn rec(path: &str, size: u64) -> FileRecord {
        FileRecord {
            path: path.to_string(),
            ino: Ino(1),
            size,
            uid: 0,
            mtime: SimInstant::EPOCH,
            atime: SimInstant::EPOCH,
            pool: PoolId(0),
            hsm: HsmState::Resident,
        }
    }

    #[test]
    fn size_balanced_partition_is_near_even() {
        // One giant file + many small ones: LPT puts the giant alone.
        let mut cands = vec![rec("/giant", 100_000)];
        for i in 0..10 {
            cands.push(rec(&format!("/s{i}"), 10_000));
        }
        let nodes = [NodeId(0), NodeId(1)];
        let buckets = partition(&cands, &nodes, MigrationPolicy::SizeBalanced);
        let loads: Vec<u64> = buckets
            .iter()
            .map(|b| b.iter().map(|r| r.size).sum())
            .collect();
        let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
        assert!(
            spread <= 10_000,
            "LPT spread {spread} should be within one small file: {loads:?}"
        );
    }

    #[test]
    fn round_robin_ignores_size() {
        // Alternating huge/tiny in list order: round-robin puts all huge
        // files on node 0.
        let mut cands = Vec::new();
        for i in 0..6 {
            cands.push(rec(&format!("/f{i}"), if i % 2 == 0 { 100_000 } else { 1 }));
        }
        let nodes = [NodeId(0), NodeId(1)];
        let buckets = partition(&cands, &nodes, MigrationPolicy::RoundRobin);
        let load0: u64 = buckets[0].iter().map(|r| r.size).sum();
        let load1: u64 = buckets[1].iter().map(|r| r.size).sum();
        assert_eq!(load0, 300_000);
        assert_eq!(load1, 3);
    }

    #[test]
    fn single_node_puts_everything_on_first() {
        let cands = vec![rec("/a", 1), rec("/b", 2)];
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let buckets = partition(&cands, &nodes, MigrationPolicy::SingleNode);
        assert_eq!(buckets[0].len(), 2);
        assert!(buckets[1].is_empty() && buckets[2].is_empty());
    }

    /// LPT with the `(size desc, path)` comparator over whole records: the
    /// reference the compact-key sort must reproduce bucket for bucket.
    fn reference_size_balanced(candidates: &[FileRecord], nodes: usize) -> Vec<Vec<Ino>> {
        let mut order: Vec<&FileRecord> = candidates.iter().collect();
        order.sort_by(|a, b| b.size.cmp(&a.size).then(a.path.cmp(&b.path)));
        let mut buckets = vec![Vec::new(); nodes];
        let mut loads = vec![0u64; nodes];
        for rec in order {
            let lightest = (0..nodes).min_by_key(|&i| (loads[i], i)).unwrap();
            loads[lightest] += rec.size;
            buckets[lightest].push(rec.ino);
        }
        buckets
    }

    #[test]
    fn size_balanced_matches_the_record_comparator_on_shuffled_ties() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(24);
        for round in 0..40 {
            // Few sizes and few paths: long runs of equal size, and equal
            // (size, path) pairs that only input order separates. Each
            // record's ino is unique, so buckets compare exactly.
            let n = rng.gen_range(1..300u64);
            let mut cands: Vec<FileRecord> = (0..n)
                .map(|i| {
                    let size = [1, 7, 4096, 1 << 20, 8 << 20][rng.gen_range(0..5usize)];
                    let path = format!("/d{}/f{}", rng.gen_range(0..4), rng.gen_range(0..30));
                    FileRecord {
                        ino: Ino(i),
                        ..rec(&path, size)
                    }
                })
                .collect();
            for i in (1..cands.len()).rev() {
                cands.swap(i, rng.gen_range(0..=i));
            }
            for width in [1, 3, 10] {
                let nodes: Vec<NodeId> = (0..width).map(NodeId).collect();
                let got: Vec<Vec<Ino>> = partition(&cands, &nodes, MigrationPolicy::SizeBalanced)
                    .iter()
                    .map(|b| b.iter().map(|r| r.ino).collect())
                    .collect();
                let want = reference_size_balanced(&cands, nodes.len());
                assert_eq!(got, want, "round {round}, {width} nodes");
            }
        }
    }

    /// Aggregated members take their paths from the LIST records: each
    /// member's TSM object and exported catalog row carry its record's
    /// path and length, at the offset its bucket predecessors fill.
    #[test]
    fn aggregated_members_carry_their_records_path_length_and_offset() {
        use copra_cluster::FtaCluster;
        use copra_hsm::{ObjectKind, PlacementPolicy, TsmServer};
        use copra_metadb::TsmCatalog;
        use copra_obs::Registry;
        use copra_pfs::{PfsBuilder, PoolConfig};
        use copra_simtime::Clock;
        use copra_tape::{TapeFleet, TapeTiming};
        use copra_vfs::Content;

        let pfs = PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(10)))
            .build();
        let cluster = FtaCluster::new(2);
        let server =
            TsmServer::roadrunner(TapeFleet::new(1, 2, 8, TapeTiming::lto4(), Registry::new()));
        let hsm = Hsm::new(pfs.clone(), server, cluster, PlacementPolicy::Single);
        for d in 0..3 {
            pfs.mkdir_p(&format!("/proj/d{d}")).unwrap();
        }
        for i in 0..40u64 {
            let size = if i % 10 == 0 {
                20 << 20
            } else {
                (i % 7 + 1) << 18
            };
            let path = format!("/proj/d{}/f{i:02}", i % 3);
            pfs.create_file(&path, 0, Content::synthetic(i, size))
                .unwrap();
        }
        let records = pfs.scan_records();
        let nodes = [NodeId(0), NodeId(1)];
        let cutoff = DataSize::mib(8);
        let report = migrate_candidates(
            &hsm,
            &records,
            &nodes,
            MigrationPolicy::SizeBalanced,
            DataPath::LanFree,
            SimInstant::EPOCH,
            true,
            Some((cutoff, DataSize::mib(4))),
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.files, records.len());
        let catalog = TsmCatalog::new();
        hsm.server().export(&catalog);

        let mut members = 0;
        for bucket in partition(&records, &nodes, MigrationPolicy::SizeBalanced) {
            // Running fill of each container, in bucket order.
            let mut fill = std::collections::BTreeMap::new();
            for rec in bucket {
                let objid = pfs.hsm_objid(rec.ino).unwrap().expect("migrated");
                let obj = hsm.server().get(objid).unwrap();
                assert_eq!(
                    (obj.path.as_str(), obj.fs_ino),
                    (rec.path.as_str(), rec.ino.0)
                );
                assert_eq!(obj.len, rec.size);
                let row = catalog.lookup(objid).expect("exported");
                assert_eq!(
                    (row.path.as_str(), row.fs_ino),
                    (rec.path.as_str(), rec.ino.0)
                );
                assert_eq!(
                    (row.len, row.tape, row.seq),
                    (rec.size, obj.addr.tape.0, obj.addr.seq)
                );
                match obj.kind {
                    ObjectKind::Member { container, offset } => {
                        assert!(rec.size < cutoff.as_bytes(), "{} aggregated", rec.path);
                        let at = fill.entry(container).or_insert(0);
                        assert_eq!(offset, *at, "{} offset", rec.path);
                        *at += rec.size;
                        members += 1;
                    }
                    ObjectKind::Simple => assert!(rec.size >= cutoff.as_bytes()),
                    other => panic!("{} is a {other:?}", rec.path),
                }
            }
            for (container, filled) in fill {
                assert_eq!(hsm.server().get(container).unwrap().len, filled);
            }
        }
        assert_eq!(members, 36);
        assert!(report.transactions < records.len());
    }

    #[test]
    fn partition_covers_all_candidates_exactly_once() {
        let cands: Vec<FileRecord> = (0..37)
            .map(|i| rec(&format!("/f{i}"), i * 13 + 1))
            .collect();
        let nodes = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        for policy in [
            MigrationPolicy::SizeBalanced,
            MigrationPolicy::RoundRobin,
            MigrationPolicy::SingleNode,
        ] {
            let buckets = partition(&cands, &nodes, policy);
            let total: usize = buckets.iter().map(|b| b.len()).sum();
            assert_eq!(total, 37, "{policy:?} lost or duplicated candidates");
            let mut paths: Vec<&str> = buckets.iter().flatten().map(|r| r.path.as_str()).collect();
            paths.sort_unstable();
            paths.dedup();
            assert_eq!(paths.len(), 37);
        }
    }
}
