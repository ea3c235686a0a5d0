//! Multi-dimensional metadata search — the paper's first future-work item
//! (§7: "enhance the proposed COTS Parallel Archive System with the
//! multi-dimensional metadata searching capabilities").
//!
//! The jail bans content tools like `grep` (§4.2.3), so *metadata* search
//! is what users get instead — and it must answer without touching tape.
//! We build an indexed snapshot of the archive namespace joined with the
//! exported TSM catalog: queries combine predicates over owner, size,
//! modification time, name pattern, residency and tape volume, and the
//! planner picks the most selective index before filtering the rest.

use copra_metadb::TsmCatalog;
use copra_pfs::{wildcard_match, FileRecord, HsmState, Pfs};
use copra_simtime::SimInstant;
use copra_vfs::Ino;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One searchable entry: file metadata plus its tape location (if any).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchEntry {
    pub path: String,
    pub ino: Ino,
    pub size: u64,
    pub uid: u32,
    pub mtime: SimInstant,
    pub hsm: HsmState,
    /// Volume the primary tape copy lives on, when migrated.
    pub tape: Option<u32>,
}

/// A conjunctive multi-dimensional query.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Query {
    pub uid: Option<u32>,
    pub min_size: Option<u64>,
    pub max_size: Option<u64>,
    pub modified_after: Option<SimInstant>,
    pub modified_before: Option<SimInstant>,
    /// Wildcard over the final path component.
    pub name: Option<String>,
    /// Path-prefix restriction.
    pub under: Option<String>,
    pub hsm: Option<HsmState>,
    pub tape: Option<u32>,
}

impl Query {
    fn matches(&self, e: &SearchEntry) -> bool {
        if let Some(uid) = self.uid {
            if e.uid != uid {
                return false;
            }
        }
        if let Some(min) = self.min_size {
            if e.size < min {
                return false;
            }
        }
        if let Some(max) = self.max_size {
            if e.size > max {
                return false;
            }
        }
        if let Some(after) = self.modified_after {
            if e.mtime < after {
                return false;
            }
        }
        if let Some(before) = self.modified_before {
            if e.mtime > before {
                return false;
            }
        }
        if let Some(pat) = &self.name {
            let name = e.path.rsplit('/').next().unwrap_or("");
            if !wildcard_match(pat, name) {
                return false;
            }
        }
        if let Some(prefix) = &self.under {
            if !copra_vfs::is_under(&e.path, prefix) {
                return false;
            }
        }
        if let Some(hsm) = self.hsm {
            if e.hsm != hsm {
                return false;
            }
        }
        if let Some(tape) = self.tape {
            if e.tape != Some(tape) {
                return false;
            }
        }
        true
    }
}

/// Which access path the planner chose (exposed for tests/telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Plan {
    /// Point lookup on the uid index.
    ByUid,
    /// Point lookup on the residency index.
    ByHsm,
    /// Point lookup on the tape index.
    ByTape,
    /// Range scan on the size index.
    BySizeRange,
    /// Full scan.
    Full,
}

/// The indexed search snapshot: entries by ino, plus one typed ordered
/// set of `(key, ino)` per indexed dimension.
pub struct ArchiveSearch {
    entries: BTreeMap<u64, SearchEntry>,
    by_uid: BTreeSet<(u32, u64)>,
    by_hsm: BTreeSet<(HsmState, u64)>,
    /// Only entries with a tape copy.
    by_tape: BTreeSet<(u32, u64)>,
    by_size: BTreeSet<(u64, u64)>,
}

/// Size values are indexed in log2 buckets so range queries touch few keys.
fn size_bucket(size: u64) -> u64 {
    64 - size.leading_zeros() as u64
}

/// The inos a `(key, ino)` set files under keys `first..=last`, in set
/// order; none when `first > last`.
fn inos_between<K: Ord + Copy>(set: &BTreeSet<(K, u64)>, first: K, last: K) -> Vec<u64> {
    if first > last {
        return Vec::new();
    }
    set.range((first, 0)..=(last, u64::MAX))
        .map(|&(_, ino)| ino)
        .collect()
}

impl ArchiveSearch {
    /// Build the snapshot from the archive namespace and catalog.
    pub fn build(pfs: &Pfs, catalog: &TsmCatalog) -> Self {
        let entries: BTreeMap<u64, SearchEntry> = pfs
            .scan_records()
            .into_iter()
            .map(|rec| {
                let FileRecord {
                    path,
                    ino,
                    size,
                    uid,
                    mtime,
                    hsm,
                    ..
                } = rec;
                let tape = catalog.by_ino(ino.0).first().map(|r| r.tape);
                let entry = SearchEntry {
                    path,
                    ino,
                    size,
                    uid,
                    mtime,
                    hsm,
                    tape,
                };
                (ino.0, entry)
            })
            .collect();
        ArchiveSearch {
            by_uid: entries.iter().map(|(&ino, e)| (e.uid, ino)).collect(),
            by_hsm: entries.iter().map(|(&ino, e)| (e.hsm, ino)).collect(),
            by_tape: entries
                .iter()
                .filter_map(|(&ino, e)| Some((e.tape?, ino)))
                .collect(),
            by_size: entries
                .iter()
                .map(|(&ino, e)| (size_bucket(e.size), ino))
                .collect(),
            entries,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Choose the most selective available index for a query.
    pub fn plan(&self, q: &Query) -> Plan {
        if q.uid.is_some() {
            Plan::ByUid
        } else if q.tape.is_some() {
            Plan::ByTape
        } else if q.hsm.is_some() {
            Plan::ByHsm
        } else if q.min_size.is_some() || q.max_size.is_some() {
            Plan::BySizeRange
        } else {
            Plan::Full
        }
    }

    /// Run a query; results in path order.
    pub fn search(&self, q: &Query) -> Vec<SearchEntry> {
        let inos = match self.plan(q) {
            Plan::ByUid => {
                let uid = q.uid.unwrap();
                inos_between(&self.by_uid, uid, uid)
            }
            Plan::ByHsm => {
                let hsm = q.hsm.unwrap();
                inos_between(&self.by_hsm, hsm, hsm)
            }
            Plan::ByTape => {
                let tape = q.tape.unwrap();
                inos_between(&self.by_tape, tape, tape)
            }
            Plan::BySizeRange => inos_between(
                &self.by_size,
                size_bucket(q.min_size.unwrap_or(0)),
                size_bucket(q.max_size.unwrap_or(u64::MAX)),
            ),
            Plan::Full => self.entries.keys().copied().collect(),
        };
        let mut out: Vec<SearchEntry> = inos
            .into_iter()
            .map(|ino| &self.entries[&ino])
            .filter(|e| q.matches(e))
            .cloned()
            .collect();
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_metadb::TsmObjectRow;
    use copra_pfs::{PfsBuilder, PoolConfig};
    use copra_simtime::{Clock, DataSize};
    use copra_vfs::Content;

    fn fixture() -> (Pfs, TsmCatalog) {
        let clock = Clock::new();
        let pfs = PfsBuilder::new("archive", clock.clone())
            .pool(PoolConfig::fast_disk("fast", 2, DataSize::tb(1)))
            .build();
        pfs.mkdir_p("/proj/alpha").unwrap();
        pfs.mkdir_p("/proj/beta").unwrap();
        let catalog = TsmCatalog::new();
        for i in 0..20u64 {
            let dir = if i % 2 == 0 { "alpha" } else { "beta" };
            let path = format!("/proj/{dir}/f{i:02}.dat");
            let ino = pfs
                .create_file(
                    &path,
                    1000 + (i % 3) as u32,
                    Content::synthetic(i, 1000 << i.min(20)),
                )
                .unwrap();
            if i % 4 == 0 {
                pfs.mark_premigrated(ino, i + 100).unwrap();
                pfs.punch_hole(ino).unwrap();
                catalog.record(TsmObjectRow {
                    objid: i + 100,
                    path: path.clone(),
                    fs_ino: ino.0,
                    tape: (i % 3) as u32,
                    seq: i as u32,
                    len: 1000 << i.min(20),
                    stored_at: SimInstant::EPOCH,
                });
            }
        }
        (pfs, catalog)
    }

    #[test]
    fn build_and_count() {
        let (pfs, catalog) = fixture();
        let search = ArchiveSearch::build(&pfs, &catalog);
        assert_eq!(search.len(), 20);
        assert!(!search.is_empty());
    }

    #[test]
    fn uid_query_uses_index_and_filters() {
        let (pfs, catalog) = fixture();
        let search = ArchiveSearch::build(&pfs, &catalog);
        let q = Query {
            uid: Some(1001),
            under: Some("/proj/beta".to_string()),
            ..Query::default()
        };
        assert_eq!(search.plan(&q), Plan::ByUid);
        let hits = search.search(&q);
        assert!(!hits.is_empty());
        assert!(hits
            .iter()
            .all(|e| e.uid == 1001 && e.path.starts_with("/proj/beta/")));
        // agrees with the full-scan answer
        let full: Vec<_> = search
            .search(&Query::default())
            .into_iter()
            .filter(|e| e.uid == 1001 && e.path.starts_with("/proj/beta/"))
            .collect();
        assert_eq!(hits, full);
    }

    #[test]
    fn residency_and_tape_queries() {
        let (pfs, catalog) = fixture();
        let search = ArchiveSearch::build(&pfs, &catalog);
        let migrated = search.search(&Query {
            hsm: Some(HsmState::Migrated),
            ..Query::default()
        });
        assert_eq!(migrated.len(), 5); // i = 0,4,8,12,16
        assert!(migrated.iter().all(|e| e.tape.is_some()));
        let on_tape0 = search.search(&Query {
            tape: Some(0),
            ..Query::default()
        });
        assert!(!on_tape0.is_empty());
        assert!(on_tape0.iter().all(|e| e.tape == Some(0)));
    }

    #[test]
    fn size_range_query() {
        let (pfs, catalog) = fixture();
        let search = ArchiveSearch::build(&pfs, &catalog);
        let q = Query {
            min_size: Some(10_000),
            max_size: Some(10_000_000),
            ..Query::default()
        };
        assert_eq!(search.plan(&q), Plan::BySizeRange);
        let hits = search.search(&q);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|e| (10_000..=10_000_000).contains(&e.size)));
        // exhaustive agreement with a full scan
        let full: Vec<_> = search
            .search(&Query::default())
            .into_iter()
            .filter(|e| (10_000..=10_000_000).contains(&e.size))
            .collect();
        assert_eq!(hits, full);
    }

    #[test]
    fn name_and_time_filters_compose() {
        let (pfs, catalog) = fixture();
        let search = ArchiveSearch::build(&pfs, &catalog);
        let hits = search.search(&Query {
            name: Some("f1?.dat".to_string()),
            modified_before: Some(SimInstant::from_secs(1)),
            ..Query::default()
        });
        assert_eq!(hits.len(), 10); // f10..f19
        assert!(hits.iter().all(|e| e.path.contains("/f1")));
    }

    #[test]
    fn stub_sizes_are_logical() {
        // Migrated entries index under their pre-punch size.
        let (pfs, catalog) = fixture();
        let search = ArchiveSearch::build(&pfs, &catalog);
        let hit = search
            .search(&Query {
                name: Some("f00.dat".to_string()),
                ..Query::default()
            })
            .pop()
            .unwrap();
        assert_eq!(hit.hsm, HsmState::Migrated);
        assert_eq!(hit.size, 1000);
    }

    /// A seeded splitmix64 stream.
    struct Rng(u64);

    impl Rng {
        /// A draw in `0..n`.
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            copra_trace::splitmix64(self.0) % n
        }

        /// A size spread over 40 powers of two.
        fn size(&mut self) -> u64 {
            let bits = self.below(40);
            self.below(1 << bits)
        }

        /// True one draw in four.
        fn pick(&mut self) -> bool {
            self.below(4) == 0
        }
    }

    #[test]
    fn seeded_queries_agree_with_a_filtered_scan() {
        let mut rng = Rng(0x5EA2_C400);
        let clock = Clock::new();
        let pfs = PfsBuilder::new("archive", clock.clone())
            .pool(PoolConfig::fast_disk("fast", 2, DataSize::tb(1)))
            .build();
        let catalog = TsmCatalog::new();
        let dirs = ["/proj/alpha", "/proj/beta", "/scratch/gamma"];
        for dir in dirs {
            pfs.mkdir_p(dir).unwrap();
        }
        for i in 0..300u64 {
            clock.advance_to(SimInstant::from_secs(rng.below(100)));
            let path = format!("{}/f{i:03}.dat", dirs[rng.below(3) as usize]);
            let size = rng.size();
            let uid = 1000 + rng.below(4) as u32;
            let ino = pfs
                .create_file(&path, uid, Content::synthetic(i, size))
                .unwrap();
            // Resident, premigrated or migrated; only the last two have a
            // tape copy.
            let residency = rng.below(3);
            if residency > 0 {
                pfs.mark_premigrated(ino, i + 1).unwrap();
                catalog.record(TsmObjectRow {
                    objid: i + 1,
                    path,
                    fs_ino: ino.0,
                    tape: rng.below(5) as u32,
                    seq: i as u32,
                    len: size,
                    stored_at: SimInstant::EPOCH,
                });
            }
            if residency > 1 {
                pfs.punch_hole(ino).unwrap();
            }
        }
        let search = ArchiveSearch::build(&pfs, &catalog);
        let all: Vec<SearchEntry> = search.search(&Query::default());
        assert_eq!(all.len(), 300);
        let residencies = [
            HsmState::Resident,
            HsmState::Premigrated,
            HsmState::Migrated,
        ];
        let names = ["f1*.dat", "*7.dat", "f?0?.dat", "*"];
        let unders = ["/proj", "/proj/beta", "/scratch", "/nowhere"];
        let mut plans = Vec::new();
        for _ in 0..400 {
            let q = Query {
                uid: rng.pick().then(|| 1000 + rng.below(5) as u32),
                min_size: rng.pick().then(|| rng.size()),
                max_size: rng.pick().then(|| rng.size()),
                modified_after: rng.pick().then(|| SimInstant::from_secs(rng.below(100))),
                modified_before: rng.pick().then(|| SimInstant::from_secs(rng.below(100))),
                name: rng.pick().then(|| names[rng.below(4) as usize].to_string()),
                under: rng
                    .pick()
                    .then(|| unders[rng.below(4) as usize].to_string()),
                hsm: rng.pick().then(|| residencies[rng.below(3) as usize]),
                tape: rng.pick().then(|| rng.below(6) as u32),
            };
            let plan = search.plan(&q);
            if !plans.contains(&plan) {
                plans.push(plan);
            }
            let want: Vec<SearchEntry> = all.iter().filter(|e| q.matches(e)).cloned().collect();
            assert_eq!(search.search(&q), want, "{q:?}");
        }
        assert_eq!(plans.len(), 5, "every plan exercised: {plans:?}");
    }
}
