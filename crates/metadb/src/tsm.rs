//! The exported TSM object catalog — the concrete schema of §4.2.5/§4.2.6.
//!
//! The TSM server owns the authoritative (proprietary) object database; the
//! integration periodically exports rows into this indexed replica. PFTool
//! queries it to (a) resolve an object id → (tape id, sequence id), which
//! its per-tape restore queues sort by, and (b) resolve GPFS file id → TSM
//! object id for the synchronous deleter.

use copra_simtime::SimInstant;
use parking_lot::{RwLock, RwLockWriteGuard};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// One exported TSM object row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsmObjectRow {
    /// TSM object id (primary key).
    pub objid: u64,
    /// Archive-file-system path at migration time.
    pub path: String,
    /// GPFS file id (inode number) the object belongs to.
    pub fs_ino: u64,
    /// Volume the object lives on.
    pub tape: u32,
    /// Sequential record number on that volume.
    pub seq: u32,
    /// Object length in bytes.
    pub len: u64,
    /// When the object was stored.
    pub stored_at: SimInstant,
}

/// A row's entry in the `by_ino` index.
fn ino_key(r: &TsmObjectRow) -> (u64, u64) {
    (r.fs_ino, r.objid)
}

/// Export-pass tokens, unique across every catalog in the process. A token
/// names one pass over one catalog, so an exporter that presents it learns
/// whether anyone has synced the catalog since (an address would not do:
/// a dropped catalog's address can be reused).
static NEXT_SYNC_TOKEN: AtomicU64 = AtomicU64::new(1);

struct Replica {
    /// Rows by objid.
    rows: BTreeMap<u64, TsmObjectRow>,
    /// `(fs_ino, objid)` of every row.
    by_ino: BTreeSet<(u64, u64)>,
    /// Token of the last export pass; `None` before the first.
    synced: Option<u64>,
    /// Objids [`TsmCatalog::record`]/[`TsmCatalog::forget`] touched since
    /// that pass. Nothing is logged before the first pass, which checks
    /// every row anyway.
    drift: Vec<u64>,
}

impl Replica {
    fn log(&mut self, objid: u64) {
        if self.synced.is_some() {
            self.drift.push(objid);
        }
    }

    /// Insert or replace a row, re-filing its index entry if it moved.
    fn upsert(&mut self, row: TsmObjectRow) {
        let ino = ino_key(&row);
        if let Some(old) = self.rows.insert(row.objid, row) {
            if ino_key(&old) != ino {
                self.by_ino.remove(&ino_key(&old));
            }
        }
        self.by_ino.insert(ino);
    }

    fn remove(&mut self, objid: u64) -> Option<TsmObjectRow> {
        let row = self.rows.remove(&objid)?;
        self.by_ino.remove(&ino_key(&row));
        Some(row)
    }
}

/// Thread-safe exported catalog: the rows plus one typed ordered index,
/// `(fs_ino, objid)`.
pub struct TsmCatalog {
    replica: RwLock<Replica>,
    /// Bumped on every mutation. Recovery compares generations across a
    /// re-export to tell "already consistent" from "repaired".
    generation: AtomicU64,
}

impl Default for TsmCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl TsmCatalog {
    pub fn new() -> Self {
        TsmCatalog {
            replica: RwLock::new(Replica {
                rows: BTreeMap::new(),
                by_ino: BTreeSet::new(),
                synced: None,
                drift: Vec::new(),
            }),
            generation: AtomicU64::new(0),
        }
    }

    /// Mutation counter: monotone, bumped by [`record`]/[`forget`] and by
    /// every row an export pass writes or drops.
    ///
    /// [`record`]: TsmCatalog::record
    /// [`forget`]: TsmCatalog::forget
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Insert or refresh one exported row.
    pub fn record(&self, row: TsmObjectRow) {
        let mut r = self.replica.write();
        r.log(row.objid);
        r.upsert(row);
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Drop a row (object deleted from TSM).
    pub fn forget(&self, objid: u64) -> Option<TsmObjectRow> {
        let mut r = self.replica.write();
        let old = r.remove(objid);
        if old.is_some() {
            r.log(objid);
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        old
    }

    /// Open an export pass: the replica stays write-locked until the pass
    /// is finished or dropped.
    pub fn begin_export(&self) -> ExportPass<'_> {
        ExportPass {
            replica: self.replica.write(),
            generation: &self.generation,
        }
    }

    /// Check the index against the rows — scrub's last step: every entry
    /// names a live row that files under exactly that entry, and there are
    /// as many entries as rows. Returns the first violation found.
    pub fn verify_indexes(&self) -> Result<(), String> {
        let r = self.replica.read();
        for entry in &r.by_ino {
            let Some(row) = r.rows.get(&entry.1) else {
                return Err(format!("index \"by_ino\": entry {entry:?} has no row"));
            };
            let want = ino_key(row);
            if want != *entry {
                return Err(format!(
                    "index \"by_ino\": entry {entry:?} but its row files under {want:?}"
                ));
            }
        }
        if r.by_ino.len() != r.rows.len() {
            return Err(format!(
                "index \"by_ino\": {} entries for {} rows",
                r.by_ino.len(),
                r.rows.len()
            ));
        }
        Ok(())
    }

    pub fn lookup(&self, objid: u64) -> Option<TsmObjectRow> {
        self.replica.read().rows.get(&objid).cloned()
    }

    pub fn len(&self) -> usize {
        self.replica.read().rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.replica.read().rows.is_empty()
    }

    /// Objects recorded for a GPFS file id, in objid order.
    pub fn by_ino(&self, fs_ino: u64) -> Vec<TsmObjectRow> {
        let r = self.replica.read();
        r.by_ino
            .range((fs_ino, 0)..=(fs_ino, u64::MAX))
            .map(|e| r.rows[&e.1].clone())
            .collect()
    }

    /// Full dump in objid order (reconcile compares this against tape and
    /// file-system truth).
    pub fn dump(&self) -> Vec<TsmObjectRow> {
        self.replica.read().rows.values().cloned().collect()
    }
}

/// One export pass over a [`TsmCatalog`], holding its write lock. The
/// exporter asks for the rows that drifted since its own last pass, checks
/// and repairs rows in place, then [`finish`](ExportPass::finish)es to get
/// the token it presents next time. The pass's own writes are not logged as
/// drift.
pub struct ExportPass<'a> {
    replica: RwLockWriteGuard<'a, Replica>,
    generation: &'a AtomicU64,
}

impl ExportPass<'_> {
    /// The objids `record`/`forget` touched since the pass that returned
    /// `token`, deduplicated by the caller. `None` when `token` does not
    /// name this catalog's last pass — another exporter synced it since, or
    /// it was never synced — so the caller must check every row.
    pub fn drift_since(&mut self, token: Option<u64>) -> Option<Vec<u64>> {
        let synced = self.replica.synced.take();
        let drift = std::mem::take(&mut self.replica.drift);
        (token.is_some() && synced == token).then_some(drift)
    }

    /// Every objid with a row, in objid order.
    pub fn objids(&self) -> impl Iterator<Item = u64> + '_ {
        self.replica.rows.keys().copied()
    }

    pub fn row(&self, objid: u64) -> Option<&TsmObjectRow> {
        self.replica.rows.get(&objid)
    }

    /// Insert or refresh one row.
    pub fn record(&mut self, row: TsmObjectRow) {
        self.replica.upsert(row);
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Drop a row if present.
    pub fn forget(&mut self, objid: u64) {
        if self.replica.remove(objid).is_some() {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Close the pass: the replica is in sync, so start a fresh drift log
    /// and return the token that names this pass.
    pub fn finish(mut self) -> u64 {
        let token = NEXT_SYNC_TOKEN.fetch_add(1, Ordering::Relaxed);
        self.replica.drift.clear();
        self.replica.synced = Some(token);
        token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(objid: u64, path: &str, ino: u64, tape: u32, seq: u32) -> TsmObjectRow {
        TsmObjectRow {
            objid,
            path: path.to_string(),
            fs_ino: ino,
            tape,
            seq,
            len: 100,
            stored_at: SimInstant::EPOCH,
        }
    }

    #[test]
    fn record_lookup_forget() {
        let c = TsmCatalog::new();
        c.record(row(1, "/a", 10, 0, 0));
        assert_eq!(c.lookup(1).unwrap().path, "/a");
        assert_eq!(c.len(), 1);
        assert_eq!(c.forget(1).unwrap().fs_ino, 10);
        assert!(c.lookup(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn generation_counts_mutations_and_indexes_verify() {
        let c = TsmCatalog::new();
        assert_eq!(c.generation(), 0);
        c.record(row(1, "/a", 10, 0, 0));
        c.record(row(2, "/b", 11, 0, 1));
        assert_eq!(c.generation(), 2);
        c.forget(1);
        assert_eq!(c.generation(), 3);
        c.forget(999); // no-op forget doesn't bump
        assert_eq!(c.generation(), 3);
        assert_eq!(c.verify_indexes(), Ok(()));
    }

    #[test]
    fn ino_lookups() {
        let c = TsmCatalog::new();
        c.record(row(1, "/f", 10, 0, 0));
        c.record(row(2, "/f", 10, 1, 5)); // newer generation, same path/ino
        c.record(row(3, "/g", 11, 0, 1));
        assert_eq!(c.by_ino(10).len(), 2);
        assert_eq!(c.by_ino(11)[0].objid, 3);
        assert!(c.by_ino(12).is_empty());
    }

    #[test]
    fn drift_is_logged_only_after_a_pass_and_only_for_its_token() {
        let c = TsmCatalog::new();
        c.record(row(1, "/a", 10, 0, 0));
        let mut pass = c.begin_export();
        assert_eq!(pass.drift_since(None), None, "never synced");
        pass.record(row(2, "/b", 11, 0, 1));
        let token = pass.finish();
        assert_eq!(c.generation(), 2, "a pass's writes count as mutations");
        c.record(row(3, "/c", 12, 0, 2));
        c.forget(1);
        c.forget(999); // no row, nothing to log
        let mut pass = c.begin_export();
        assert_eq!(pass.drift_since(Some(token)), Some(vec![3, 1]));
        let next = pass.finish();
        assert_ne!(next, token);
        c.record(row(4, "/d", 13, 0, 3));
        let mut pass = c.begin_export();
        assert_eq!(pass.drift_since(Some(token)), None, "stale token");
        assert_eq!(pass.objids().collect::<Vec<_>>(), vec![2, 3, 4]);
        pass.finish();
    }

    /// Seeded random programs of `record`, `forget` and export passes
    /// against a plain map: after every step each query equals a filter
    /// over the map and the index verifies.
    #[test]
    fn queries_match_a_reference_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        fn random_row(rng: &mut StdRng) -> TsmObjectRow {
            let objid = rng.gen_range(0..48u64);
            let ino = rng.gen_range(0..10u64);
            let (tape, seq) = (rng.gen_range(0..5u32), rng.gen_range(0..16u32));
            row(objid, &format!("/f{ino}"), ino, tape, seq)
        }
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = TsmCatalog::new();
            let mut model: BTreeMap<u64, TsmObjectRow> = BTreeMap::new();
            let mut generation = 0;
            for step in 0..300 {
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let r = random_row(&mut rng);
                        model.insert(r.objid, r.clone());
                        c.record(r);
                        generation += 1;
                    }
                    5..=7 => {
                        let objid = rng.gen_range(0..48u64);
                        let want = model.remove(&objid);
                        generation += u64::from(want.is_some());
                        assert_eq!(c.forget(objid), want, "seed {seed} step {step}");
                    }
                    _ => {
                        let mut pass = c.begin_export();
                        for _ in 0..rng.gen_range(0..12u32) {
                            if rng.gen_bool(0.6) {
                                let r = random_row(&mut rng);
                                model.insert(r.objid, r.clone());
                                pass.record(r);
                                generation += 1;
                            } else {
                                let objid = rng.gen_range(0..48u64);
                                generation += u64::from(model.remove(&objid).is_some());
                                pass.forget(objid);
                            }
                            assert!(pass.objids().eq(model.keys().copied()));
                        }
                        pass.finish();
                    }
                }
                let at = format!("seed {seed} step {step}");
                assert_eq!(c.verify_indexes(), Ok(()), "{at}");
                assert_eq!(c.generation(), generation, "{at}");
                assert_eq!(c.len(), model.len(), "{at}");
                assert_eq!(
                    c.dump(),
                    model.values().cloned().collect::<Vec<_>>(),
                    "{at}"
                );
                for ino in 0..10 {
                    let want: Vec<TsmObjectRow> = model
                        .values()
                        .filter(|r| r.fs_ino == ino)
                        .cloned()
                        .collect();
                    assert_eq!(c.by_ino(ino), want, "{at} ino {ino}");
                }
            }
        }
    }

    #[test]
    fn verify_indexes_catches_deliberate_corruption() {
        let corrupt = |f: fn(&mut Replica)| {
            let c = TsmCatalog::new();
            c.record(row(1, "/a", 10, 5, 2));
            c.record(row(2, "/b", 11, 5, 3));
            f(&mut c.replica.write());
            c.verify_indexes().unwrap_err()
        };
        // Dangling entry: a row removed behind the index's back.
        let err = corrupt(|r| {
            r.rows.remove(&1);
        });
        assert!(err.contains("has no row"), "got: {err}");
        // Stale key: a row rewritten without re-filing its entry.
        let err = corrupt(|r| {
            r.rows.insert(2, row(2, "/b", 12, 5, 3));
        });
        assert!(
            err.contains("by_ino") && err.contains("files under"),
            "got: {err}"
        );
        // Missing entry: a row that was never indexed.
        let err = corrupt(|r| {
            r.by_ino.remove(&(10, 1));
        });
        assert!(err.contains("1 entries for 2 rows"), "got: {err}");
    }
}
