//! The exported TSM object catalog — the concrete schema of §4.2.5/§4.2.6.
//!
//! The TSM server owns the authoritative (proprietary) object database; the
//! integration periodically exports rows into this indexed replica. PFTool
//! queries it to (a) resolve file → (tape id, sequence id) and sort recalls
//! into tape order, and (b) resolve GPFS file id → TSM object id for the
//! synchronous deleter.

use crate::table::{IndexKey, Table};
use copra_simtime::SimInstant;
use parking_lot::{RwLock, RwLockWriteGuard};
use serde::{Deserialize, Serialize};
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

fn key_ino(_: &u64, r: &TsmObjectRow) -> IndexKey {
    vec![r.fs_ino.into()]
}
fn key_tape_seq(_: &u64, r: &TsmObjectRow) -> IndexKey {
    vec![r.tape.into(), r.seq.into()]
}

/// Export-pass tokens, unique across every catalog in the process. A token
/// names one pass over one catalog, so an exporter that presents it learns
/// whether anyone has synced the catalog since (an address would not do:
/// a dropped catalog's address can be reused).
static NEXT_SYNC_TOKEN: AtomicU64 = AtomicU64::new(1);

struct Replica {
    table: Table<u64, TsmObjectRow>,
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
}

/// Thread-safe exported catalog.
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
        let mut table = Table::new("tsm_objects");
        table.add_index("by_ino", key_ino);
        table.add_index("by_tape_seq", key_tape_seq);
        TsmCatalog {
            replica: RwLock::new(Replica {
                table,
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
        r.table.upsert(row.objid, row);
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Drop a row (object deleted from TSM).
    pub fn forget(&self, objid: u64) -> Option<TsmObjectRow> {
        let mut r = self.replica.write();
        let old = r.table.remove(&objid);
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

    /// Run [`Table::verify_indexes`] on the replica — scrub's last step.
    pub fn verify_indexes(&self) -> Result<(), String> {
        self.replica.read().table.verify_indexes()
    }

    pub fn lookup(&self, objid: u64) -> Option<TsmObjectRow> {
        self.replica.read().table.get(&objid).cloned()
    }

    pub fn len(&self) -> usize {
        self.replica.read().table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.replica.read().table.len() == 0
    }

    /// Objects recorded for a GPFS file id.
    pub fn by_ino(&self, fs_ino: u64) -> Vec<TsmObjectRow> {
        let replica = self.replica.read();
        let t = &replica.table;
        t.select("by_ino", &vec![fs_ino.into()])
            .into_iter()
            .filter_map(|k| t.get(&k).cloned())
            .collect()
    }

    /// The paper's recall optimization (§4.2.5): given candidate object
    /// ids, return their rows sorted by (tape id, sequence id) so each tape
    /// reads front-to-back. Unknown ids are skipped.
    pub fn sort_for_recall(&self, objids: &[u64]) -> Vec<TsmObjectRow> {
        let replica = self.replica.read();
        let t = &replica.table;
        let mut rows: Vec<TsmObjectRow> =
            objids.iter().filter_map(|id| t.get(id).cloned()).collect();
        rows.sort_by_key(|r| (r.tape, r.seq, r.objid));
        rows
    }

    /// Everything on one volume in tape order (volume-drain recalls).
    pub fn on_tape(&self, tape: u32) -> Vec<TsmObjectRow> {
        let replica = self.replica.read();
        let t = &replica.table;
        t.index_range(
            "by_tape_seq",
            &vec![tape.into(), 0u32.into()],
            &vec![(tape + 1).into(), 0u32.into()],
        )
        .into_iter()
        .filter_map(|(_, k)| t.get(&k).cloned())
        .collect()
    }

    /// Full dump in objid order (reconcile compares this against tape and
    /// file-system truth).
    pub fn dump(&self) -> Vec<TsmObjectRow> {
        self.replica
            .read()
            .table
            .scan()
            .map(|(_, r)| r.clone())
            .collect()
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
        self.replica.table.scan().map(|(&objid, _)| objid)
    }

    pub fn row(&self, objid: u64) -> Option<&TsmObjectRow> {
        self.replica.table.get(&objid)
    }

    /// Insert or refresh one row.
    pub fn record(&mut self, row: TsmObjectRow) {
        self.replica.table.upsert(row.objid, row);
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Drop a row if present.
    pub fn forget(&mut self, objid: u64) {
        if self.replica.table.remove(&objid).is_some() {
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

    #[test]
    fn sort_for_recall_orders_by_tape_then_seq() {
        let c = TsmCatalog::new();
        c.record(row(1, "/a", 1, 2, 7));
        c.record(row(2, "/b", 2, 0, 3));
        c.record(row(3, "/c", 3, 2, 1));
        c.record(row(4, "/d", 4, 0, 9));
        let sorted = c.sort_for_recall(&[1, 2, 3, 4, 999]);
        let order: Vec<u64> = sorted.iter().map(|r| r.objid).collect();
        assert_eq!(order, vec![2, 4, 3, 1]); // (0,3) (0,9) (2,1) (2,7)
    }

    #[test]
    fn on_tape_is_volume_local_and_ordered() {
        let c = TsmCatalog::new();
        c.record(row(1, "/a", 1, 1, 5));
        c.record(row(2, "/b", 2, 1, 2));
        c.record(row(3, "/c", 3, 0, 0));
        c.record(row(4, "/d", 4, 2, 0));
        let t1 = c.on_tape(1);
        let order: Vec<u64> = t1.iter().map(|r| r.objid).collect();
        assert_eq!(order, vec![2, 1]);
    }
}
