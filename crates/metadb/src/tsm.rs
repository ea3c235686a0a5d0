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

/// Export-pass tokens, unique across every catalog in the process. A token
/// names one pass over one catalog, so an exporter that presents it learns
/// whether anyone has synced the catalog since (an address would not do:
/// a dropped catalog's address can be reused).
static NEXT_SYNC_TOKEN: AtomicU64 = AtomicU64::new(1);

/// The end of an inode's list, and the head of an inode with no rows
/// (objid 0 is a valid row).
const NIL: u64 = u64::MAX;

/// The rows in a slab indexed by objid, and the `by_ino` index as one
/// singly linked list per inode, threaded through the slab in ascending
/// objid order. The TSM server hands out objids densely from 1 and the
/// file system numbers inodes densely, so every access is an array index.
/// Slots are never shrunk: memory grows with the largest objid and inode
/// number ever recorded, not with the live rows, as with the inode table
/// (DESIGN §10).
struct Replica {
    /// Slot `objid` holds that object's row, if it has one.
    rows: Vec<Option<TsmObjectRow>>,
    /// Live rows.
    live: usize,
    /// `heads[fs_ino]`: the least objid filed under `fs_ino`, or `NIL`.
    heads: Vec<u64>,
    /// `next[objid]`: the next objid filed under the same inode, or `NIL`.
    /// As long as `rows`.
    next: Vec<u64>,
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

    fn row(&self, objid: u64) -> Option<&TsmObjectRow> {
        self.rows.get(objid as usize)?.as_ref()
    }

    /// Insert or replace a row, re-filing its index entry if it moved.
    fn upsert(&mut self, row: TsmObjectRow) {
        let (objid, fs_ino) = (row.objid, row.fs_ino);
        assert_ne!(objid, NIL, "objid {NIL} is reserved");
        let slot = objid as usize;
        if slot >= self.rows.len() {
            self.rows.resize_with(slot + 1, || None);
            self.next.resize(slot + 1, NIL);
        }
        match self.rows[slot].replace(row) {
            Some(old) if old.fs_ino == fs_ino => return,
            Some(old) => self.unlink(old.fs_ino, objid),
            None => self.live += 1,
        }
        self.link(fs_ino, objid);
    }

    fn remove(&mut self, objid: u64) -> Option<TsmObjectRow> {
        let row = self.rows.get_mut(objid as usize)?.take()?;
        self.unlink(row.fs_ino, objid);
        self.live -= 1;
        Some(row)
    }

    /// File `objid` under `fs_ino`, after every lesser objid there.
    fn link(&mut self, fs_ino: u64, objid: u64) {
        let ino = fs_ino as usize;
        if ino >= self.heads.len() {
            self.heads.resize(ino + 1, NIL);
        }
        let (mut prev, mut at) = (NIL, self.heads[ino]);
        while at != NIL && at < objid {
            (prev, at) = (at, self.next[at as usize]);
        }
        self.next[objid as usize] = at;
        match prev {
            NIL => self.heads[ino] = objid,
            prev => self.next[prev as usize] = objid,
        }
    }

    /// Take `objid` out of `fs_ino`'s list, which holds it.
    fn unlink(&mut self, fs_ino: u64, objid: u64) {
        let after = std::mem::replace(&mut self.next[objid as usize], NIL);
        let ino = fs_ino as usize;
        if self.heads[ino] == objid {
            self.heads[ino] = after;
            return;
        }
        let mut at = self.heads[ino];
        while self.next[at as usize] != objid {
            at = self.next[at as usize];
        }
        self.next[at as usize] = after;
    }
}

/// Thread-safe exported catalog: the rows by objid plus one typed index,
/// `by_ino`: each GPFS file id's objids in ascending order.
///
/// Both are arrays indexed by objid and inode number (see `Replica`), so
/// the catalog's memory grows with the objids and inode numbers ever
/// recorded, the same trade-off the inode table makes (DESIGN §10).
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
                rows: Vec::new(),
                live: 0,
                heads: Vec::new(),
                next: Vec::new(),
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
    /// names a live row that files under exactly that entry, each inode's
    /// entries ascend by objid, there are as many entries as rows, and the
    /// live count is the number of rows. Returns the first violation found.
    pub fn verify_indexes(&self) -> Result<(), String> {
        let r = self.replica.read();
        let mut entries = 0;
        for (ino, &head) in r.heads.iter().enumerate() {
            let (mut prev, mut at) = (None, head);
            while at != NIL {
                let entry = (ino as u64, at);
                let Some(row) = r.row(at) else {
                    return Err(format!("index \"by_ino\": entry {entry:?} has no row"));
                };
                if row.fs_ino != entry.0 {
                    let want = (row.fs_ino, at);
                    return Err(format!(
                        "index \"by_ino\": entry {entry:?} but its row files under {want:?}"
                    ));
                }
                // Strictly ascending, so a cycle is caught here too.
                if let Some(prev) = prev.filter(|&prev| prev >= at) {
                    return Err(format!(
                        "index \"by_ino\": entry {entry:?} follows objid {prev}, out of order"
                    ));
                }
                entries += 1;
                (prev, at) = (Some(at), r.next[at as usize]);
            }
        }
        let rows = r.rows.iter().flatten().count();
        if entries != rows {
            return Err(format!(
                "index \"by_ino\": {entries} entries for {rows} rows"
            ));
        }
        if r.live != rows {
            return Err(format!("live count {} for {rows} rows", r.live));
        }
        Ok(())
    }

    pub fn lookup(&self, objid: u64) -> Option<TsmObjectRow> {
        self.replica.read().row(objid).cloned()
    }

    pub fn len(&self) -> usize {
        self.replica.read().live
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Objects recorded for a GPFS file id, in objid order.
    pub fn by_ino(&self, fs_ino: u64) -> Vec<TsmObjectRow> {
        let r = self.replica.read();
        let mut rows = Vec::new();
        let mut at = r.heads.get(fs_ino as usize).copied().unwrap_or(NIL);
        while at != NIL {
            rows.push(r.row(at).cloned().expect("a by_ino entry has a row"));
            at = r.next[at as usize];
        }
        rows
    }

    /// Full dump in objid order (reconcile compares this against tape and
    /// file-system truth).
    pub fn dump(&self) -> Vec<TsmObjectRow> {
        self.replica.read().rows.iter().flatten().cloned().collect()
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
        self.replica.rows.iter().flatten().map(|row| row.objid)
    }

    pub fn row(&self, objid: u64) -> Option<&TsmObjectRow> {
        self.replica.row(objid)
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

    /// A catalog beside a plain map of the rows it should hold.
    struct Model {
        catalog: TsmCatalog,
        rows: std::collections::BTreeMap<u64, TsmObjectRow>,
        generation: u64,
    }

    /// Objids and inode numbers the model programs draw from; queries go
    /// past both, and past the end of either table.
    const OBJIDS: u64 = 48;
    const INOS: u64 = 10;

    impl Model {
        fn new() -> Model {
            Model {
                catalog: TsmCatalog::new(),
                rows: Default::default(),
                generation: 0,
            }
        }

        fn record(&mut self, r: TsmObjectRow) {
            self.rows.insert(r.objid, r.clone());
            self.catalog.record(r);
            self.generation += 1;
        }

        fn forget(&mut self, objid: u64) {
            let want = self.rows.remove(&objid);
            self.generation += u64::from(want.is_some());
            assert_eq!(self.catalog.forget(objid), want, "forget {objid}");
        }

        /// Every query equals a filter over the map and the index verifies.
        fn check(&self, at: &str) {
            let c = &self.catalog;
            assert_eq!(c.verify_indexes(), Ok(()), "{at}");
            assert_eq!(c.generation(), self.generation, "{at}");
            assert_eq!(c.len(), self.rows.len(), "{at}");
            assert_eq!(c.is_empty(), self.rows.is_empty(), "{at}");
            assert_eq!(
                c.dump(),
                self.rows.values().cloned().collect::<Vec<_>>(),
                "{at}"
            );
            for objid in (0..OBJIDS + 4).chain([NIL - 1, NIL]) {
                assert_eq!(c.lookup(objid).as_ref(), self.rows.get(&objid), "{at}");
            }
            for ino in (0..INOS + 4).chain([NIL - 1, NIL]) {
                let want: Vec<TsmObjectRow> = (self.rows.values())
                    .filter(|r| r.fs_ino == ino)
                    .cloned()
                    .collect();
                assert_eq!(c.by_ino(ino), want, "{at} ino {ino}");
            }
        }
    }

    /// A fixed program over one inode's list, then seeded random programs
    /// of `record`, `forget` and export passes, each checked against a
    /// plain map after every step.
    #[test]
    fn queries_match_a_reference_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut m = Model::new();
        // Several objids on inode 3, recorded out of objid order; one is
        // re-filed to inode 4 and back; forgets take the list's head, a
        // middle entry and its tail; forgets and queries run past the end
        // of both tables.
        type Step = (&'static str, fn(&mut Model));
        let steps: [Step; 13] = [
            ("record 5", |m| m.record(row(5, "/c", 3, 0, 5))),
            ("record 2", |m| m.record(row(2, "/c", 3, 0, 2))),
            ("record 9", |m| m.record(row(9, "/c", 3, 1, 0))),
            ("record 7", |m| m.record(row(7, "/c", 3, 0, 7))),
            ("refresh 7", |m| m.record(row(7, "/c", 3, 2, 7))),
            ("re-file 7", |m| m.record(row(7, "/d", 4, 2, 7))),
            ("re-file 7 back", |m| m.record(row(7, "/c", 3, 2, 7))),
            ("forget head", |m| m.forget(2)),
            ("record 0", |m| m.record(row(0, "/c", 3, 0, 0))),
            ("forget middle", |m| m.forget(7)),
            ("forget tail", |m| m.forget(9)),
            ("forget past the end", |m| {
                m.forget(OBJIDS + 2);
                m.forget(NIL);
            }),
            ("forget the rest", |m| {
                m.forget(5);
                m.forget(0);
            }),
        ];
        for (name, step) in steps {
            step(&mut m);
            m.check(name);
        }

        fn random_row(rng: &mut StdRng) -> TsmObjectRow {
            let objid = rng.gen_range(0..OBJIDS);
            let ino = rng.gen_range(0..INOS);
            let (tape, seq) = (rng.gen_range(0..5u32), rng.gen_range(0..16u32));
            row(objid, &format!("/f{ino}"), ino, tape, seq)
        }
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Model::new();
            for step in 0..300 {
                match rng.gen_range(0..10u32) {
                    0..=4 => m.record(random_row(&mut rng)),
                    5..=7 => m.forget(rng.gen_range(0..OBJIDS + 4)),
                    _ => {
                        let mut pass = m.catalog.begin_export();
                        for _ in 0..rng.gen_range(0..12u32) {
                            if rng.gen_bool(0.6) {
                                let r = random_row(&mut rng);
                                m.rows.insert(r.objid, r.clone());
                                pass.record(r);
                                m.generation += 1;
                            } else {
                                let objid = rng.gen_range(0..OBJIDS + 4);
                                assert_eq!(pass.row(objid), m.rows.get(&objid));
                                m.generation += u64::from(m.rows.remove(&objid).is_some());
                                pass.forget(objid);
                            }
                            assert!(pass.objids().eq(m.rows.keys().copied()));
                        }
                        pass.finish();
                    }
                }
                m.check(&format!("seed {seed} step {step}"));
            }
        }
    }

    #[test]
    fn verify_indexes_catches_deliberate_corruption() {
        let corrupt = |f: fn(&mut Replica)| {
            let c = TsmCatalog::new();
            c.record(row(1, "/a", 10, 5, 2));
            c.record(row(2, "/b", 11, 5, 3));
            c.record(row(3, "/a", 10, 5, 4));
            f(&mut c.replica.write());
            c.verify_indexes().unwrap_err()
        };
        // Dangling entry: a row removed behind the index's back.
        let err = corrupt(|r| r.rows[1] = None);
        assert!(err.contains("(10, 1) has no row"), "got: {err}");
        // Stale key: a row rewritten without re-filing its entry.
        let err = corrupt(|r| r.rows[2] = Some(row(2, "/b", 12, 5, 3)));
        assert!(
            err.contains("by_ino") && err.contains("files under (12, 2)"),
            "got: {err}"
        );
        // Missing entry: a row that was never indexed.
        let err = corrupt(|r| r.heads[11] = NIL);
        assert!(err.contains("2 entries for 3 rows"), "got: {err}");
        // Unordered link: inode 10's list runs 3, 1.
        let err = corrupt(|r| {
            (r.heads[10], r.next[3], r.next[1]) = (3, 1, NIL);
        });
        assert!(err.contains("(10, 1) follows objid 3"), "got: {err}");
        // A live count that drifted from the rows.
        let err = corrupt(|r| r.live += 1);
        assert!(err.contains("live count 4 for 3 rows"), "got: {err}");
    }
}
