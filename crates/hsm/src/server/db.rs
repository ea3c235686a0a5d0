//! The server's object database and its incremental export.
//!
//! Every mutation goes through an [`ObjectDb`] method that logs the objid,
//! so the export that reads the log cannot miss a change.

use crate::object::{ObjectKind, TsmObject};
use copra_metadb::{TsmCatalog, TsmObjectRow};
use copra_tape::TapeAddress;
use rustc_hash::FxHashMap;

#[derive(Default)]
pub(super) struct ObjectDb {
    objects: FxHashMap<u64, TsmObject>,
    /// Token of the catalog pass that last drained `changed`; `None`
    /// before the first export.
    synced: Option<u64>,
    /// Objids inserted, rewritten or removed since that pass. Nothing is
    /// logged before the first export, which checks every object anyway.
    changed: Vec<u64>,
}

impl ObjectDb {
    fn touch(&mut self, objid: u64) {
        if self.synced.is_some() {
            self.changed.push(objid);
        }
    }

    pub(super) fn get(&self, objid: u64) -> Option<&TsmObject> {
        self.objects.get(&objid)
    }

    pub(super) fn len(&self) -> usize {
        self.objects.len()
    }

    pub(super) fn values(&self) -> impl Iterator<Item = &TsmObject> {
        self.objects.values()
    }

    pub(super) fn insert(&mut self, obj: TsmObject) {
        self.touch(obj.objid);
        self.objects.insert(obj.objid, obj);
    }

    pub(super) fn remove(&mut self, objid: u64) -> Option<TsmObject> {
        let obj = self.objects.remove(&objid)?;
        self.touch(objid);
        Some(obj)
    }

    /// Move every object at `old` to `new`; returns how many moved.
    pub(super) fn rebase(&mut self, old: TapeAddress, new: TapeAddress) -> usize {
        let mut moved = Vec::new();
        for obj in self.objects.values_mut() {
            if obj.addr == old {
                obj.addr = new;
                moved.push(obj.objid);
            }
        }
        for &objid in &moved {
            self.touch(objid);
        }
        moved.len()
    }

    /// Bring `catalog` to the full diff's fixed point: every object that is
    /// not a container has its row, and no row outlives its object. Only
    /// objids changed on either side since this database's last pass over
    /// this same catalog can differ, so only those are checked; any other
    /// catalog gets a full pass. Returns rows written.
    pub(super) fn export(&mut self, catalog: &TsmCatalog) -> usize {
        let mut pass = catalog.begin_export();
        let changed = std::mem::take(&mut self.changed);
        let mut candidates = match pass.drift_since(self.synced) {
            Some(mut drift) => {
                drift.extend(changed);
                drift
            }
            None => self.objects.keys().copied().chain(pass.objids()).collect(),
        };
        candidates.sort_unstable();
        candidates.dedup();
        let mut written = 0;
        for objid in candidates {
            match self.objects.get(&objid) {
                Some(obj) if matches!(obj.kind, ObjectKind::Container { .. }) => {}
                Some(obj) => {
                    if !pass.row(objid).is_some_and(|row| row_matches(obj, row)) {
                        pass.record(export_row(obj));
                        written += 1;
                    }
                }
                None => pass.forget(objid),
            }
        }
        self.synced = Some(pass.finish());
        written
    }
}

/// The catalog row `obj` exports to.
fn export_row(obj: &TsmObject) -> TsmObjectRow {
    TsmObjectRow {
        objid: obj.objid,
        path: obj.path.clone(),
        fs_ino: obj.fs_ino,
        tape: obj.addr.tape.0,
        seq: obj.addr.seq,
        len: obj.len,
        stored_at: obj.stored_at,
    }
}

/// `export_row(obj) == *row`, without building the row.
fn row_matches(obj: &TsmObject, row: &TsmObjectRow) -> bool {
    let TsmObjectRow {
        objid,
        path,
        fs_ino,
        tape,
        seq,
        len,
        stored_at,
    } = row;
    *objid == obj.objid
        && *path == obj.path
        && *fs_ino == obj.fs_ino
        && *tape == obj.addr.tape.0
        && *seq == obj.addr.seq
        && *len == obj.len
        && *stored_at == obj.stored_at
}
