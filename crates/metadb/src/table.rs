//! Generic table with a primary key and ordered secondary indexes.
//!
//! Invariant (property-tested): after any sequence of upsert/remove, every
//! secondary index contains exactly one entry per live row, keyed by the
//! current extractor output. Index lookups therefore always agree with a
//! full scan.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A single indexed value. Composite index keys are `Vec<Value>` compared
/// lexicographically (`BTreeMap` over `IndexKey` gives range scans for
/// free, which is what "add an index in MySQL" buys the paper).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    U64(u64),
    I64(i64),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Composite index key.
pub type IndexKey = Vec<Value>;

type Extractor<K, R> = Box<dyn Fn(&K, &R) -> IndexKey + Send + Sync>;

struct IndexDef<K, R> {
    name: String,
    extract: Extractor<K, R>,
    map: BTreeMap<IndexKey, BTreeSet<K>>,
}

impl<K, R> IndexDef<K, R>
where
    K: Ord + Clone,
{
    fn insert(&mut self, key: &K, row: &R) {
        let ik = (self.extract)(key, row);
        self.map.entry(ik).or_default().insert(key.clone());
    }

    fn remove(&mut self, key: &K, row: &R) {
        let ik = (self.extract)(key, row);
        if let Some(set) = self.map.get_mut(&ik) {
            set.remove(key);
            if set.is_empty() {
                self.map.remove(&ik);
            }
        }
    }
}

impl<K: fmt::Debug, R> fmt::Debug for IndexDef<K, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Index({}, {} keys)", self.name, self.map.len())
    }
}

/// A typed table: `BTreeMap` primary storage plus named secondary indexes.
pub struct Table<K, R> {
    name: String,
    rows: BTreeMap<K, R>,
    indexes: Vec<IndexDef<K, R>>,
}

impl<K: fmt::Debug, R> fmt::Debug for Table<K, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("rows", &self.rows.len())
            .field("indexes", &self.indexes)
            .finish()
    }
}

impl<K: Ord + Clone, R: Clone> Table<K, R> {
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            rows: BTreeMap::new(),
            indexes: Vec::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add an ordered secondary index; existing rows are back-filled (the
    /// paper's whole point is being *able* to add indexes).
    pub fn add_index(
        &mut self,
        name: impl Into<String>,
        extract: impl Fn(&K, &R) -> IndexKey + Send + Sync + 'static,
    ) {
        let name = name.into();
        assert!(
            self.index_pos(&name).is_none(),
            "duplicate index name {name:?} on table {:?}",
            self.name
        );
        let mut def = IndexDef {
            name,
            extract: Box::new(extract),
            map: BTreeMap::new(),
        };
        for (k, r) in &self.rows {
            def.insert(k, r);
        }
        self.indexes.push(def);
    }

    fn index_pos(&self, name: &str) -> Option<usize> {
        self.indexes.iter().position(|i| i.name == name)
    }

    fn index(&self, name: &str) -> &IndexDef<K, R> {
        let pos = self
            .index_pos(name)
            .unwrap_or_else(|| panic!("no index {name:?} on table {:?}", self.name));
        &self.indexes[pos]
    }

    /// Insert or replace a row; returns the previous row if any.
    pub fn upsert(&mut self, key: K, row: R) -> Option<R> {
        if let Some(old_row) = self.rows.get(&key) {
            for idx in &mut self.indexes {
                idx.remove(&key, old_row);
            }
        }
        for idx in &mut self.indexes {
            idx.insert(&key, &row);
        }
        self.rows.insert(key, row)
    }

    /// Remove a row; returns it if present.
    pub fn remove(&mut self, key: &K) -> Option<R> {
        let row = self.rows.remove(key)?;
        for idx in &mut self.indexes {
            idx.remove(key, &row);
        }
        Some(row)
    }

    pub fn get(&self, key: &K) -> Option<&R> {
        self.rows.get(key)
    }

    pub fn contains(&self, key: &K) -> bool {
        self.rows.contains_key(key)
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Full scan in primary-key order.
    pub fn scan(&self) -> impl Iterator<Item = (&K, &R)> {
        self.rows.iter()
    }

    /// Point lookup via a secondary index: all primary keys whose index key
    /// equals `key`, in primary-key order.
    pub fn select(&self, index: &str, key: &IndexKey) -> Vec<K> {
        self.index(index)
            .map
            .get(key)
            .map(|set| set.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Full traversal in index order: (index key, primary key).
    pub fn index_scan(&self, index: &str) -> Vec<(IndexKey, K)> {
        self.index(index)
            .map
            .iter()
            .flat_map(|(ik, set)| set.iter().map(move |k| (ik.clone(), k.clone())))
            .collect()
    }

    /// Range scan over an index: entries with `lo <= index key < hi`, in
    /// index order.
    pub fn index_range(&self, index: &str, lo: &IndexKey, hi: &IndexKey) -> Vec<(IndexKey, K)> {
        self.index(index)
            .map
            .range(lo.clone()..hi.clone())
            .flat_map(|(ik, set)| set.iter().map(move |k| (ik.clone(), k.clone())))
            .collect()
    }

    /// Consistency check: every secondary-index entry resolves to a live
    /// row whose extractor still produces that index key, and every live
    /// row appears in every index exactly once. Returns the first
    /// violation found (scrub calls this after repairing the catalog).
    pub fn verify_indexes(&self) -> Result<(), String>
    where
        K: fmt::Debug,
    {
        for idx in &self.indexes {
            let mut indexed = 0usize;
            for (ik, set) in &idx.map {
                if set.is_empty() {
                    return Err(format!(
                        "table {:?} index {:?}: empty key set for {ik:?}",
                        self.name, idx.name
                    ));
                }
                for key in set {
                    indexed += 1;
                    let Some(row) = self.rows.get(key) else {
                        return Err(format!(
                            "table {:?} index {:?}: entry {key:?} has no row",
                            self.name, idx.name
                        ));
                    };
                    let expect = (idx.extract)(key, row);
                    if expect != *ik {
                        return Err(format!(
                            "table {:?} index {:?}: entry {key:?} filed under \
                             {ik:?} but extractor says {expect:?}",
                            self.name, idx.name
                        ));
                    }
                }
            }
            if indexed != self.rows.len() {
                return Err(format!(
                    "table {:?} index {:?}: {indexed} entries for {} rows",
                    self.name,
                    idx.name,
                    self.rows.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Row {
        path: String,
        tape: u64,
        seq: u64,
    }

    fn table() -> Table<u64, Row> {
        let mut t = Table::new("objects");
        t.add_index("by_path", |_, r: &Row| vec![r.path.as_str().into()]);
        t.add_index("by_tape_seq", |_, r: &Row| {
            vec![r.tape.into(), r.seq.into()]
        });
        t
    }

    fn row(path: &str, tape: u64, seq: u64) -> Row {
        Row {
            path: path.to_string(),
            tape,
            seq,
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut t = table();
        assert!(t.upsert(1, row("/a", 0, 0)).is_none());
        assert_eq!(t.get(&1).unwrap().path, "/a");
        assert_eq!(t.len(), 1);
        let old = t.remove(&1).unwrap();
        assert_eq!(old.path, "/a");
        assert!(t.is_empty());
        assert!(t.remove(&1).is_none());
    }

    #[test]
    fn select_by_secondary_key() {
        let mut t = table();
        t.upsert(1, row("/a", 5, 2));
        t.upsert(2, row("/b", 5, 1));
        t.upsert(3, row("/a", 6, 0));
        assert_eq!(t.select("by_path", &vec!["/a".into()]), vec![1, 3]);
        assert!(t.select("by_path", &vec!["/zzz".into()]).is_empty());
        // empty-table select is fine too
        let empty = table();
        assert!(empty.select("by_path", &vec!["/a".into()]).is_empty());
    }

    #[test]
    fn index_scan_orders_by_composite_key() {
        let mut t = table();
        t.upsert(1, row("/a", 5, 2));
        t.upsert(2, row("/b", 5, 1));
        t.upsert(3, row("/c", 4, 9));
        let order: Vec<u64> = t
            .index_scan("by_tape_seq")
            .into_iter()
            .map(|(_, k)| k)
            .collect();
        assert_eq!(order, vec![3, 2, 1]); // (4,9) < (5,1) < (5,2)
    }

    #[test]
    fn upsert_moves_index_entries() {
        let mut t = table();
        t.upsert(1, row("/a", 5, 2));
        t.upsert(1, row("/renamed", 7, 0));
        assert!(t.select("by_path", &vec!["/a".into()]).is_empty());
        assert_eq!(t.select("by_path", &vec!["/renamed".into()]), vec![1]);
        let order: Vec<u64> = t
            .index_scan("by_tape_seq")
            .into_iter()
            .map(|(_, k)| k)
            .collect();
        assert_eq!(order, vec![1]);
    }

    #[test]
    fn add_index_backfills() {
        let mut t: Table<u64, Row> = Table::new("t");
        t.upsert(1, row("/a", 1, 1));
        t.upsert(2, row("/b", 0, 0));
        t.add_index("late", |_, r: &Row| vec![r.tape.into(), r.seq.into()]);
        let order: Vec<u64> = t.index_scan("late").into_iter().map(|(_, k)| k).collect();
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn index_range_filters() {
        let mut t = table();
        for i in 0..10u64 {
            t.upsert(i, row(&format!("/f{i}"), i / 3, i % 3));
        }
        let hits = t.index_range(
            "by_tape_seq",
            &vec![1u64.into(), 0u64.into()],
            &vec![2u64.into(), 0u64.into()],
        );
        // tape 1 only: keys 3,4,5
        let keys: Vec<u64> = hits.into_iter().map(|(_, k)| k).collect();
        assert_eq!(keys, vec![3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "no index")]
    fn unknown_index_panics() {
        let t = table();
        let _ = t.select("nope", &vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn duplicate_index_rejected() {
        let mut t = table();
        t.add_index("by_path", |_, _r: &Row| vec![]);
    }

    #[test]
    fn verify_indexes_accepts_consistent_table() {
        let mut t = table();
        for i in 0..10u64 {
            t.upsert(i, row(&format!("/f{i}"), i / 3, i % 3));
        }
        t.remove(&4);
        t.upsert(7, row("/moved", 9, 9));
        assert_eq!(t.verify_indexes(), Ok(()));
    }

    #[test]
    fn verify_indexes_catches_deliberate_corruption() {
        // Dangling entry: index points at a row that was removed behind
        // the index's back.
        let mut t = table();
        t.upsert(1, row("/a", 5, 2));
        t.rows.remove(&1);
        let err = t.verify_indexes().unwrap_err();
        assert!(err.contains("has no row"), "got: {err}");

        // Stale key: row mutated without re-filing the index entry.
        let mut t = table();
        t.upsert(1, row("/a", 5, 2));
        t.rows.insert(1, row("/renamed", 5, 2));
        let err = t.verify_indexes().unwrap_err();
        assert!(err.contains("extractor says"), "got: {err}");

        // Missing entry: row never indexed.
        let mut t = table();
        t.upsert(1, row("/a", 5, 2));
        t.indexes[0].map.clear();
        let err = t.verify_indexes().unwrap_err();
        assert!(err.contains("entries for"), "got: {err}");
    }

    #[test]
    fn values_order_lexicographically() {
        assert!(Value::U64(1) < Value::U64(2));
        assert!(vec![Value::U64(1), Value::U64(9)] < vec![Value::U64(2), Value::U64(0)]);
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
    }
}
