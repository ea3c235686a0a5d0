//! A lock-striped `u64 → V` map for side tables keyed by inode number.
//!
//! Higher layers keep auxiliary per-ino state (pool residency) that the
//! parallel policy scan reads. `StripedU64Map` spreads keys over a
//! power-of-two number of independently locked stripes, so scan threads
//! reading different inos rarely collide.

use parking_lot::RwLock;
use rustc_hash::FxHashMap;

pub struct StripedU64Map<V> {
    stripes: Vec<RwLock<FxHashMap<u64, V>>>,
    mask: u64,
}

impl<V> StripedU64Map<V> {
    /// Create a map with at least `stripes` stripes (rounded up to a power
    /// of two, minimum 1).
    pub fn new(stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        StripedU64Map {
            stripes: (0..n).map(|_| RwLock::new(FxHashMap::default())).collect(),
            mask: (n - 1) as u64,
        }
    }

    fn stripe(&self, key: u64) -> &RwLock<FxHashMap<u64, V>> {
        &self.stripes[(key & self.mask) as usize]
    }

    pub fn insert(&self, key: u64, value: V) -> Option<V> {
        self.stripe(key).write().insert(key, value)
    }

    pub fn remove(&self, key: u64) -> Option<V> {
        self.stripe(key).write().remove(&key)
    }

    pub fn contains_key(&self, key: u64) -> bool {
        self.stripe(key).read().contains_key(&key)
    }

    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.read().is_empty())
    }

    pub fn clear(&self) {
        for s in &self.stripes {
            s.write().clear();
        }
    }

    /// Visit every entry, one stripe lock at a time (stripe order, arbitrary
    /// order within a stripe).
    pub fn for_each(&self, mut f: impl FnMut(u64, &V)) {
        for s in &self.stripes {
            for (k, v) in s.read().iter() {
                f(*k, v);
            }
        }
    }
}

impl<V: Clone> StripedU64Map<V> {
    pub fn get(&self, key: u64) -> Option<V> {
        self.stripe(key).read().get(&key).cloned()
    }
}

impl<V> Default for StripedU64Map<V> {
    fn default() -> Self {
        StripedU64Map::new(16)
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for StripedU64Map<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StripedU64Map({} stripes)", self.stripes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let m = StripedU64Map::new(8);
        assert!(m.is_empty());
        for i in 0..100u64 {
            assert_eq!(m.insert(i, i * 2), None);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(42), Some(84));
        assert_eq!(m.remove(42), Some(84));
        assert_eq!(m.get(42), None);
        assert!(m.contains_key(7));
        let mut sum = 0;
        m.for_each(|_, v| sum += v);
        assert_eq!(sum, (0..100).map(|i| i * 2).sum::<u64>() - 84);
    }

    #[test]
    fn concurrent_inserts_disjoint_keys() {
        let m = std::sync::Arc::new(StripedU64Map::new(16));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        m.insert(t * 1000 + i, t);
                    }
                });
            }
        });
        assert_eq!(m.len(), 4000);
    }
}
