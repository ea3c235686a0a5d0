//! The disk-cache stager pool: pinned LRU over recalled files.
//!
//! In the HSM model a recalled file becomes *premigrated* — data on disk
//! **and** a sealed tape copy. The stager pool is the set of premigrated
//! files whose disk copies the stager manages: a repeat recall of a
//! pooled file is a *cache hit* served straight off disk (zero tape
//! mounts), and eviction is simply re-punching the hole (the tape copy is
//! already sealed, so no data moves). Pinned entries survive LRU
//! pressure until unpinned; recency is a logical tick bumped on every
//! touch, with ino as the deterministic tie-break.

use copra_vfs::Ino;
use rustc_hash::FxHashMap;

#[derive(Debug, Clone, Copy)]
struct PoolEntry {
    bytes: u64,
    pinned: bool,
    last_use: u64,
}

impl PoolEntry {
    fn pinned_bytes(&self) -> u64 {
        if self.pinned {
            self.bytes
        } else {
            0
        }
    }
}

/// Why an insert could not place a file in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolReject {
    /// Larger than the whole pool — never cacheable.
    TooLarge,
    /// Everything evictable is pinned; the file stays uncached.
    AllPinned,
}

/// The stager pool bookkeeping. Holds no I/O handles — the orchestrator
/// owns the Pfs and punches holes for whatever `insert` evicts.
#[derive(Debug, Default)]
pub struct StagerPool {
    capacity: u64,
    used: u64,
    /// Bytes of the pinned entries, kept in step with every pin change.
    pinned: u64,
    tick: u64,
    entries: FxHashMap<Ino, PoolEntry>,
}

impl StagerPool {
    pub fn new(capacity_bytes: u64) -> Self {
        StagerPool {
            capacity: capacity_bytes,
            ..Default::default()
        }
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn contains(&self, ino: Ino) -> bool {
        self.entries.contains_key(&ino)
    }

    pub fn is_pinned(&self, ino: Ino) -> bool {
        self.entries.get(&ino).map(|e| e.pinned).unwrap_or(false)
    }

    /// Mark a pooled file used (cache hit). Returns false if not pooled.
    pub fn touch(&mut self, ino: Ino) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&ino) {
            Some(e) => {
                e.last_use = tick;
                true
            }
            None => false,
        }
    }

    /// Pin / unpin a pooled file. Returns false if not pooled.
    pub fn set_pinned(&mut self, ino: Ino, pinned: bool) -> bool {
        match self.entries.get_mut(&ino) {
            Some(e) => {
                self.pinned -= e.pinned_bytes();
                e.pinned = pinned;
                self.pinned += e.pinned_bytes();
                true
            }
            None => false,
        }
    }

    /// The LRU victim: the unpinned entry with the oldest `last_use`
    /// (ino breaks ties, so victim choice is deterministic).
    fn victim(&self) -> Option<Ino> {
        self.entries
            .iter()
            .filter(|(_, e)| !e.pinned)
            .min_by_key(|(ino, e)| (e.last_use, ino.0))
            .map(|(&ino, _)| ino)
    }

    /// Admit a freshly recalled file, evicting LRU victims until it fits.
    /// Returns the evicted inos (the caller punches their holes), or a
    /// [`PoolReject`] when the file cannot be pooled — the caller then
    /// punches *this* file's hole right after serving it.
    pub fn insert(&mut self, ino: Ino, bytes: u64, pin: bool) -> Result<Vec<Ino>, PoolReject> {
        if bytes > self.capacity {
            return Err(PoolReject::TooLarge);
        }
        if let Some(e) = self.entries.get_mut(&ino) {
            // Already pooled (raced a repeat recall): refresh.
            self.pinned -= e.pinned_bytes();
            e.pinned = e.pinned || pin;
            self.pinned += e.pinned_bytes();
            self.tick += 1;
            e.last_use = self.tick;
            return Ok(Vec::new());
        }
        // Feasibility first, so a doomed insert evicts nothing: even with
        // every unpinned entry gone, would the file fit?
        if self.pinned + bytes > self.capacity {
            return Err(PoolReject::AllPinned);
        }
        let mut evicted = Vec::new();
        while self.used + bytes > self.capacity {
            let victim = self.victim().expect("feasibility checked above");
            let e = self.entries.remove(&victim).expect("victim pooled");
            self.used -= e.bytes;
            evicted.push(victim);
        }
        self.tick += 1;
        self.entries.insert(
            ino,
            PoolEntry {
                bytes,
                pinned: pin,
                last_use: self.tick,
            },
        );
        self.used += bytes;
        if pin {
            self.pinned += bytes;
        }
        Ok(evicted)
    }

    /// Explicitly drop a pooled file (pinned or not). Returns true if it
    /// was pooled; the caller punches the hole.
    pub fn evict(&mut self, ino: Ino) -> bool {
        match self.entries.remove(&ino) {
            Some(e) => {
                self.used -= e.bytes;
                self.pinned -= e.pinned_bytes();
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest_unpinned() {
        let mut p = StagerPool::new(300);
        assert_eq!(p.insert(Ino(1), 100, false).unwrap(), vec![]);
        assert_eq!(p.insert(Ino(2), 100, false).unwrap(), vec![]);
        assert_eq!(p.insert(Ino(3), 100, false).unwrap(), vec![]);
        p.touch(Ino(1)); // 2 is now the LRU
        assert_eq!(p.insert(Ino(4), 100, false).unwrap(), vec![Ino(2)]);
        assert!(p.contains(Ino(1)) && p.contains(Ino(3)) && p.contains(Ino(4)));
        assert_eq!(p.used_bytes(), 300);
    }

    #[test]
    fn pinned_survives_pressure_until_unpinned() {
        let mut p = StagerPool::new(200);
        p.insert(Ino(1), 100, true).unwrap();
        p.insert(Ino(2), 100, false).unwrap();
        // Ino(1) is older but pinned: pressure takes Ino(2).
        assert_eq!(p.insert(Ino(3), 100, false).unwrap(), vec![Ino(2)]);
        assert!(p.contains(Ino(1)));
        // Unpin, then the next pressure round may take it.
        assert!(p.set_pinned(Ino(1), false));
        assert_eq!(p.insert(Ino(4), 200, false).unwrap(), vec![Ino(1), Ino(3)]);
        assert_eq!(p.used_bytes(), 200);
    }

    #[test]
    fn all_pinned_rejects_new_entry() {
        let mut p = StagerPool::new(200);
        p.insert(Ino(1), 100, true).unwrap();
        p.insert(Ino(2), 100, true).unwrap();
        assert_eq!(p.insert(Ino(3), 50, false), Err(PoolReject::AllPinned));
        assert!(!p.contains(Ino(3)));
        assert_eq!(p.used_bytes(), 200);
    }

    #[test]
    fn oversized_file_is_rejected_outright() {
        let mut p = StagerPool::new(100);
        assert_eq!(p.insert(Ino(1), 101, false), Err(PoolReject::TooLarge));
        assert!(p.is_empty());
    }

    /// `used_bytes` and the running pinned total match a recount of the
    /// entries themselves.
    fn check(p: &StagerPool) {
        let sum = |f: fn(&PoolEntry) -> u64| p.entries.values().map(f).sum::<u64>();
        let recount = (sum(|e| e.bytes), sum(PoolEntry::pinned_bytes));
        assert_eq!((p.used_bytes(), p.pinned), recount);
    }

    #[test]
    fn running_totals_track_every_pin_change() {
        let mut p = StagerPool::new(400);
        p.insert(Ino(1), 100, true).unwrap();
        p.insert(Ino(2), 150, false).unwrap();
        p.insert(Ino(3), 50, false).unwrap();
        check(&p);
        assert!(p.set_pinned(Ino(2), true));
        assert!(p.set_pinned(Ino(2), true)); // pinning twice counts once
        check(&p);
        assert!(p.set_pinned(Ino(1), false));
        check(&p);
        p.insert(Ino(3), 50, true).unwrap(); // refresh pins it
        p.insert(Ino(3), 50, false).unwrap(); // refresh never unpins
        check(&p);
        assert!(p.evict(Ino(2)));
        check(&p);
        // Pinned: 3 (50). Evicting 1 makes room for 350 bytes, not 351.
        assert_eq!(p.insert(Ino(4), 351, false), Err(PoolReject::AllPinned));
        assert_eq!(p.insert(Ino(4), 350, true).unwrap(), vec![Ino(1)]);
        check(&p);
        assert_eq!(p.pinned, 400);
        assert_eq!(p.insert(Ino(5), 1, false), Err(PoolReject::AllPinned));
        assert!(p.evict(Ino(4)) && p.set_pinned(Ino(3), false));
        check(&p);
        assert_eq!(p.pinned, 0);
    }

    #[test]
    fn reinsert_refreshes_and_merges_pin() {
        let mut p = StagerPool::new(300);
        p.insert(Ino(1), 100, false).unwrap();
        p.insert(Ino(2), 100, false).unwrap();
        p.insert(Ino(1), 100, true).unwrap(); // refresh + pin
        assert!(p.is_pinned(Ino(1)));
        assert_eq!(p.used_bytes(), 200);
        // 2 is now LRU despite being inserted later.
        assert_eq!(p.insert(Ino(3), 200, false).unwrap(), vec![Ino(2)]);
        assert!(p.contains(Ino(1)));
    }
}
