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
//!
//! The unpinned entries are also kept in an ordered recency index keyed
//! by `(last_use, ino)`, so the LRU victim is the index's first element
//! and an eviction costs O(log pool), not a scan of every pooled file.

use copra_vfs::Ino;
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;

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
    /// `(last_use, ino)` of every unpinned entry, oldest first.
    lru: BTreeSet<(u64, Ino)>,
}

impl StagerPool {
    pub fn new(capacity_bytes: u64) -> Self {
        StagerPool {
            capacity: capacity_bytes,
            ..Default::default()
        }
    }

    #[cfg(test)]
    fn used_bytes(&self) -> u64 {
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

    /// Change a pooled entry in place, keeping the pinned total and the
    /// recency index in step. Returns false if `ino` is not pooled.
    fn update(&mut self, ino: Ino, f: impl FnOnce(&mut PoolEntry)) -> bool {
        let Some(e) = self.entries.get_mut(&ino) else {
            return false;
        };
        self.pinned -= e.pinned_bytes();
        if !e.pinned {
            self.lru.remove(&(e.last_use, ino));
        }
        f(e);
        self.pinned += e.pinned_bytes();
        if !e.pinned {
            self.lru.insert((e.last_use, ino));
        }
        true
    }

    /// Mark a pooled file used (cache hit). Returns false if not pooled.
    pub fn touch(&mut self, ino: Ino) -> bool {
        self.tick += 1;
        let tick = self.tick;
        self.update(ino, |e| e.last_use = tick)
    }

    /// Pin / unpin a pooled file. Returns false if not pooled.
    pub fn set_pinned(&mut self, ino: Ino, pinned: bool) -> bool {
        self.update(ino, |e| e.pinned = pinned)
    }

    /// Admit a freshly recalled file, evicting LRU victims until it fits.
    /// Returns the evicted inos (the caller punches their holes), or a
    /// [`PoolReject`] when the file cannot be pooled — the caller then
    /// punches *this* file's hole right after serving it.
    pub fn insert(&mut self, ino: Ino, bytes: u64, pin: bool) -> Result<Vec<Ino>, PoolReject> {
        if bytes > self.capacity {
            return Err(PoolReject::TooLarge);
        }
        // Already pooled (raced a repeat recall): refresh.
        let tick = self.tick + 1;
        if self.update(ino, |e| {
            e.pinned |= pin;
            e.last_use = tick;
        }) {
            self.tick = tick;
            return Ok(Vec::new());
        }
        // Feasibility first, so a doomed insert evicts nothing: even with
        // every unpinned entry gone, would the file fit?
        if self.pinned + bytes > self.capacity {
            return Err(PoolReject::AllPinned);
        }
        let mut evicted = Vec::new();
        while self.used + bytes > self.capacity {
            // The LRU victim: the unpinned entry with the oldest
            // `last_use` (ino breaks ties).
            let (_, victim) = self.lru.pop_first().expect("feasibility checked above");
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
        } else {
            self.lru.insert((self.tick, ino));
        }
        Ok(evicted)
    }

    /// Explicitly drop a pooled file (pinned or not). Returns true if it
    /// was pooled; the caller punches the hole.
    pub fn evict(&mut self, ino: Ino) -> bool {
        let Some(e) = self.entries.remove(&ino) else {
            return false;
        };
        self.used -= e.bytes;
        self.pinned -= e.pinned_bytes();
        if !e.pinned {
            self.lru.remove(&(e.last_use, ino));
        }
        true
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
    /// entries themselves, and the recency index holds exactly the
    /// unpinned entries, each under its current `last_use`.
    fn check(p: &StagerPool) {
        let sum = |f: fn(&PoolEntry) -> u64| p.entries.values().map(f).sum::<u64>();
        let recount = (sum(|e| e.bytes), sum(PoolEntry::pinned_bytes));
        assert_eq!((p.used_bytes(), p.pinned), recount);
        let unpinned: BTreeSet<(u64, Ino)> = p
            .entries
            .iter()
            .filter(|(_, e)| !e.pinned)
            .map(|(&ino, e)| (e.last_use, ino))
            .collect();
        assert_eq!(p.lru, unpinned);
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

    /// The linear LRU the pool must agree with: one `(ino, bytes, pinned,
    /// last_use)` row per pooled file, the victim found by a scan.
    #[derive(Default)]
    struct Reference {
        capacity: u64,
        tick: u64,
        rows: Vec<(Ino, u64, bool, u64)>,
    }

    impl Reference {
        fn row(&mut self, ino: Ino) -> Option<&mut (Ino, u64, bool, u64)> {
            self.rows.iter_mut().find(|r| r.0 == ino)
        }

        fn used(&self) -> u64 {
            self.rows.iter().map(|r| r.1).sum()
        }

        fn pinned(&self) -> u64 {
            self.rows.iter().filter(|r| r.2).map(|r| r.1).sum()
        }

        fn touch(&mut self, ino: Ino) -> bool {
            self.tick += 1;
            let tick = self.tick;
            self.row(ino).map(|r| r.3 = tick).is_some()
        }

        fn set_pinned(&mut self, ino: Ino, pinned: bool) -> bool {
            self.row(ino).map(|r| r.2 = pinned).is_some()
        }

        fn insert(&mut self, ino: Ino, bytes: u64, pin: bool) -> Result<Vec<Ino>, PoolReject> {
            if bytes > self.capacity {
                return Err(PoolReject::TooLarge);
            }
            let tick = self.tick + 1;
            if let Some(r) = self.row(ino) {
                r.2 |= pin;
                r.3 = tick;
                self.tick = tick;
                return Ok(Vec::new());
            }
            if self.pinned() + bytes > self.capacity {
                return Err(PoolReject::AllPinned);
            }
            let mut evicted = Vec::new();
            while self.used() + bytes > self.capacity {
                let (i, _) = self
                    .rows
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !r.2)
                    .min_by_key(|(_, r)| (r.3, r.0))
                    .unwrap();
                evicted.push(self.rows.swap_remove(i).0);
            }
            self.tick += 1;
            self.rows.push((ino, bytes, pin, self.tick));
            Ok(evicted)
        }

        fn evict(&mut self, ino: Ino) -> bool {
            let before = self.rows.len();
            self.rows.retain(|r| r.0 != ino);
            self.rows.len() < before
        }
    }

    #[test]
    fn evictions_match_a_linear_lru_reference() {
        const CAPACITY: u64 = 10_000;
        for seed in 0..8 {
            let mut rng = crate::TestRng(seed);
            let mut p = StagerPool::new(CAPACITY);
            let mut r = Reference {
                capacity: CAPACITY,
                ..Default::default()
            };
            for _ in 0..4_000 {
                // 400 inos at up to ~1/20 of the pool each: pressure,
                // refreshes of pooled files and misses all happen.
                let ino = Ino(rng.below(400));
                match rng.below(10) {
                    0..=3 => {
                        let bytes = match rng.below(50) {
                            0 => CAPACITY + 1,
                            1 => CAPACITY / 2,
                            _ => 1 + rng.below(CAPACITY / 20),
                        };
                        let pin = rng.below(16) == 0;
                        assert_eq!(
                            p.insert(ino, bytes, pin),
                            r.insert(ino, bytes, pin),
                            "seed {seed}"
                        );
                    }
                    4..=6 => assert_eq!(p.touch(ino), r.touch(ino)),
                    7..=8 => {
                        // Unpins outnumber pins, so the pool cannot stay
                        // pinned solid.
                        let pin = rng.below(3) == 0;
                        assert_eq!(p.set_pinned(ino, pin), r.set_pinned(ino, pin));
                    }
                    _ => assert_eq!(p.evict(ino), r.evict(ino)),
                }
                assert_eq!(
                    (p.used_bytes(), p.pinned, p.len()),
                    (r.used(), r.pinned(), r.rows.len())
                );
                assert_eq!(p.is_pinned(ino), r.row(ino).is_some_and(|r| r.2));
                check(&p);
            }
        }
    }
}
