//! Parametric workload generators used across the experiments.

use copra_pfs::Pfs;
use copra_vfs::{Content, Ino};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One file to create.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileSpec {
    /// Path relative to the tree root (no leading slash).
    pub rel_path: String,
    pub size: u64,
    /// Synthetic content stream seed.
    pub seed: u64,
    pub uid: u32,
}

/// A whole generated tree.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeSpec {
    pub files: Vec<FileSpec>,
}

impl TreeSpec {
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

/// The §6.1 workload: `count` files of exactly `size` bytes ("a user
/// copied millions of 8 MB files to GPFS disk").
pub fn small_file_storm(count: usize, size: u64, seed: u64) -> TreeSpec {
    TreeSpec {
        files: (0..count)
            .map(|i| FileSpec {
                rel_path: format!("small/{:02}/f{i:07}.dat", i % 64),
                size,
                seed: seed.wrapping_add(i as u64),
                uid: 1000,
            })
            .collect(),
    }
}

/// One very large file (the ArchiveFUSE regime, §4.1.2-4).
pub fn huge_file(name: &str, size: u64, seed: u64) -> TreeSpec {
    TreeSpec {
        files: vec![FileSpec {
            rel_path: name.to_string(),
            size,
            seed,
            uid: 1000,
        }],
    }
}

/// A mixed tree: `count` files with log-normal sizes (ln-space mean such
/// that the expected size is `mean_size`), spread over a directory
/// hierarchy `fanout` wide.
pub fn mixed_tree(count: usize, mean_size: u64, sigma: f64, fanout: usize, seed: u64) -> TreeSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mu = (mean_size.max(1) as f64).ln() - sigma * sigma / 2.0;
    let dist = LogNormal::new(mu, sigma).expect("valid lognormal");
    let fanout = fanout.max(1);
    TreeSpec {
        files: (0..count)
            .map(|i| {
                let d1 = i % fanout;
                let d2 = (i / fanout) % fanout;
                FileSpec {
                    rel_path: format!("d{d1:03}/e{d2:03}/f{i:07}.dat"),
                    size: (dist.sample(&mut rng) as u64).max(1),
                    seed: rng.gen(),
                    uid: 1000 + (i % 7) as u32,
                }
            })
            .collect(),
    }
}

/// Create a tree's files under `root` on `pfs`. Returns (files, bytes).
/// Each directory is made once, by `mkdir_p`, and each file is created
/// by name in its directory's inode, so no file path is built.
pub fn populate(pfs: &Pfs, root: &str, tree: &TreeSpec) -> (usize, u64) {
    let mut dirs: HashMap<&str, Ino> = HashMap::new();
    let mut bytes = 0;
    for f in &tree.files {
        let (dir, name) = f.rel_path.rsplit_once('/').unwrap_or(("", &f.rel_path));
        let parent = *dirs
            .entry(dir)
            .or_insert_with(|| pfs.mkdir_p(&format!("{root}/{dir}")).expect("mkdir"));
        let content = Content::synthetic(f.seed, f.size);
        pfs.create_in(parent, name, f.uid, content, f.size)
            .expect("create");
        bytes += f.size;
    }
    (tree.files.len(), bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_pfs::{Action, Cmp, PfsBuilder, PoolConfig, Predicate, Rule};
    use copra_simtime::{Clock, DataSize, SimInstant};

    #[test]
    fn small_file_storm_is_uniform() {
        let t = small_file_storm(1000, 8_000_000, 1);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.total_bytes(), 8_000_000_000);
        assert!(t.files.iter().all(|f| f.size == 8_000_000));
        // spread across subdirectories
        let dirs: std::collections::HashSet<_> = t
            .files
            .iter()
            .map(|f| f.rel_path.split('/').nth(1).unwrap())
            .collect();
        assert_eq!(dirs.len(), 64);
    }

    #[test]
    fn mixed_tree_hits_target_mean() {
        let t = mixed_tree(5000, 1_000_000, 1.2, 8, 9);
        let mean = t.total_bytes() as f64 / t.len() as f64;
        assert!(
            (0.7..1.4).contains(&(mean / 1e6)),
            "mean {mean} should be near 1 MB"
        );
    }

    #[test]
    fn populate_builds_the_namespace() {
        let pfs = PfsBuilder::scratch("s", Clock::new(), 2).build();
        let t = mixed_tree(200, 10_000, 1.0, 4, 3);
        let (files, bytes) = populate(&pfs, "/data", &t);
        assert_eq!(files, 200);
        assert_eq!(bytes, t.total_bytes());
        assert_eq!(pfs.vfs().total_bytes(), bytes);
        let walked = pfs
            .walk("/data")
            .unwrap()
            .iter()
            .filter(|e| e.attr.is_file())
            .count();
        assert_eq!(walked, 200);
    }

    /// The namespace build `populate` replaced: a full path and a
    /// path-based create per file.
    fn populate_by_path(pfs: &Pfs, root: &str, tree: &TreeSpec) -> (usize, u64) {
        let mut made_dirs = std::collections::HashSet::new();
        let mut bytes = 0;
        for f in &tree.files {
            let path = format!("{}/{}", root.trim_end_matches('/'), f.rel_path);
            if let Ok((parent, _)) = copra_vfs::parent_and_name(&path) {
                if made_dirs.insert(parent.clone()) {
                    pfs.mkdir_p(&parent).expect("mkdir");
                }
            }
            pfs.create_file(&path, f.uid, Content::synthetic(f.seed, f.size))
                .expect("create");
            bytes += f.size;
        }
        (tree.files.len(), bytes)
    }

    #[test]
    fn populate_matches_the_path_based_build() {
        let place = |pool: &str, predicate| Rule {
            name: format!("to-{pool}"),
            action: Action::Place {
                pool: pool.to_string(),
            },
            predicate,
        };
        let by_size = place("slow", Predicate::SizeBytes(Cmp::Lt, 1 << 16));
        let by_path = place("slow", Predicate::Under("/proj/w001".to_string()));
        // The second half of `wave` lands in directories the first made.
        let wave = mixed_tree(600, 50_000, 1.5, 4, 1);
        let (first, second) = wave.files.split_at(300);
        let part = |files: &[FileSpec]| TreeSpec {
            files: files.to_vec(),
        };
        let steps = [
            ("/proj/w000", part(first)),
            ("/proj/w001", mixed_tree(300, 50_000, 1.5, 3, 2)),
            ("/storm/", small_file_storm(200, 100_000, 3)),
            ("/", huge_file("big.dat", 10 << 20, 4)),
            ("/proj/w000", part(second)),
        ];
        for rules in [vec![by_size.clone()], vec![by_path, by_size]] {
            let build = || {
                let clock = Clock::new();
                let pfs = PfsBuilder::new("archive", clock.clone())
                    .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(1)))
                    .pool(PoolConfig::slow_disk("slow", 2, DataSize::tb(1)))
                    .placement(rules.clone())
                    .build();
                (clock, pfs)
            };
            let (new, old) = (build(), build());
            for (at, (root, tree)) in steps.iter().enumerate() {
                for (clock, _) in [&new, &old] {
                    clock.advance_to(SimInstant::from_secs(60 * at as u64));
                }
                let made = populate(&new.1, root, tree);
                assert_eq!(made, populate_by_path(&old.1, root, tree), "{root}");
            }
            let walk = |pfs: &Pfs| -> Vec<_> {
                let walked = pfs.walk("/").unwrap().into_iter();
                walked.map(|e| (e.path, e.attr)).collect()
            };
            assert_eq!(walk(&new.1), walk(&old.1));
            for (a, b) in new.1.pools().iter().zip(old.1.pools()) {
                assert_eq!(a.usage(), b.usage(), "pool {}", a.name());
            }
            assert!(new.1.pools().iter().all(|p| p.usage().files > 0));
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            mixed_tree(50, 1000, 1.0, 4, 7),
            mixed_tree(50, 1000, 1.0, 4, 7)
        );
        assert_eq!(huge_file("x", 10, 1), huge_file("x", 10, 1));
    }
}
