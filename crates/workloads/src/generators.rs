//! Parametric workload generators used across the experiments.

use copra_pfs::Pfs;
use copra_vfs::Content;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

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
pub fn populate(pfs: &Pfs, root: &str, tree: &TreeSpec) -> (usize, u64) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use copra_simtime::Clock;

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
        let pfs = copra_pfs::PfsBuilder::scratch("s", Clock::new(), 2).build();
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

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            mixed_tree(50, 1000, 1.0, 4, 7),
            mixed_tree(50, 1000, 1.0, 4, 7)
        );
        assert_eq!(huge_file("x", 10, 1), huge_file("x", 10, 1));
    }
}
