//! The Roadrunner Open Science campaign trace (§5.2).

use crate::generators::FileSpec;
use copra_simtime::{SimDuration, SimInstant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// Campaign-level parameters (defaults reproduce the paper's campaign).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSpec {
    pub jobs: usize,
    pub days: u32,
    /// Log-normal of per-job total bytes: ln-space mean and sigma.
    pub bytes_mu: f64,
    pub bytes_sigma: f64,
    pub bytes_min: u64,
    pub bytes_max: u64,
    /// Log-normal of per-job *average file size*.
    pub avg_size_mu: f64,
    pub avg_size_sigma: f64,
    pub avg_size_min: u64,
    pub avg_size_max: u64,
    /// Cap on files per job (the paper's max observed is 2,920,088).
    pub max_files: u64,
    /// Within-job file-size spread (ln-space sigma around the job mean).
    pub intra_sigma: f64,
}

impl CampaignSpec {
    /// Calibrated to the reported Figure 8/9/11 ranges and means.
    pub fn roadrunner() -> Self {
        CampaignSpec {
            jobs: 62,
            days: 18,
            // mean 2,442 GB with sigma 1.8 → mu = ln(2442e9) − 1.8²/2
            bytes_mu: (2442e9f64).ln() - 1.8 * 1.8 / 2.0,
            bytes_sigma: 1.8,
            bytes_min: 4_000_000_000,
            bytes_max: 32_593_000_000_000,
            // mean 596 MB with sigma 2.0 → mu = ln(596e6) − 2
            avg_size_mu: (596e6f64).ln() - 2.0,
            avg_size_sigma: 2.0,
            avg_size_min: 4_000,
            avg_size_max: 4_220_000_000,
            max_files: 2_920_088,
            intra_sigma: 0.8,
        }
    }
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec::roadrunner()
    }
}

/// One archive job in the campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    pub id: u32,
    /// Operation day the job ran on (0-based).
    pub day: u32,
    /// Submission instant.
    pub submitted: SimInstant,
    /// Total files the job archives.
    pub files: u64,
    /// Total bytes the job archives.
    pub bytes: u64,
    /// Seed for materializing this job's file sizes.
    pub seed: u64,
    /// ln-space parameters for per-file sizes within this job.
    pub file_mu: f64,
    pub file_sigma: f64,
}

impl JobSpec {
    /// Average file size in bytes.
    pub fn avg_file_size(&self) -> f64 {
        if self.files == 0 {
            0.0
        } else {
            self.bytes as f64 / self.files as f64
        }
    }

    /// Materialize (up to `cap`) concrete file specs for this job.
    ///
    /// A job with millions of files is *represented* by `cap` files whose
    /// sizes follow the job's distribution and whose total is scaled to
    /// `bytes × (emitted / files)` — per-file mix and therefore rates are
    /// preserved while the namespace stays tractable. With `cap >= files`
    /// the materialization is exact.
    pub fn materialize(&self, cap: u64) -> Vec<FileSpec> {
        let n = self.files.min(cap).max(1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let dist = LogNormal::new(self.file_mu, self.file_sigma).expect("valid lognormal");
        // Draw sizes, then rescale so the emitted total matches the scaled
        // share of the job's bytes exactly (up to rounding).
        let mut sizes: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng).max(1.0)).collect();
        let drawn: f64 = sizes.iter().sum();
        let target = self.bytes as f64 * (n as f64 / self.files as f64);
        let scale = if drawn > 0.0 { target / drawn } else { 0.0 };
        for s in &mut sizes {
            *s *= scale;
        }
        sizes
            .into_iter()
            .enumerate()
            .map(|(i, s)| FileSpec {
                rel_path: format!("job{:03}/f{:07}.dat", self.id, i),
                size: (s as u64).max(1),
                seed: self.seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                uid: 1000 + self.id % 10,
            })
            .collect()
    }
}

/// The generated campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenScienceTrace {
    pub spec: CampaignSpec,
    pub jobs: Vec<JobSpec>,
}

impl OpenScienceTrace {
    /// Generate a campaign deterministically from a seed.
    pub fn generate(spec: CampaignSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes_dist = LogNormal::new(spec.bytes_mu, spec.bytes_sigma).expect("valid lognormal");
        let size_dist =
            LogNormal::new(spec.avg_size_mu, spec.avg_size_sigma).expect("valid lognormal");
        let mut jobs = Vec::with_capacity(spec.jobs);
        for id in 0..spec.jobs as u32 {
            let bytes = (bytes_dist.sample(&mut rng) as u64).clamp(spec.bytes_min, spec.bytes_max);
            let avg =
                (size_dist.sample(&mut rng) as u64).clamp(spec.avg_size_min, spec.avg_size_max);
            let files = bytes.div_ceil(avg.max(1)).clamp(1, spec.max_files);
            let day = rng.gen_range(0..spec.days);
            let hour_offset = rng.gen_range(0..86_400);
            let avg_actual = bytes as f64 / files as f64;
            // ln-space mean so the within-job mean matches avg_actual.
            let file_mu = avg_actual.ln() - spec.intra_sigma * spec.intra_sigma / 2.0;
            jobs.push(JobSpec {
                id,
                day,
                submitted: SimInstant::from_secs(day as u64 * 86_400 + hour_offset),
                files,
                bytes,
                seed: seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                file_mu,
                file_sigma: spec.intra_sigma,
            });
        }
        jobs.sort_by_key(|j| j.submitted);
        OpenScienceTrace { spec, jobs }
    }

    /// Campaign duration.
    pub fn span(&self) -> SimDuration {
        SimDuration::from_secs(self.spec.days as u64 * 86_400)
    }

    // --- the Figure 8/9/11 series, straight from the generated spec ---

    #[cfg(test)]
    fn files_per_job(&self) -> Vec<u64> {
        self.jobs.iter().map(|j| j.files).collect()
    }

    #[cfg(test)]
    fn gb_per_job(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.bytes as f64 / 1e9).collect()
    }

    #[cfg(test)]
    fn avg_file_mb_per_job(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.avg_file_size() / 1e6).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn trace_is_deterministic() {
        let a = OpenScienceTrace::generate(CampaignSpec::roadrunner(), 42);
        let b = OpenScienceTrace::generate(CampaignSpec::roadrunner(), 42);
        assert_eq!(a.jobs.len(), b.jobs.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!((x.files, x.bytes, x.day), (y.files, y.bytes, y.day));
        }
        let c = OpenScienceTrace::generate(CampaignSpec::roadrunner(), 43);
        assert!(a.jobs.iter().zip(&c.jobs).any(|(x, y)| x.bytes != y.bytes));
    }

    #[test]
    fn marginals_match_the_paper_shape() {
        let t = OpenScienceTrace::generate(CampaignSpec::roadrunner(), 20090701);
        assert_eq!(t.jobs.len(), 62);
        // Figure 8: files per job — bounded as reported, heavy-tailed mean.
        let files: Vec<f64> = t.files_per_job().iter().map(|&f| f as f64).collect();
        assert!(files.iter().all(|&f| (1.0..=2_920_088.0).contains(&f)));
        let mf = mean(&files);
        assert!(
            (20_000.0..=800_000.0).contains(&mf),
            "mean files/job {mf} out of calibration band"
        );
        // Figure 9: GB per job.
        let gb = t.gb_per_job();
        assert!(gb.iter().all(|&g| (4.0..=32_593.0).contains(&g)));
        let mgb = mean(&gb);
        assert!(
            (500.0..=8_000.0).contains(&mgb),
            "mean GB/job {mgb} out of calibration band"
        );
        // Figure 11: average file size per job.
        let avg = t.avg_file_mb_per_job();
        assert!(
            avg.iter().all(|&m| (0.0039..=4_220.0).contains(&m)),
            "avg range {:?}",
            avg.iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
        );
        let mavg = mean(&avg);
        assert!(
            (100.0..=2_000.0).contains(&mavg),
            "mean avg-file-MB {mavg} out of calibration band"
        );
        // 18 operation days.
        assert!(t.jobs.iter().all(|j| j.day < 18));
    }

    #[test]
    fn materialize_scales_but_preserves_mix() {
        let t = OpenScienceTrace::generate(CampaignSpec::roadrunner(), 7);
        let job = t.jobs.iter().max_by_key(|j| j.files).unwrap();
        assert!(job.files > 1000, "want a many-file job for this test");
        let cap = 500u64;
        let files = job.materialize(cap);
        assert_eq!(files.len(), cap as usize);
        let total: u64 = files.iter().map(|f| f.size).sum();
        let expected = job.bytes as f64 * (cap as f64 / job.files as f64);
        let err = (total as f64 - expected).abs() / expected;
        assert!(err < 0.01, "scaled total off by {err}");
        // Exact materialization when cap >= files.
        let small = t.jobs.iter().min_by_key(|j| j.files).unwrap();
        if small.files <= 10_000 {
            let exact = small.materialize(u64::MAX);
            assert_eq!(exact.len() as u64, small.files);
            let total: u64 = exact.iter().map(|f| f.size).sum();
            let err = (total as f64 - small.bytes as f64).abs() / small.bytes as f64;
            assert!(err < 0.01, "exact total off by {err}");
        }
    }

    #[test]
    fn jobs_sorted_by_submission() {
        let t = OpenScienceTrace::generate(CampaignSpec::roadrunner(), 1);
        for w in t.jobs.windows(2) {
            assert!(w[0].submitted <= w[1].submitted);
        }
    }
}
