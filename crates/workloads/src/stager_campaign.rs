//! A CASTOR-scale recall campaign: ~10⁶ users, Zipf access, bursty
//! arrivals.
//!
//! The paper's campaign was one team archiving; the stager experiment
//! needs the opposite shape — a large user community recalling a shared
//! file set. Access is doubly Zipf: *who* asks follows a Zipf over a
//! million-user universe (a few heavy hitters dominate), and *what* they
//! ask for follows a Zipf over the archived file set (a hot head that a
//! stager pool should absorb). Arrivals come in bursts separated by idle
//! gaps, which is what makes admission control and aging observable.
//!
//! The generator is pure and deterministic: same spec + seed ⇒ the same
//! request stream, byte for byte. The Zipf sampler is an exact inverse-
//! CDF over a precomputed harmonic table (no approximation drift), so
//! determinism holds across platforms too.

use copra_simtime::{SimDuration, SimInstant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Exact Zipf(n, s) sampler: P(k) ∝ 1/k^s for ranks k = 1..=n, via a
/// precomputed cumulative table and binary search. O(n) memory, O(log n)
/// per sample — n = 10⁶ is a few megabytes, built once per campaign.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty universe");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Sample a 0-based rank (0 is the most popular).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Spec for the stager recall campaign. Defaults are the full-scale run;
/// [`StagerCampaignSpec::quick`] shrinks it for smoke tests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StagerCampaignSpec {
    /// User-universe size (requesters are Zipf ranks into this).
    pub users: u64,
    /// Accounting groups; a user's group is a stable hash of their id.
    pub groups: u32,
    /// Zipf exponent over users — who submits.
    pub user_s: f64,
    /// Zipf exponent over files — what gets recalled.
    pub file_s: f64,
    /// Archived file-set size.
    pub files: usize,
    /// Mean file size in bytes (log-normal, ln-space sigma below).
    pub file_size_mean: u64,
    pub file_size_sigma: f64,
    /// Total recall requests across the campaign.
    pub requests: usize,
    /// Arrival bursts; requests are spread evenly across them.
    pub bursts: usize,
    /// Spacing between arrivals inside a burst (plus jitter below it).
    pub burst_spacing: SimDuration,
    /// Idle gap between bursts.
    pub burst_gap: SimDuration,
    /// Fraction of requests that pin their staged copy.
    pub pin_percent: u32,
}

impl StagerCampaignSpec {
    /// The full-scale campaign: a million-user universe hammering a
    /// 400-file hot set in a dozen bursts.
    pub fn castor_scale() -> Self {
        StagerCampaignSpec {
            users: 1_000_000,
            groups: 16,
            user_s: 1.2,
            file_s: 1.1,
            files: 400,
            file_size_mean: 256 << 20,
            file_size_sigma: 0.7,
            requests: 3_000,
            bursts: 12,
            burst_spacing: SimDuration::from_millis(200),
            burst_gap: SimDuration::from_secs(120),
            pin_percent: 2,
        }
    }

    /// A shrunken campaign for `--quick` smoke runs; same universe size
    /// (the Zipf table is cheap), far fewer requests and files.
    pub fn quick() -> Self {
        StagerCampaignSpec {
            files: 96,
            requests: 400,
            bursts: 4,
            ..StagerCampaignSpec::castor_scale()
        }
    }
}

impl Default for StagerCampaignSpec {
    fn default() -> Self {
        StagerCampaignSpec::castor_scale()
    }
}

/// One recall arrival, crate-neutral: the bench maps `priority_level` and
/// the ids onto the stager's typed `RecallRequest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagerRequestSpec {
    pub at: SimInstant,
    pub user: u32,
    pub group: u32,
    /// Index into [`StagerCampaign::file_sizes`].
    pub file: u32,
    /// 0 = batch, 1 = normal, 2 = high, 3 = urgent.
    pub priority_level: u8,
    pub pin: bool,
}

/// The generated campaign: the archived file set plus the arrival stream
/// (sorted by arrival instant).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StagerCampaign {
    pub spec: StagerCampaignSpec,
    pub file_sizes: Vec<u64>,
    pub requests: Vec<StagerRequestSpec>,
}

/// Stable user → group assignment (splitmix-style avalanche, so group
/// sizes stay balanced even though hot users cluster at low ranks).
fn group_of(user: u64, groups: u32) -> u32 {
    let mut x = user.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    (x % groups.max(1) as u64) as u32
}

impl StagerCampaign {
    pub fn generate(spec: StagerCampaignSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // File sizes: log-normal around the configured mean.
        let mu = (spec.file_size_mean as f64).ln() - spec.file_size_sigma.powi(2) / 2.0;
        let sizes = rand_distr::LogNormal::new(mu, spec.file_size_sigma)
            .expect("valid log-normal parameters");
        let file_sizes: Vec<u64> = (0..spec.files)
            .map(|_| {
                use rand_distr::Distribution;
                (sizes.sample(&mut rng) as u64).clamp(1 << 20, 8 << 30)
            })
            .collect();

        let user_zipf = Zipf::new(spec.users.min(u32::MAX as u64) as usize, spec.user_s);
        let file_zipf = Zipf::new(spec.files, spec.file_s);

        let per_burst = spec.requests.div_ceil(spec.bursts.max(1));
        let mut requests = Vec::with_capacity(spec.requests);
        let mut t = SimInstant::EPOCH;
        for burst in 0..spec.bursts.max(1) {
            if burst > 0 {
                t += spec.burst_gap;
            }
            for _ in 0..per_burst {
                if requests.len() >= spec.requests {
                    break;
                }
                let jitter = rng.gen_range(0..spec.burst_spacing.as_nanos().max(1));
                t += SimDuration::from_nanos(jitter);
                let user = user_zipf.sample(&mut rng) as u32;
                let file = file_zipf.sample(&mut rng) as u32;
                let p: u32 = rng.gen_range(0..100);
                let priority_level = match p {
                    0..=1 => 3,
                    2..=9 => 2,
                    10..=79 => 1,
                    _ => 0,
                };
                let pin = rng.gen_range(0..100) < spec.pin_percent;
                requests.push(StagerRequestSpec {
                    at: t,
                    user,
                    group: group_of(user as u64, spec.groups),
                    file,
                    priority_level,
                    pin,
                });
            }
        }
        StagerCampaign {
            spec,
            file_sizes,
            requests,
        }
    }

    /// Campaign file paths, under `root`.
    pub fn file_path(root: &str, file: u32) -> String {
        format!("{root}/f{file:06}.dat")
    }

    pub fn total_bytes(&self) -> u64 {
        self.file_sizes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = StagerCampaign::generate(StagerCampaignSpec::quick(), 42);
        let b = StagerCampaign::generate(StagerCampaignSpec::quick(), 42);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.file_sizes, b.file_sizes);
    }

    #[test]
    fn zipf_is_head_heavy() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0usize;
        const N: usize = 4000;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top-1% of ranks should draw far more than 1% of samples.
        assert!(head > N / 10, "head draws {head}/{N}");
    }

    #[test]
    fn arrivals_are_sorted_and_bursty() {
        let c = StagerCampaign::generate(StagerCampaignSpec::quick(), 1);
        assert_eq!(c.requests.len(), c.spec.requests);
        assert!(c.requests.windows(2).all(|w| w[0].at <= w[1].at));
        // There is at least one inter-burst gap much larger than the
        // intra-burst spacing.
        let max_gap = c
            .requests
            .windows(2)
            .map(|w| w[1].at.as_nanos() - w[0].at.as_nanos())
            .max()
            .unwrap();
        assert!(max_gap >= c.spec.burst_gap.as_nanos());
    }

    #[test]
    fn users_span_a_wide_universe() {
        let c = StagerCampaign::generate(StagerCampaignSpec::castor_scale(), 3);
        let mut counts = std::collections::HashMap::new();
        for r in &c.requests {
            *counts.entry(r.user).or_insert(0usize) += 1;
        }
        let distinct = counts.len();
        assert!(distinct > 100, "only {distinct} distinct users");
        // And the heaviest user holds a meaningful share (Zipf head).
        let top = counts.values().copied().max().unwrap();
        assert!(top * 20 > c.requests.len(), "top user only {top} requests");
    }

    #[test]
    fn groups_are_balanced_ids() {
        let c = StagerCampaign::generate(StagerCampaignSpec::quick(), 9);
        assert!(c.requests.iter().all(|r| r.group < c.spec.groups));
        assert!(c.requests.iter().any(|r| r.group != c.requests[0].group));
    }
}
