//! # copra-faults — deterministic fault injection for the archive stack
//!
//! The paper's production story (§4.1, §4.5) is about *surviving* a
//! campaign: the WatchDog rank, chunk-level good/bad marking, restarts.
//! This crate supplies the other half of that credibility — a way to
//! *cause* the trouble those mechanisms exist for, deterministically, so
//! the recovery paths can be benchmarked instead of assumed.
//!
//! A [`FaultPlan`] is a seeded script of scheduled faults (drive
//! hard-failure, media errors at specific tape addresses, mount-robot
//! jams, mover/FTA crashes) plus an optional probabilistic transient-I/O
//! fault. Arming the plan yields a [`FaultPlane`] that the tape library,
//! HSM agents and the PFTool engine consult at operation boundaries.
//!
//! Determinism is the design constraint: fault decisions are pure
//! functions of the plan seed and the *identity* of the operation (drive
//! id and per-drive operation ordinal, tape address, rank and per-rank job
//! ordinal) — never of a shared RNG stream consumed in thread-arrival
//! order. Same seed, same workload → same fault sequence → same sim-time
//! outcome.
//!
//! Recovery support lives here too: [`RetryPolicy`] implements bounded
//! exponential backoff with deterministic jitter in *simulated* time, and
//! the plane carries the obs counters/histograms every fault and recovery
//! action reports through (`faults.injected`, `faults.retries`,
//! `faults.fences`, `faults.redispatches`, `faults.retry_delay_ns`,
//! `faults.recovery_ns`).

use copra_obs::{Counter, EventKind, Histogram, Registry};
use copra_simtime::{SimDuration, SimInstant};
use copra_trace::{splitmix64, SpanContext};
use parking_lot::Mutex;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A uniform draw in `[0, 1)` from hashed operation identity.
fn unit_draw(seed: u64, key: u64) -> f64 {
    // 53 mantissa bits, the standard u64 → f64 uniform construction.
    (splitmix64(seed ^ key) >> 11) as f64 / (1u64 << 53) as f64
}

/// Bounded exponential backoff with deterministic jitter, in simulated
/// time. `delay(key, attempt)` is a pure function, so retry schedules are
/// reproducible across runs and independent of thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// First-retry delay (doubles per attempt).
    pub base: SimDuration,
    /// Ceiling on any single delay.
    pub max_delay: SimDuration,
    /// Total attempts allowed (first try included).
    pub budget: u32,
    /// Jitter seed; derive from the plan seed so schedules follow it.
    pub seed: u64,
}

impl RetryPolicy {
    /// The armed-plane default: 500 ms base, 30 s cap, 6 attempts.
    pub fn standard(seed: u64) -> Self {
        RetryPolicy {
            base: SimDuration::from_millis(500),
            max_delay: SimDuration::from_secs(30),
            budget: 6,
            seed,
        }
    }

    /// Zero-delay retries — the fault-free baseline policy. Keeps the
    /// no-plan sim timings bit-identical to immediate-retry loops.
    pub fn immediate(budget: u32) -> Self {
        RetryPolicy {
            base: SimDuration::ZERO,
            max_delay: SimDuration::ZERO,
            budget,
            seed: 0,
        }
    }

    /// Delay before retry number `attempt` (0-based) of the operation
    /// identified by `key`: equal-jitter exponential backoff —
    /// `exp/2 + uniform[0, exp/2)` where `exp = min(base·2^attempt, max)`.
    pub fn delay(&self, key: u64, attempt: u32) -> SimDuration {
        if self.base.is_zero() {
            return SimDuration::ZERO;
        }
        let exp_ns = self
            .base
            .as_nanos()
            .saturating_mul(1u64 << attempt.min(32))
            .min(self.max_delay.as_nanos().max(self.base.as_nanos()));
        let half = exp_ns / 2;
        let jitter = if half == 0 {
            0
        } else {
            splitmix64(self.seed ^ key.rotate_left(17) ^ ((attempt as u64) << 48)) % half
        };
        SimDuration::from_nanos(half + jitter)
    }
}

/// One scripted fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScheduledFault {
    /// Drive `drive` hard-fails the first time it is touched at or after
    /// `at`: it is fenced (its volume freed) and every subsequent
    /// operation on it fails.
    DriveFail { drive: u32, at: SimInstant },
    /// Reads of record `seq` on tape `tape` fail with a media error for
    /// the next `hits` attempts, then the span reads clean again (a
    /// recoverable soft error; permanent damage is
    /// `TapeFleet::damage_record`).
    MediaError { tape: u32, seq: u32, hits: u32 },
    /// The mount robot jams once: the first robot movement at or after
    /// `at` takes an extra `delay`.
    RobotJam { at: SimInstant, delay: SimDuration },
    /// The mover/FTA daemon on PFTool rank `rank` dies while holding its
    /// `after_jobs`-th assignment (1-based) — the job is lost and must be
    /// detected and re-dispatched.
    MoverCrash { rank: u32, after_jobs: u32 },
    /// Simulated process death at a **named journal position**: execution
    /// aborts the `occurrence`-th time (1-based) the consult site `site`
    /// is reached, leaving genuinely torn multi-store state behind for
    /// recovery to repair. Sites are the `begin_intent → mutate → seal`
    /// steps of migrate / sync-delete / reclaim.
    CrashPoint { site: String, occurrence: u32 },
    /// Whole-library outage (power, robot, site): every drive and the
    /// robot of library `library` reject work from `at` until `until`.
    /// Unlike a drive fence, the outage is reversible — mounts and media
    /// survive and serve again once the window closes.
    LibraryOffline {
        library: u32,
        at: SimInstant,
        until: SimInstant,
    },
}

/// A seeded script of faults. Build with the fluent methods, then
/// [`FaultPlan::arm`] it against an obs registry to get the live
/// [`FaultPlane`] the stack consults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub seed: u64,
    pub faults: Vec<ScheduledFault>,
    /// Per-operation probability of a transient I/O error on any drive.
    pub transient_io_prob: f64,
    /// Latency spike charged to the drive when a transient error fires.
    pub transient_delay: SimDuration,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    pub fn fail_drive(mut self, drive: u32, at: SimInstant) -> Self {
        self.faults.push(ScheduledFault::DriveFail { drive, at });
        self
    }

    pub fn media_error(mut self, tape: u32, seq: u32, hits: u32) -> Self {
        self.faults
            .push(ScheduledFault::MediaError { tape, seq, hits });
        self
    }

    pub fn jam_robot(mut self, at: SimInstant, delay: SimDuration) -> Self {
        self.faults.push(ScheduledFault::RobotJam { at, delay });
        self
    }

    pub fn crash_mover(mut self, rank: u32, after_jobs: u32) -> Self {
        self.faults
            .push(ScheduledFault::MoverCrash { rank, after_jobs });
        self
    }

    pub fn transient_io(mut self, prob: f64, delay: SimDuration) -> Self {
        self.transient_io_prob = prob;
        self.transient_delay = delay;
        self
    }

    /// Take library `library` fully offline for the window `[at, until)`;
    /// at `until` the library returns with its mounts and media intact.
    pub fn offline_library_until(
        mut self,
        library: u32,
        at: SimInstant,
        until: SimInstant,
    ) -> Self {
        self.faults
            .push(ScheduledFault::LibraryOffline { library, at, until });
        self
    }

    /// Kill the process the `occurrence`-th time (1-based) execution
    /// reaches the crash-consult site `site`.
    pub fn crash_at(mut self, site: impl Into<String>, occurrence: u32) -> Self {
        self.faults.push(ScheduledFault::CrashPoint {
            site: site.into(),
            occurrence: occurrence.max(1),
        });
        self
    }

    /// Arm the plan: freeze the script into consumable state and bind the
    /// obs registry the injections and recoveries report through.
    pub fn arm(self, obs: Arc<Registry>) -> Arc<FaultPlane> {
        let mut drive_fail_at = FxHashMap::default();
        let mut media = FxHashMap::default();
        let mut jams = Vec::new();
        let mut movers = FxHashMap::default();
        let mut crashes = Vec::new();
        let mut library_offline: FxHashMap<u32, Vec<(SimInstant, SimInstant)>> =
            FxHashMap::default();
        for f in &self.faults {
            match f {
                ScheduledFault::DriveFail { drive, at } => {
                    let slot = drive_fail_at.entry(*drive).or_insert(*at);
                    *slot = (*slot).min(*at);
                }
                ScheduledFault::MediaError { tape, seq, hits } => {
                    *media.entry((*tape, *seq)).or_insert(0) += hits;
                }
                ScheduledFault::RobotJam { at, delay } => jams.push((*at, *delay)),
                ScheduledFault::MoverCrash { rank, after_jobs } => {
                    movers.insert(*rank, (*after_jobs).max(1));
                }
                ScheduledFault::CrashPoint { site, occurrence } => {
                    crashes.push((site.clone(), (*occurrence).max(1)));
                }
                ScheduledFault::LibraryOffline { library, at, until } => {
                    library_offline
                        .entry(*library)
                        .or_default()
                        .push((*at, *until));
                }
            }
        }
        jams.sort_unstable();
        for windows in library_offline.values_mut() {
            windows.sort_unstable();
        }
        let metrics = PlaneMetrics::new(&obs);
        Arc::new(FaultPlane {
            seed: self.seed,
            drive_fail_at,
            media: Mutex::new(media),
            jams: Mutex::new(jams),
            movers: Mutex::new(movers),
            crashes: Mutex::new(crashes),
            crash_counts: Mutex::new(FxHashMap::default()),
            crash_log: Mutex::new(Vec::new()),
            library_offline,
            transient_io_prob: self.transient_io_prob,
            transient_delay: self.transient_delay,
            io_seq: Mutex::new(FxHashMap::default()),
            obs,
            metrics,
        })
    }
}

/// Cached obs handles — registered only when a plan is armed, so a
/// fault-free run's snapshot reports zero for every `faults.*` counter.
struct PlaneMetrics {
    injected: Arc<Counter>,
    drive_failures: Arc<Counter>,
    media_errors: Arc<Counter>,
    robot_jams: Arc<Counter>,
    mover_crashes: Arc<Counter>,
    crash_points: Arc<Counter>,
    transient_ios: Arc<Counter>,
    library_outages: Arc<Counter>,
    fences: Arc<Counter>,
    retries: Arc<Counter>,
    redispatches: Arc<Counter>,
    retry_delay_ns: Arc<Histogram>,
    recovery_ns: Arc<Histogram>,
}

impl PlaneMetrics {
    fn new(obs: &Registry) -> Self {
        PlaneMetrics {
            injected: obs.counter("faults.injected"),
            drive_failures: obs.counter("faults.drive_failures"),
            media_errors: obs.counter("faults.media_errors"),
            robot_jams: obs.counter("faults.robot_jams"),
            mover_crashes: obs.counter("faults.mover_crashes"),
            crash_points: obs.counter("faults.crash_points"),
            transient_ios: obs.counter("faults.transient_ios"),
            library_outages: obs.counter("faults.library_outages"),
            fences: obs.counter("faults.fences"),
            retries: obs.counter("faults.retries"),
            redispatches: obs.counter("faults.redispatches"),
            retry_delay_ns: obs.histogram("faults.retry_delay_ns"),
            recovery_ns: obs.histogram("faults.recovery_ns"),
        }
    }
}

/// The armed fault plane. Decision methods (`take_*`) consume scripted
/// faults and count the injection; recorder methods (`note_*`) are called
/// by the recovery machinery in tape/hsm/pftool when it reacts.
pub struct FaultPlane {
    seed: u64,
    drive_fail_at: FxHashMap<u32, SimInstant>,
    /// (tape, seq) → remaining media-error hits.
    media: Mutex<FxHashMap<(u32, u32), u32>>,
    /// Unconsumed robot jams, sorted by instant.
    jams: Mutex<Vec<(SimInstant, SimDuration)>>,
    /// rank → assignments left before the mover dies.
    movers: Mutex<FxHashMap<u32, u32>>,
    /// Unconsumed (site, occurrence) crash points.
    crashes: Mutex<Vec<(String, u32)>>,
    /// Per-site consult ordinal (1-based), counted while the plane is
    /// armed — the occurrence numbering crash points are scripted against.
    crash_counts: Mutex<FxHashMap<String, u32>>,
    /// Every (site, occurrence) consulted, in order. An enumeration run
    /// arms an *empty* plan and reads this back to discover the full
    /// crash-point space of a scenario.
    crash_log: Mutex<Vec<(String, u32)>>,
    /// library → scheduled outage windows `(at, until)`, sorted by start.
    library_offline: FxHashMap<u32, Vec<(SimInstant, SimInstant)>>,
    transient_io_prob: f64,
    transient_delay: SimDuration,
    /// Per-drive operation ordinal feeding the transient-I/O draw.
    io_seq: Mutex<FxHashMap<u32, u64>>,
    obs: Arc<Registry>,
    metrics: PlaneMetrics,
}

impl FaultPlane {
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The retry policy recoveries under this plan should use.
    pub fn retry(&self) -> RetryPolicy {
        RetryPolicy::standard(self.seed)
    }

    /// Is `drive` scheduled to have hard-failed by `now`? Pure read — the
    /// tape library owns the fencing state and calls [`Self::note_fence`]
    /// exactly once when it acts on this.
    pub fn drive_fails_by(&self, drive: u32, now: SimInstant) -> bool {
        self.drive_fail_at.get(&drive).is_some_and(|at| now >= *at)
    }

    /// Is library `library` inside a scheduled outage window at `now`?
    /// Pure read — the tape library owns the fencing state and calls
    /// [`Self::note_library_outage`] once per observed outage.
    pub fn library_offline_at(&self, library: u32, now: SimInstant) -> bool {
        self.library_offline.get(&library).is_some_and(|windows| {
            windows
                .iter()
                .any(|&(at, until)| (at..until).contains(&now))
        })
    }

    /// Record that a library first observed itself inside an outage
    /// window (counts the injection once per outage, not per consult).
    pub fn note_library_outage(&self, library: u32, now: SimInstant) {
        self.metrics.injected.inc();
        self.metrics.library_outages.inc();
        self.obs.event(
            now,
            EventKind::FaultInjected {
                kind: "library-offline".into(),
                detail: format!("lib{library}"),
            },
        );
    }

    /// Record that the library fenced `drive` (counts the injection).
    pub fn note_fence(&self, drive: u32, now: SimInstant) {
        self.metrics.injected.inc();
        self.metrics.drive_failures.inc();
        self.metrics.fences.inc();
        self.obs.event(
            now,
            EventKind::FaultInjected {
                kind: "drive-failure".into(),
                detail: format!("drive{drive}"),
            },
        );
        self.obs.event(now, EventKind::DriveFenced { drive });
    }

    /// Consume one media-error hit for the record at `(tape, seq)`.
    /// Returns true when the read should fail with a media error.
    pub fn take_media_error(&self, tape: u32, seq: u32, now: SimInstant) -> bool {
        let mut media = self.media.lock();
        let Some(hits) = media.get_mut(&(tape, seq)) else {
            return false;
        };
        *hits -= 1;
        if *hits == 0 {
            media.remove(&(tape, seq));
        }
        drop(media);
        self.metrics.injected.inc();
        self.metrics.media_errors.inc();
        self.obs.event(
            now,
            EventKind::FaultInjected {
                kind: "media-error".into(),
                detail: format!("tape{tape} seq{seq}"),
            },
        );
        true
    }

    /// Consume the first scheduled robot jam due at or before `now`.
    pub fn take_robot_jam(&self, now: SimInstant) -> Option<SimDuration> {
        let mut jams = self.jams.lock();
        let idx = jams.iter().position(|(at, _)| *at <= now)?;
        let (_, delay) = jams.remove(idx);
        drop(jams);
        self.metrics.injected.inc();
        self.metrics.robot_jams.inc();
        self.obs.event(
            now,
            EventKind::FaultInjected {
                kind: "robot-jam".into(),
                detail: format!("{delay}"),
            },
        );
        Some(delay)
    }

    /// Draw the transient-I/O fault for the next operation on `drive`.
    /// Deterministic: the draw hashes (seed, drive, per-drive ordinal).
    pub fn take_transient_io(&self, drive: u32, now: SimInstant) -> Option<SimDuration> {
        if self.transient_io_prob <= 0.0 {
            return None;
        }
        let seq = {
            let mut m = self.io_seq.lock();
            let c = m.entry(drive).or_insert(0);
            *c += 1;
            *c
        };
        let key = ((drive as u64) << 40) ^ seq ^ 0x71A5_1E57;
        if unit_draw(self.seed, key) >= self.transient_io_prob {
            return None;
        }
        self.metrics.injected.inc();
        self.metrics.transient_ios.inc();
        self.obs.event(
            now,
            EventKind::FaultInjected {
                kind: "transient-io".into(),
                detail: format!("drive{drive} op{seq}"),
            },
        );
        Some(self.transient_delay)
    }

    /// Count down the mover-crash fuse for `rank`: returns true exactly
    /// once, on the assignment the mover dies holding. `ctx` is the span
    /// the crash interrupts — the FaultInjected / WorkerDied events carry
    /// it, so a trace viewer can jump from the fault straight to the
    /// assignment it killed.
    pub fn take_mover_crash_in(
        &self,
        rank: u32,
        now: SimInstant,
        ctx: Option<SpanContext>,
    ) -> bool {
        let mut movers = self.movers.lock();
        let Some(left) = movers.get_mut(&rank) else {
            return false;
        };
        *left -= 1;
        if *left > 0 {
            return false;
        }
        movers.remove(&rank);
        drop(movers);
        self.metrics.injected.inc();
        self.metrics.mover_crashes.inc();
        self.obs.event_with_span(
            now,
            EventKind::FaultInjected {
                kind: "mover-crash".into(),
                detail: format!("rank{rank}"),
            },
            ctx,
        );
        self.obs
            .event_with_span(now, EventKind::WorkerDied { rank }, ctx);
        true
    }

    /// Consult the crash site `site`: counts this visit (1-based per-site
    /// ordinal), logs it for enumeration, and returns true exactly when a
    /// scripted [`ScheduledFault::CrashPoint`] matches — the caller must
    /// then abort as if the process died, leaving its partial mutations
    /// in place. Purely ordinal, so same seed + workload → same crash.
    pub fn take_crash_point(&self, site: &str, now: SimInstant) -> bool {
        let occurrence = {
            let mut counts = self.crash_counts.lock();
            let c = counts.entry(site.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        self.crash_log.lock().push((site.to_string(), occurrence));
        let fired = {
            let mut crashes = self.crashes.lock();
            match crashes
                .iter()
                .position(|(s, o)| s == site && *o == occurrence)
            {
                Some(idx) => {
                    crashes.remove(idx);
                    true
                }
                None => false,
            }
        };
        if !fired {
            return false;
        }
        self.metrics.injected.inc();
        self.metrics.crash_points.inc();
        self.obs.event(
            now,
            EventKind::FaultInjected {
                kind: "crash-point".into(),
                detail: format!("{site}#{occurrence}"),
            },
        );
        true
    }

    /// Every crash site consulted since arming, as (site, occurrence)
    /// pairs in consult order. Driving a scenario under an empty armed
    /// plan and reading this back enumerates its full crash-point space.
    pub fn consulted_crash_points(&self) -> Vec<(String, u32)> {
        self.crash_log.lock().clone()
    }

    /// Record one backoff retry and its delay.
    pub fn note_retry(&self, delay: SimDuration) {
        self.metrics.retries.inc();
        self.metrics.retry_delay_ns.record(delay.as_nanos());
    }

    /// Record an operation that eventually succeeded after ≥1 failure;
    /// `took` is first-attempt start → eventual success, in sim time.
    pub fn note_recovery(&self, took: SimDuration) {
        self.metrics.recovery_ns.record(took.as_nanos());
    }

    /// Record the manager re-dispatching `count` units of in-flight work
    /// (`what` is a short label: "worker-death", "tape-requeue", ...)
    /// under the span `ctx` (normally the PFTool run root).
    pub fn note_redispatch_in(
        &self,
        what: &str,
        count: u64,
        now: SimInstant,
        ctx: Option<SpanContext>,
    ) {
        self.metrics.redispatches.add(count);
        self.obs.event_with_span(
            now,
            EventKind::Redispatch {
                what: what.to_string(),
                count,
            },
            ctx,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(plan: FaultPlan) -> Arc<FaultPlane> {
        plan.arm(Registry::new())
    }

    #[test]
    fn drive_failure_is_a_threshold_in_time() {
        let p = plane(FaultPlan::new(1).fail_drive(2, SimInstant::from_secs(10)));
        assert!(!p.drive_fails_by(2, SimInstant::from_secs(9)));
        assert!(p.drive_fails_by(2, SimInstant::from_secs(10)));
        assert!(p.drive_fails_by(2, SimInstant::from_secs(999)));
        assert!(!p.drive_fails_by(0, SimInstant::from_secs(999)));
    }

    #[test]
    fn media_error_hits_are_consumed() {
        let p = plane(FaultPlan::new(1).media_error(3, 7, 2));
        let now = SimInstant::EPOCH;
        assert!(p.take_media_error(3, 7, now));
        assert!(p.take_media_error(3, 7, now));
        assert!(!p.take_media_error(3, 7, now), "hits exhausted");
        assert!(!p.take_media_error(3, 8, now), "other records clean");
        assert_eq!(p.obs().snapshot().counter("faults.media_errors"), 2);
    }

    #[test]
    fn crash_point_fires_at_scripted_occurrence_only() {
        let p = plane(FaultPlan::new(1).crash_at("migrate.after_store", 2));
        let now = SimInstant::EPOCH;
        assert!(!p.take_crash_point("migrate.after_store", now), "occ 1");
        assert!(!p.take_crash_point("syncdel.begin", now), "other site");
        assert!(p.take_crash_point("migrate.after_store", now), "occ 2");
        assert!(
            !p.take_crash_point("migrate.after_store", now),
            "consumed: recovery re-running the op must not re-crash"
        );
        assert_eq!(p.obs().snapshot().counter("faults.crash_points"), 1);
    }

    #[test]
    fn empty_plan_logs_consults_without_crashing() {
        let p = plane(FaultPlan::new(7));
        let now = SimInstant::EPOCH;
        assert!(!p.take_crash_point("a", now));
        assert!(!p.take_crash_point("b", now));
        assert!(!p.take_crash_point("a", now));
        assert_eq!(
            p.consulted_crash_points(),
            vec![
                ("a".to_string(), 1),
                ("b".to_string(), 1),
                ("a".to_string(), 2)
            ]
        );
        assert_eq!(p.obs().snapshot().counter("faults.crash_points"), 0);
    }

    #[test]
    fn library_outage_windows_are_pure_time_queries() {
        let p = plane(FaultPlan::new(1).offline_library_until(
            1,
            SimInstant::from_secs(10),
            SimInstant::from_secs(20),
        ));
        assert!(!p.library_offline_at(1, SimInstant::from_secs(9)));
        assert!(p.library_offline_at(1, SimInstant::from_secs(10)));
        assert!(p.library_offline_at(1, SimInstant::from_secs(19)));
        assert!(
            !p.library_offline_at(1, SimInstant::from_secs(20)),
            "window closed: the library is back"
        );
        assert!(!p.library_offline_at(0, SimInstant::from_secs(999)));
        p.note_library_outage(1, SimInstant::from_secs(10));
        assert_eq!(p.obs().snapshot().counter("faults.library_outages"), 1);
    }

    #[test]
    fn robot_jam_fires_once_at_its_instant() {
        let p = plane(
            FaultPlan::new(1).jam_robot(SimInstant::from_secs(5), SimDuration::from_secs(60)),
        );
        assert_eq!(p.take_robot_jam(SimInstant::from_secs(4)), None);
        assert_eq!(
            p.take_robot_jam(SimInstant::from_secs(6)),
            Some(SimDuration::from_secs(60))
        );
        assert_eq!(p.take_robot_jam(SimInstant::from_secs(7)), None);
    }

    #[test]
    fn mover_crash_counts_assignments() {
        let p = plane(FaultPlan::new(1).crash_mover(4, 3));
        let take = |rank| p.take_mover_crash_in(rank, SimInstant::EPOCH, None);
        assert!(!take(4));
        assert!(!take(4));
        assert!(take(4), "dies on the 3rd assignment");
        assert!(!take(4), "a respawned mover lives on");
        assert!(!take(5), "other ranks unaffected");
    }

    #[test]
    fn transient_io_is_deterministic_and_roughly_calibrated() {
        let draw = |seed: u64| -> Vec<u64> {
            let p = plane(FaultPlan::new(seed).transient_io(0.25, SimDuration::from_secs(1)));
            (0..400)
                .filter(|_| p.take_transient_io(0, SimInstant::EPOCH).is_some())
                .map(|i: u64| i)
                .collect()
        };
        let a = draw(42);
        let b = draw(42);
        assert_eq!(a, b, "same seed → same fault sequence");
        let c = plane(FaultPlan::new(43).transient_io(0.25, SimDuration::from_secs(1)));
        let hits_c = (0..400)
            .filter(|_| c.take_transient_io(0, SimInstant::EPOCH).is_some())
            .count();
        // ~100 expected at p=0.25; allow a wide deterministic band.
        assert!((40..=180).contains(&a.len()), "hit count {}", a.len());
        assert!((40..=180).contains(&hits_c), "hit count {hits_c}");
    }

    #[test]
    fn backoff_grows_is_capped_and_jitters_deterministically() {
        let p = RetryPolicy::standard(7);
        let d0 = p.delay(99, 0);
        let d1 = p.delay(99, 1);
        let d5 = p.delay(99, 5);
        // Equal-jitter: delay(n) ∈ [exp/2, exp).
        assert!(d0 >= SimDuration::from_millis(250) && d0 < SimDuration::from_millis(500));
        assert!(d1 >= SimDuration::from_millis(500) && d1 < SimDuration::from_secs(1));
        assert!(d5 >= SimDuration::from_secs(8) && d5 < SimDuration::from_secs(16));
        // Capped at max_delay even for silly attempt numbers.
        assert!(p.delay(99, 30) < SimDuration::from_secs(30));
        // Deterministic, but key- and attempt-sensitive.
        assert_eq!(p.delay(99, 3), p.delay(99, 3));
        assert_ne!(p.delay(99, 3), p.delay(98, 3));
        // The baseline policy never sleeps.
        assert_eq!(RetryPolicy::immediate(8).delay(1, 4), SimDuration::ZERO);
    }

    #[test]
    fn arming_registers_zeroed_counters_only_on_demand() {
        let obs = Registry::new();
        // Before arming: a snapshot reports zero for faults.* names.
        assert_eq!(obs.snapshot().counter("faults.injected"), 0);
        let p = FaultPlan::new(9).media_error(0, 0, 1).arm(obs.clone());
        assert!(p.take_media_error(0, 0, SimInstant::EPOCH));
        p.note_retry(SimDuration::from_millis(250));
        p.note_redispatch_in("worker-death", 2, SimInstant::EPOCH, None);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("faults.injected"), 1);
        assert_eq!(snap.counter("faults.retries"), 1);
        assert_eq!(snap.counter("faults.redispatches"), 2);
    }
}
