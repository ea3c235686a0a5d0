//! Integration tests for the stager against a real HSM rig: starvation
//! freedom under aging, pin semantics of the stager pool, and run-twice
//! determinism of a full Zipf recall campaign.

use copra_cluster::{FtaCluster, NodeId};
use copra_hsm::{DataPath, Hsm, PlacementPolicy, TsmServer};
use copra_obs::Registry;
use copra_pfs::{HsmState, PfsBuilder, PoolConfig};
use copra_simtime::{Clock, DataSize, SimDuration, SimInstant};
use copra_stager::{Priority, RecallRequest, Stager, StagerConfig};
use copra_tape::{TapeFleet, TapeTiming};
use copra_vfs::Content;
use copra_workloads::{StagerCampaign, StagerCampaignSpec};

fn rig(nodes: usize, drives: usize, tapes: usize) -> Hsm {
    let clock = Clock::new();
    let pfs = PfsBuilder::new("archive", clock)
        .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
        .pool(PoolConfig::external("tape"))
        .build();
    let cluster = FtaCluster::new(nodes);
    let server = TsmServer::roadrunner(TapeFleet::new(
        1,
        drives,
        tapes,
        TapeTiming::lto4(),
        Registry::new(),
    ));
    Hsm::new(pfs, server, cluster, PlacementPolicy::Single)
}

/// Create + migrate (punched) one file; returns the migration end time.
fn archive_file(hsm: &Hsm, path: &str, seed: u64, bytes: u64, cursor: SimInstant) -> SimInstant {
    let ino = hsm
        .pfs()
        .create_file(path, 0, Content::synthetic(seed, bytes))
        .unwrap();
    let (_objid, t) = hsm
        .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
        .unwrap();
    t
}

/// One batch-priority request from user 1, then a pile of urgent requests
/// from user 2, on a single serialized drive. Returns (batch completion
/// instant, last completion instant overall).
fn priority_mix(aging_step: SimDuration) -> (SimInstant, SimInstant) {
    let hsm = rig(2, 1, 32);
    hsm.pfs().mkdir_p("/d").unwrap();
    let mut t = SimInstant::EPOCH;
    for i in 0..17u64 {
        t = archive_file(&hsm, &format!("/d/f{i:02}"), i, 48 << 20, t);
    }
    let stager = Stager::new(
        hsm,
        StagerConfig {
            batch_size: 1,
            max_inflight_per_drive: 1,
            aging_step,
            ..StagerConfig::default()
        },
    );
    stager
        .submit(
            RecallRequest::new("/d/f16")
                .user(1)
                .group(1)
                .priority(Priority::Batch),
            t,
        )
        .unwrap();
    for i in 0..16u32 {
        stager
            .submit(
                RecallRequest::new(format!("/d/f{i:02}"))
                    .user(2)
                    .group(2)
                    .priority(Priority::Urgent),
                t,
            )
            .unwrap();
    }
    stager.drain(t).unwrap();
    let completions = stager.take_completions();
    assert_eq!(completions.len(), 17);
    let batch = completions
        .iter()
        .find(|c| c.user == 1)
        .expect("batch request completed")
        .completed;
    let last = completions.iter().map(|c| c.completed).max().unwrap();
    (batch, last)
}

#[test]
fn aging_prevents_batch_starvation() {
    // With aging effectively off, the batch request runs dead last behind
    // every urgent request...
    let (batch, last) = priority_mix(SimDuration::from_secs(100_000_000));
    assert_eq!(
        batch, last,
        "without aging the batch job starves to the end"
    );
    // ...with aging on, its effective priority climbs past the urgent
    // stream and it completes well before the queue empties.
    let (batch, last) = priority_mix(SimDuration::from_secs(5));
    assert!(
        batch < last,
        "aged batch request must overtake the urgent stream ({batch:?} vs {last:?})"
    );
}

#[test]
fn pinned_entries_survive_lru_pressure_and_unpin_then_evict() {
    let hsm = rig(2, 2, 16);
    hsm.pfs().mkdir_p("/d").unwrap();
    let mut t = SimInstant::EPOCH;
    t = archive_file(&hsm, "/d/pinned", 0, 32 << 20, t);
    for i in 1..=4u64 {
        t = archive_file(&hsm, &format!("/d/b{i}"), i, 48 << 20, t);
    }
    // Pool holds 128 MiB: the 32 MiB pinned entry plus at most two of the
    // 48 MiB fillers — recalling four of them forces LRU evictions.
    let stager = Stager::new(
        hsm.clone(),
        StagerConfig {
            cache_capacity: DataSize::mib(128),
            ..StagerConfig::default()
        },
    );
    stager
        .submit(RecallRequest::new("/d/pinned").user(1).pin(true), t)
        .unwrap();
    t = stager.drain(t).unwrap();
    assert!(stager.pool_contains("/d/pinned").unwrap());

    for i in 1..=4u64 {
        stager
            .submit(RecallRequest::new(format!("/d/b{i}")).user(2), t)
            .unwrap();
    }
    t = stager.drain(t).unwrap();
    let (_, _, _, evictions) = stager.cache_stats();
    assert!(evictions > 0, "filler recalls must create LRU pressure");
    assert!(
        stager.pool_contains("/d/pinned").unwrap(),
        "pinned entry must survive LRU pressure"
    );

    // Cache-hot recall of the pinned file: zero tape activity.
    stager.take_completions();
    let mounts_before = hsm.server().library().stats().totals.mounts;
    stager
        .submit(RecallRequest::new("/d/pinned").user(3), t)
        .unwrap();
    assert_eq!(
        mounts_before,
        hsm.server().library().stats().totals.mounts,
        "pinned hit must not mount tape"
    );
    assert!(stager.take_completions().pop().unwrap().cache_hit);

    // Eviction is refused while pinned; unpin, then it goes through and
    // the file returns to tape-only residency.
    assert!(!stager.evict("/d/pinned").unwrap());
    assert!(stager.set_pinned("/d/pinned", false).unwrap());
    assert!(stager.evict("/d/pinned").unwrap());
    assert!(!stager.pool_contains("/d/pinned").unwrap());
    let ino = hsm.pfs().resolve("/d/pinned").unwrap();
    assert_eq!(hsm.pfs().hsm_state(ino).unwrap(), HsmState::Migrated);
}

/// (seq_no, user, bytes, completed_ns, cache_hit) — a completion reduced
/// to a comparable tuple.
type CompletionKey = (u64, u32, u64, u64, bool);

/// Run a shrunken Zipf campaign end to end; returns the drain instant and
/// the full completion log reduced to comparable tuples.
fn run_campaign() -> (u64, Vec<CompletionKey>) {
    let hsm = rig(4, 4, 64);
    hsm.pfs().mkdir_p("/camp").unwrap();
    let spec = StagerCampaignSpec {
        files: 24,
        requests: 120,
        bursts: 3,
        ..StagerCampaignSpec::quick()
    };
    let campaign = StagerCampaign::generate(spec, 7);
    let mut t = SimInstant::EPOCH;
    for (i, &bytes) in campaign.file_sizes.iter().enumerate() {
        t = archive_file(
            &hsm,
            &StagerCampaign::file_path("/camp", i as u32),
            i as u64,
            bytes,
            t,
        );
    }
    let stager = Stager::new(hsm, StagerConfig::default());
    let mut last = t;
    for r in &campaign.requests {
        let at = t + r.at.saturating_since(SimInstant::EPOCH);
        stager
            .submit(
                RecallRequest::new(StagerCampaign::file_path("/camp", r.file))
                    .user(r.user)
                    .group(r.group)
                    .pin(r.pin),
                at,
            )
            .unwrap();
        last = at;
    }
    let end = stager.drain(last).unwrap();
    let log = stager
        .take_completions()
        .iter()
        .map(|c| {
            (
                c.seq_no,
                c.user,
                c.bytes,
                c.completed.as_nanos(),
                c.cache_hit,
            )
        })
        .collect();
    (end.as_nanos(), log)
}

#[test]
fn campaign_is_deterministic_run_twice() {
    let (end_a, log_a) = run_campaign();
    let (end_b, log_b) = run_campaign();
    assert_eq!(end_a, end_b, "drain instant must reproduce exactly");
    assert_eq!(log_a, log_b, "completion log must reproduce exactly");
    assert!(!log_a.is_empty());
    assert!(
        log_a.iter().any(|c| c.4),
        "the Zipf hot head should produce pool hits"
    );
}

/// A round over an empty queue skips the fleet and still reports when
/// the window next opens, and counts as a round.
#[test]
fn empty_queue_round_reports_the_next_completion() {
    let hsm = rig(2, 2, 32);
    let obs = hsm.server().obs().clone();
    hsm.pfs().mkdir_p("/d").unwrap();
    let mut t = SimInstant::EPOCH;
    for i in 0..3u64 {
        t = archive_file(&hsm, &format!("/d/f{i}"), i, (8 + i) << 20, t);
    }
    let stager = Stager::new(hsm, StagerConfig::default());
    for i in 0..3 {
        stager
            .submit(RecallRequest::new(format!("/d/f{i}")), t)
            .unwrap();
    }
    assert_eq!(stager.dispatch_round(t).unwrap().dispatched, 3);
    let mut ends: Vec<SimInstant> = stager
        .take_completions()
        .iter()
        .map(|c| c.completed)
        .collect();
    ends.sort();
    ends.dedup();
    let rounds = || obs.snapshot().counter("stager.rounds");
    assert_eq!(rounds(), 1);
    // Probe before, at and between the completions, then past the last.
    let mut probes = vec![t];
    probes.extend(ends.iter().copied());
    for (i, &now) in probes.iter().enumerate() {
        let report = stager.dispatch_round(now).unwrap();
        assert_eq!(report.dispatched + report.coalesced, 0);
        assert!(report.makespan.is_none());
        let want = ends.iter().copied().find(|&e| e > now);
        assert_eq!(report.next_completion, want, "probe {i}");
        assert_eq!(rounds(), 2 + i as u64);
    }
    assert_eq!(
        stager
            .dispatch_round(*ends.last().unwrap())
            .unwrap()
            .next_completion,
        None
    );
}
