//! T-STAGER: CASTOR-style fair-share stager vs unscheduled FIFO recall.
//!
//! A million-user Zipf community recalls a migrated file set in bursts
//! (`copra_workloads::stager_campaign`). Three configurations run the
//! identical arrival stream:
//!
//! - `fifo`          — arrival-order dispatch, no stager pool (every
//!   repeat recall goes back to tape): the unscheduled baseline.
//! - `fair+tape`     — fair-share scheduling with aging, admission
//!   control, the pinned-LRU stager pool, dispatch batches tape-ordered
//!   *within* each fairness round (§4.2.5 composed with fairness).
//! - `fair-unord`    — fairness without the tape-order sort, to price the
//!   composition.
//!
//! Reported per row: p50/p99 recall latency, max/min per-user goodput
//! and Jain's fairness index over it, cache hits, tape mounts, sheds,
//! and the final simulated nanosecond (the determinism witness — the
//! `fair+tape` row is re-run and must reproduce bit-identically).
//! The binary asserts the acceptance criteria: fair-share improves
//! goodput fairness over FIFO — a higher Jain index and a higher per-user
//! goodput floor — while p99 stays within 1.5× of FIFO, and a cache-hot
//! recall performs zero tape mounts.

use copra_bench::{print_table, write_json, BenchCli, EXPERIMENT_SEED};
use copra_core::{ArchiveSystem, SystemConfig};
use copra_simtime::SimInstant;
use copra_stager::{Priority, RecallRequest, SchedulerMode, StagerConfig};
use copra_vfs::Content;
use copra_workloads::{StagerCampaign, StagerCampaignSpec};
use rustc_hash::FxHashMap;
use serde::Serialize;

const CAMP_ROOT: &str = "/camp";

#[derive(Debug, Clone, Serialize, PartialEq)]
struct Row {
    scheduler: String,
    requests: usize,
    users: usize,
    cache_hits: u64,
    tape_mounts: u64,
    shed: u64,
    p50_ms: u64,
    p99_ms: u64,
    min_user_mbps: f64,
    max_user_mbps: f64,
    /// Jain's fairness index over per-user goodput (1.0 = perfectly fair).
    jain: f64,
    makespan_s: f64,
    /// Final simulated nanosecond — the run-twice determinism witness.
    sim_end_ns: u64,
}

#[derive(Debug, Serialize)]
struct Bench {
    quick: bool,
    files: usize,
    user_universe: u64,
    rows: Vec<Row>,
}

fn print_rows(rows: &[Row]) {
    print_table(
        "T-STAGER: fair-share stager vs unscheduled FIFO (Zipf burst campaign)",
        &[
            "scheduler",
            "reqs",
            "users",
            "hits",
            "mounts",
            "shed",
            "p50 ms",
            "p99 ms",
            "min MB/s",
            "max MB/s",
            "jain",
            "makespan s",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.scheduler.clone(),
                    r.requests.to_string(),
                    r.users.to_string(),
                    r.cache_hits.to_string(),
                    r.tape_mounts.to_string(),
                    r.shed.to_string(),
                    r.p50_ms.to_string(),
                    r.p99_ms.to_string(),
                    format!("{:.1}", r.min_user_mbps),
                    format!("{:.1}", r.max_user_mbps),
                    format!("{:.3}", r.jain),
                    format!("{:.0}", r.makespan_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn priority_of(level: u8) -> Priority {
    match level {
        0 => Priority::Batch,
        1 => Priority::Normal,
        2 => Priority::High,
        _ => Priority::Urgent,
    }
}

/// Build a fresh system, archive the campaign file set, run the arrival
/// stream through the configured stager, and fold the completions.
fn run(
    cli: &BenchCli,
    label: &str,
    campaign: &StagerCampaign,
    stager_cfg: StagerConfig,
) -> (Row, ArchiveSystem) {
    let mut config = SystemConfig::test_small().with_stager(stager_cfg);
    config.drives = 8;
    config.tapes = 128;
    let sys = cli.system(config);
    let stager = sys.stager().expect("stager configured").clone();

    // Archive the file set: create + migrate (hole punched — recalls hit
    // tape), in file order so on-tape layout is identical across runs.
    sys.archive()
        .mkdir_p(CAMP_ROOT)
        .expect("mkdir campaign root");
    let mut cursor = SimInstant::EPOCH;
    for (i, &bytes) in campaign.file_sizes.iter().enumerate() {
        let path = StagerCampaign::file_path(CAMP_ROOT, i as u32);
        sys.archive()
            .create_file(&path, 0, Content::synthetic(i as u64, bytes))
            .expect("create campaign file");
        let end = sys
            .migrate(&copra_stager::MigrateRequest::new(path).punch(true), cursor)
            .expect("migrate campaign file");
        cursor = end;
    }
    let t0 = cursor;

    // Drive the arrival stream: before each submit, let the stager run
    // dispatch rounds at every completion boundary up to the arrival.
    let mut shed = 0u64;
    for spec in &campaign.requests {
        let at = t0 + spec.at.saturating_since(SimInstant::EPOCH);
        let mut now = at;
        loop {
            let report = stager.dispatch_round(now).expect("dispatch round");
            if report.dispatched + report.coalesced > 0 {
                continue;
            }
            match report.next_completion {
                Some(nc) if nc <= at && stager.queue_depth() > 0 => now = nc,
                _ => break,
            }
        }
        let req = RecallRequest::new(StagerCampaign::file_path(CAMP_ROOT, spec.file))
            .user(spec.user)
            .group(spec.group)
            .priority(priority_of(spec.priority_level))
            .pin(spec.pin);
        if stager.submit(req, at).expect("submit").is_shed() {
            shed += 1;
        }
    }
    let last = t0
        + campaign
            .requests
            .last()
            .map(|r| r.at.saturating_since(SimInstant::EPOCH))
            .unwrap_or_default();
    let makespan = stager.drain(last).expect("drain");

    // Fold completions into latency percentiles and per-user goodput.
    let completions = stager.take_completions();
    let mut lat_ms: Vec<u64> = completions
        .iter()
        .map(|c| c.completed.saturating_since(c.submitted).as_nanos() / 1_000_000)
        .collect();
    lat_ms.sort_unstable();
    let mut per_user: FxHashMap<u32, (u64, f64)> = FxHashMap::default();
    for c in &completions {
        let e = per_user.entry(c.user).or_default();
        e.0 += c.bytes;
        e.1 += c.completed.saturating_since(c.submitted).as_secs_f64();
    }
    // Goodput a user experienced: bytes over total turnaround.
    let goodputs: Vec<f64> = per_user
        .values()
        .map(|&(bytes, secs)| bytes as f64 / 1e6 / secs.max(1e-9))
        .collect();
    let jain = goodputs.iter().sum::<f64>().powi(2)
        / (goodputs.len() as f64 * goodputs.iter().map(|g| g * g).sum::<f64>()).max(1e-12);

    let row = Row {
        scheduler: label.to_string(),
        requests: campaign.requests.len(),
        users: per_user.len(),
        cache_hits: stager.cache_stats().0,
        tape_mounts: sys.hsm().server().library().stats().totals.mounts,
        shed,
        p50_ms: percentile(&lat_ms, 0.50),
        p99_ms: percentile(&lat_ms, 0.99),
        min_user_mbps: goodputs.iter().cloned().fold(f64::INFINITY, f64::min),
        max_user_mbps: goodputs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        jain,
        makespan_s: makespan.saturating_since(t0).as_secs_f64(),
        sim_end_ns: makespan.as_nanos(),
    };
    (row, sys)
}

/// Prove the cache-hot path never mounts: recall the hottest file once
/// more on a drained fair-share system and watch the mount counter.
fn assert_hot_recall_mounts_nothing(campaign: &StagerCampaign) {
    let sys = ArchiveSystem::new(SystemConfig::test_small().with_stager(StagerConfig::default()));
    let stager = sys.stager().expect("stager").clone();
    let path = StagerCampaign::file_path(CAMP_ROOT, 0);
    sys.archive()
        .mkdir_p(CAMP_ROOT)
        .expect("mkdir campaign root");
    sys.archive()
        .create_file(&path, 0, Content::synthetic(0, campaign.file_sizes[0]))
        .expect("create");
    let end = sys
        .migrate(
            &copra_stager::MigrateRequest::new(&path).punch(true),
            SimInstant::EPOCH,
        )
        .expect("migrate");
    stager
        .submit(RecallRequest::new(&path).user(1), end)
        .expect("cold submit");
    let end = stager.drain(end).expect("drain");
    let mounts_before = sys.hsm().server().library().stats().totals.mounts;
    let verdict = stager
        .submit(RecallRequest::new(&path).user(2), end)
        .expect("hot submit");
    let mounts_after = sys.hsm().server().library().stats().totals.mounts;
    assert_eq!(verdict, copra_stager::Admission::Accepted);
    assert_eq!(
        mounts_before, mounts_after,
        "cache-hot recall must not touch tape"
    );
    let last = stager.take_completions().pop().expect("completion logged");
    assert!(last.cache_hit, "hot recall served from the stager pool");
}

fn main() {
    let cli = BenchCli::parse();
    let spec = if cli.quick {
        StagerCampaignSpec::quick()
    } else {
        StagerCampaignSpec::castor_scale()
    };
    let campaign = StagerCampaign::generate(spec.clone(), EXPERIMENT_SEED);

    let fifo_cfg = StagerConfig::default()
        .mode(SchedulerMode::Fifo)
        .cache_capacity(copra_simtime::DataSize::ZERO);
    let fair_cfg = StagerConfig::default();
    let unord_cfg = StagerConfig::default().tape_ordered(false);

    let (fifo, _) = run(&cli, "fifo", &campaign, fifo_cfg);
    let (fair, _) = run(&cli, "fair+tape", &campaign, fair_cfg.clone());
    let (unord, _) = run(&cli, "fair-unord", &campaign, unord_cfg);

    // Run-twice determinism: the whole campaign reproduces to the nanosecond.
    let (fair_again, rig) = run(&cli, "fair+tape", &campaign, fair_cfg);
    assert_eq!(fair, fair_again, "stager campaign must be deterministic");

    assert_hot_recall_mounts_nothing(&campaign);

    print_rows(&[fifo.clone(), fair.clone(), unord.clone()]);

    // Acceptance: fairness up, p99 within 1.5× of FIFO, cache actually hot.
    assert!(
        fair.jain >= fifo.jain,
        "fair-share must not be less fair than FIFO (jain {} vs {})",
        fair.jain,
        fifo.jain
    );
    assert!(
        fair.min_user_mbps >= fifo.min_user_mbps,
        "fair-share must lift the per-user goodput floor ({} vs {})",
        fair.min_user_mbps,
        fifo.min_user_mbps
    );
    assert!(
        fair.p99_ms as f64 <= 1.5 * fifo.p99_ms as f64,
        "fair-share p99 {}ms must stay within 1.5x of FIFO {}ms",
        fair.p99_ms,
        fifo.p99_ms
    );
    assert!(fair.cache_hits > 0, "Zipf campaign must produce pool hits");
    assert!(
        fair.tape_mounts <= fifo.tape_mounts,
        "the stager pool must never add tape mounts"
    );

    let rows = vec![fifo, fair, unord];
    println!(
        "\n  Identical Zipf arrivals; the fair+tape row re-ran bit-identically\n  (same simulated nanosecond) and a cache-hot recall mounted no tape.\n  Tape-ordered dispatch inside fairness rounds keeps p99 near FIFO while\n  Jain's index and the goodput floor improve."
    );

    let bench = Bench {
        quick: cli.quick,
        files: campaign.spec.files,
        user_universe: campaign.spec.users,
        rows,
    };
    write_json("tbl_stager", &bench);
    // The committed copy, refreshed in place so later PRs diff against it.
    std::fs::write(
        "BENCH_stager.json",
        serde_json::to_string_pretty(&bench).expect("serialize bench"),
    )
    .expect("write BENCH_stager.json");
    println!("  [json] BENCH_stager.json");
    cli.finish(&rig);
}
