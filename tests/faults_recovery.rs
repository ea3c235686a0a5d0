//! End-to-end fault injection and recovery: a retrieval campaign survives
//! a drive hard-failure, media errors and a mover crash with zero lost
//! bytes, the same seed reproduces the same simulated outcome, and a
//! fault-free run leaves no trace of the recovery machinery.

use copra::cluster::NodeId;
use copra::core::{ArchiveSystem, SystemConfig};
use copra::faults::FaultPlan;
use copra::hsm::DataPath;
use copra::obs::{EventKind, MetricsSnapshot};
use copra::pftool::PftoolConfig;
use copra::simtime::SimDuration;
use copra::trace::Tracer;
use copra::vfs::Content;

/// Rank layout with one ReadDir: 0 Manager, 1 OutPut, 2 WatchDog,
/// 3 ReadDir, 4 the single Worker, 5 the single TapeProc.
const WORKER_RANK: u32 = 4;

/// A fully serial world (one of each mover kind) keeps message orders —
/// and therefore simulated-time outcomes — reproducible run to run.
fn serial_config() -> PftoolConfig {
    PftoolConfig {
        readdir_procs: 1,
        workers: 1,
        tape_procs: 1,
        ..PftoolConfig::test_small()
    }
}

/// Large files land in the fast pool; the two media-error victims are
/// small so they live in the slow pool, whose device bank nothing else
/// touches while their retry restores run.
fn big(i: u64) -> Content {
    Content::synthetic(100 + i, 4_000_000 + i * 50_000)
}
fn small(i: u64) -> Content {
    Content::synthetic(200 + i, 400_000)
}

#[derive(Debug, PartialEq)]
struct Outcome {
    sim_ns: u64,
    bytes: u64,
    tape_restores: u64,
    injected: u64,
    drive_failures: u64,
    fences: u64,
    media_errors: u64,
    mover_crashes: u64,
    redispatches: u64,
    retries: u64,
    transients: u64,
}

/// Build an archive with ten migrated files, optionally arm the standard
/// fault scenario (1 drive failure + 2 media errors + 1 mover crash), run
/// the retrieval campaign, verify every byte, and report what happened.
fn run_campaign(faulty: bool) -> Outcome {
    run_campaign_with(faulty, Tracer::disabled()).0
}

/// The campaign proper; an armed [`Tracer`] rides along when the caller
/// wants the causal span tree as well as the counters.
fn run_campaign_with(faulty: bool, tracer: Tracer) -> (Outcome, MetricsSnapshot) {
    let sys = ArchiveSystem::new(SystemConfig::test_small().with_tracer(tracer));
    sys.archive().mkdir_p("/arch").unwrap();
    let mut paths = Vec::new();
    for i in 0..8u64 {
        let p = format!("/arch/f{i}.dat");
        sys.archive().create_file(&p, 0, big(i)).unwrap();
        paths.push((p, big(i)));
    }
    for i in 0..2u64 {
        let p = format!("/arch/s{i}.dat");
        sys.archive().create_file(&p, 0, small(i)).unwrap();
        paths.push((p, small(i)));
    }
    let mut cursor = sys.clock().now();
    let mut objids = std::collections::HashMap::new();
    for (p, _) in &paths {
        let ino = sys.archive().resolve(p).unwrap();
        let (objid, t) = sys
            .hsm()
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        objids.insert(p.clone(), objid);
        cursor = t;
    }
    sys.clock().advance_to(cursor);

    if faulty {
        let mut plan = FaultPlan::new(42)
            .fail_drive(0, cursor + SimDuration::from_secs(2))
            .crash_mover(WORKER_RANK, 13)
            .transient_io(0.25, SimDuration::from_secs(2));
        for i in 0..2u64 {
            let obj = sys.hsm().server().get(objids[&format!("/arch/s{i}.dat")]);
            let addr = obj.unwrap().addr;
            plan = plan.media_error(addr.tape.0, addr.seq, 1);
        }
        sys.arm_faults(plan);
    }

    let report = sys.retrieve_tree("/arch", "/back", &serial_config());
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.files, 10);
    // Zero lost bytes: every retrieved file matches its original content.
    for (p, expected) in &paths {
        let back = p.replace("/arch", "/back");
        let ino = sys.scratch().resolve(&back).unwrap();
        let got = sys.scratch().vfs().peek_content(ino).unwrap();
        assert!(got.eq_content(expected), "{back} corrupted or truncated");
    }

    let m = sys.snapshot().metrics;
    let outcome = Outcome {
        sim_ns: report.stats.sim_end.as_nanos(),
        bytes: report.stats.bytes,
        tape_restores: report.stats.tape_restores,
        injected: m.counter("faults.injected"),
        drive_failures: m.counter("faults.drive_failures"),
        fences: m.counter("faults.fences"),
        media_errors: m.counter("faults.media_errors"),
        mover_crashes: m.counter("faults.mover_crashes"),
        redispatches: m.counter("faults.redispatches"),
        retries: m.counter("faults.retries"),
        transients: m.counter("faults.transient_ios"),
    };
    (outcome, m)
}

#[test]
fn faulty_campaign_recovers_with_zero_lost_bytes() {
    let o = run_campaign(true);
    // All ten files restored: eight in the first pass, the two media-error
    // victims on their re-queued second pass.
    assert_eq!(o.tape_restores, 10);
    assert_eq!(o.drive_failures, 1, "{o:?}");
    assert_eq!(o.fences, 1, "{o:?}");
    assert_eq!(o.media_errors, 2, "{o:?}");
    assert_eq!(o.mover_crashes, 1, "{o:?}");
    assert!(o.transients >= 1, "{o:?}");
    assert_eq!(o.injected, 4 + o.transients, "{o:?}");
    assert!(o.redispatches >= 1, "{o:?}");
    assert!(
        o.retries >= o.transients,
        "each transient should drive at least one backoff retry: {o:?}"
    );
}

#[test]
fn faulty_campaign_is_deterministic() {
    let a = run_campaign(true);
    let b = run_campaign(true);
    assert_eq!(a, b, "same seed must reproduce the same sim outcome");
}

/// The context-propagation claim under fire: a worker crash mid-batch
/// must not sever the causal trace. Re-dispatched copies carry their
/// original request contexts, so the re-run spans hang off the *same*
/// `pftool.request` parents — one connected tree — and the `WorkerDied`
/// event names the span it interrupted.
#[test]
fn worker_death_keeps_trace_connected() {
    let run = || {
        let tracer = Tracer::armed(42);
        let (o, m) = run_campaign_with(true, tracer.clone());
        assert_eq!(o.mover_crashes, 1, "{o:?}");
        assert_eq!(
            o.tape_restores, 10,
            "traced campaign must still restore all files"
        );
        (tracer.report().expect("armed tracer yields a report"), m)
    };
    let (report, metrics) = run();
    assert_eq!(report.dropped, 0, "campaign must fit the span buffers");

    // Single connected trace: every recorded parent id resolves to a
    // span in the same report.
    let by_id: std::collections::HashMap<u64, &copra::trace::Span> =
        report.spans.iter().map(|s| (s.id.0, s)).collect();
    for s in &report.spans {
        if let Some(p) = s.parent {
            assert!(
                by_id.contains_key(&p.0),
                "span {} (key {:#x}) has a dangling parent",
                s.name,
                s.key
            );
        }
    }

    // Every copy — including the ones re-queued after the worker died —
    // descends from a `pftool.request` span under the campaign root.
    let mut copies = 0;
    for s in report.spans.iter().filter(|s| s.name == "pftool.copy") {
        copies += 1;
        let mut cur = s.parent;
        let mut through_request = false;
        while let Some(p) = cur {
            let ps = by_id[&p.0];
            through_request |= ps.name == "pftool.request";
            cur = ps.parent;
        }
        assert!(through_request, "pftool.copy span not rooted in a request");
    }
    assert!(copies > 0, "campaign recorded no copy spans");

    // The WorkerDied event records the span it interrupted, and walking
    // that span's ancestry lands on the campaign root.
    let died = metrics
        .events
        .iter()
        .find(|e| matches!(e.kind, EventKind::WorkerDied { .. }))
        .expect("WorkerDied event recorded");
    let (trace, span) = died.span.expect("WorkerDied carries span attribution");
    assert_eq!(trace, report.trace, "event points into this run's trace");
    let mut cur = Some(span);
    let mut chain = Vec::new();
    while let Some(id) = cur {
        let s = by_id
            .get(&id.0)
            .unwrap_or_else(|| panic!("event span {id:?} missing from report"));
        chain.push(s.name);
        cur = s.parent;
    }
    assert_eq!(
        chain.last().copied(),
        Some("pftool.run"),
        "WorkerDied span does not chain to the root: {chain:?}"
    );

    // Deterministic ids + sim stamps: the whole tree digests identically
    // on a re-run with the same seeds.
    let (again, _) = run();
    assert_eq!(
        report.tree_digest(),
        again.tree_digest(),
        "span tree must be reproducible under faults"
    );
}

#[test]
fn fault_free_baseline_leaves_no_recovery_trace() {
    let o = run_campaign(false);
    assert_eq!(o.tape_restores, 10);
    // No plan armed: the faults.* metric family is never even registered,
    // so the snapshot reports zero across the board.
    assert_eq!(o.injected, 0);
    assert_eq!(o.fences, 0);
    assert_eq!(o.retries, 0);
    assert_eq!(o.redispatches, 0);
}
