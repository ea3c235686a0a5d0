//! Criterion micro/meso-benchmarks of the *real* (wall-time) machinery.
//!
//! The figure/table binaries report simulated time; these benches answer
//! the complementary question — is the reproduction's own code fast? They
//! cover the hot paths: content descriptor algebra, the sharded policy
//! scan (the §4.2.1 claim), inode-table creates, lookups and stats, tree
//! walking, the indexed catalog vs a full scan (the reason the paper
//! exported TSM's DB to MySQL, §4.2.5), the catalog export itself (full
//! and incremental), the TapeCQ ordering structure, migrator
//! partitioning, timeline reservations behind long backfill gap lists,
//! stager picks and evictions behind a long history, and a small
//! end-to-end `pfcp`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use copra_cluster::NodeId;
use copra_core::{migrator, MigrationPolicy};
use copra_hsm::{ObjectKind, TsmObject, TsmServer};
use copra_metadb::{TsmCatalog, TsmObjectRow};
use copra_obs::Registry;
use copra_pfs::{Cmp, Pfs, PfsBuilder, PolicyEngine, Predicate, Rule};
use copra_pftool::queues::{Entry, TapeEntry, TapeQueues, WalkDir};
use copra_pftool::PftoolConfig;
use copra_simtime::{Bandwidth, Clock, DataSize, SimDuration, SimInstant, Timeline, TimelinePool};
use copra_stager::{FairShareQueue, QueuedRecall, RecallRequest, StagerPool};
use copra_tape::{TapeAddress, TapeFleet, TapeId, TapeTiming};
use copra_vfs::{Content, Ino, Vfs};
use copra_workloads::{mixed_tree, populate};

fn bench_content(c: &mut Criterion) {
    let mut g = c.benchmark_group("content");
    g.sample_size(20);
    let content = Content::synthetic(7, 100 << 30); // 100 GiB descriptor
    g.bench_function("slice_100gib_synthetic", |b| {
        b.iter(|| black_box(content.slice(black_box(1 << 30), 1 << 20)))
    });
    g.bench_function("fingerprint_100gib_synthetic", |b| {
        b.iter(|| black_box(content.fingerprint()))
    });
    let lit = Content::literal(vec![7u8; 1 << 20]);
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("fingerprint_1mib_literal", |b| {
        b.iter(|| black_box(lit.fingerprint()))
    });
    let a = Content::synthetic(1, 64 << 20);
    let mut rebuilt = Content::empty();
    for off in (0..(64 << 20)).step_by(1 << 20) {
        rebuilt.extend(a.slice(off as u64, 1 << 20));
    }
    g.bench_function("eq_content_64mib_synthetic", |b| {
        b.iter(|| black_box(a.eq_content(&rebuilt)))
    });
    g.finish();
}

fn scan_fixture(files: usize) -> Pfs {
    let clock = Clock::new();
    let pfs = PfsBuilder::scratch("bench", clock.clone(), 4).build();
    let tree = mixed_tree(files, 1_000_000, 1.5, 32, 42);
    populate(&pfs, "/data", &tree);
    clock.advance_to(SimInstant::from_secs(10_000));
    pfs
}

/// `ilm_scan` lists aged files and excludes `*.tmp` by name, so it builds
/// every file's path and most files match. `ilm_scan_in_pool` is a GPFS
/// `FROM POOL ... WHERE FILE_SIZE >= 10 MB` rule: it reads no path, tests
/// every file's pool first, and matches about 1 % of the files, so the
/// per-inode pool read is a visible share of its cost.
fn bench_policy_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_scan");
    g.sample_size(10);
    let aged = Predicate::MtimeAge(Cmp::Ge, SimDuration::from_secs(60))
        .and(Predicate::SizeBytes(Cmp::Lt, 100_000_000));
    let ilm = PolicyEngine::new(vec![
        Rule::exclude("tmp", Predicate::NameMatches("*.tmp".to_string())),
        Rule::list("aged", "candidates", aged),
    ]);
    let in_pool = PolicyEngine::new(vec![Rule::list(
        "big",
        "candidates",
        Predicate::InPool("scratch".to_string()).and(Predicate::SizeBytes(Cmp::Ge, 10_000_000)),
    )]);
    for files in [10_000usize, 100_000] {
        let pfs = scan_fixture(files);
        g.throughput(Throughput::Elements(files as u64));
        for (name, engine) in [("ilm_scan", &ilm), ("ilm_scan_in_pool", &in_pool)] {
            g.bench_with_input(BenchmarkId::new(name, files), &pfs, |b, pfs| {
                b.iter(|| black_box(pfs.run_policy(engine).scanned))
            });
        }
    }
    g.finish();
}

/// A fresh `Vfs` holding `names`, each a file name and the index of its
/// directory of 200; returns the directory inodes.
fn inode_table_fill(names: &[(usize, String)]) -> (Vfs, Vec<Ino>) {
    let vfs = Vfs::new("bench", Clock::new());
    let dirs: Vec<Ino> = (0..names.len().div_ceil(200))
        .map(|d| vfs.mkdir(&format!("/d{d:03}")).unwrap())
        .collect();
    for (d, name) in names {
        vfs.create_in(dirs[*d], name, 0, 0, Content::empty())
            .unwrap();
    }
    (vfs, dirs)
}

/// The inode table's per-file costs: a create by (directory, name), and
/// a lookup by name plus a stat by inode, each over 10k files.
fn bench_inode_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("inode_table");
    g.sample_size(20);
    let names: Vec<(usize, String)> = (0..10_000).map(|i| (i / 200, format!("f{i:05}"))).collect();
    g.throughput(Throughput::Elements(names.len() as u64));
    g.bench_function("create_in_10k", |b| {
        b.iter(|| black_box(inode_table_fill(&names).1.len()))
    });
    let (vfs, dirs) = inode_table_fill(&names);
    g.bench_function("lookup_stat_10k", |b| {
        b.iter(|| {
            let mut bytes = 0;
            for (d, name) in &names {
                let ino = vfs.lookup(dirs[*d], name).unwrap();
                bytes += vfs.stat_ino(ino).unwrap().size;
            }
            black_box(bytes)
        })
    });
    g.finish();
}

fn bench_tree_walk(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_walk");
    g.sample_size(10);
    for files in [10_000usize, 100_000] {
        let pfs = scan_fixture(files);
        g.throughput(Throughput::Elements(files as u64));
        g.bench_with_input(BenchmarkId::new("vfs_walk", files), &pfs, |b, pfs| {
            b.iter(|| black_box(pfs.walk("/").unwrap().len()))
        });
    }
    g.finish();
}

fn bench_catalog(c: &mut Criterion) {
    let mut g = c.benchmark_group("catalog");
    g.sample_size(20);
    let catalog = TsmCatalog::new();
    let n = 200_000u64;
    for i in 0..n {
        catalog.record(TsmObjectRow {
            objid: i,
            path: format!("/archive/d{}/f{i}", i % 512),
            fs_ino: i + 1,
            tape: (i % 400) as u32,
            seq: (i / 400) as u32,
            len: 1 << 20,
            stored_at: SimInstant::EPOCH,
        });
    }
    // The paper's reason for MySQL: indexed lookup vs scanning the
    // unindexed proprietary DB.
    g.bench_function("indexed_lookup_by_ino", |b| {
        b.iter(|| black_box(catalog.by_ino(black_box(123_456))))
    });
    g.bench_function("unindexed_equivalent_full_scan", |b| {
        b.iter(|| {
            black_box(
                catalog
                    .dump()
                    .into_iter()
                    .find(|r| r.fs_ino == black_box(123_456)),
            )
        })
    });
    g.finish();
}

fn bench_catalog_export(c: &mut Criterion) {
    let mut g = c.benchmark_group("catalog_export");
    g.sample_size(10);
    let n = 100_000u64;
    let object = |objid: u64, seq: u32| TsmObject {
        objid,
        path: format!("/archive/d{}/f{objid}", objid % 512),
        fs_ino: objid,
        addr: TapeAddress {
            tape: TapeId((objid % 400) as u32),
            seq,
        },
        len: 1 << 20,
        stored_at: SimInstant::EPOCH,
        kind: ObjectKind::Simple,
    };
    let server =
        TsmServer::roadrunner(TapeFleet::new(1, 1, 1, TapeTiming::lto4(), Registry::new()));
    for objid in 1..=n {
        server.register(object(objid, 0));
    }
    // A catalog the server has never synced: every object is checked and
    // written (the fresh catalog is built and dropped inside the timing).
    g.throughput(Throughput::Elements(n));
    g.bench_function("first_export_100k", |b| {
        b.iter(|| black_box(server.export(&TsmCatalog::new())))
    });
    // 1 % of the objects move to a new record, then the catalog synced
    // last is exported again (the churn is inside the timing).
    let catalog = TsmCatalog::new();
    server.export(&catalog);
    let mut round = 0;
    g.throughput(Throughput::Elements(n / 100));
    g.bench_function("reexport_after_1pct_churn_100k", |b| {
        b.iter(|| {
            round += 1;
            for objid in (round..=n).step_by(100) {
                server.register(object(objid, round as u32));
            }
            black_box(server.export(&catalog))
        })
    });
    // One ILM round's export: ten 1,000-member containers of fresh
    // objects registered, then exported into a catalog synced at 60k rows.
    // Each iteration appends its 10k rows, so the case takes no time
    // budget: 3 warm-up iterations and 10 single-iteration samples leave
    // the catalog at 190k rows on every run.
    let server =
        TsmServer::roadrunner(TapeFleet::new(1, 1, 1, TapeTiming::lto4(), Registry::new()));
    for objid in 1..=60_000 {
        server.register(object(objid, 0));
    }
    let catalog = TsmCatalog::new();
    server.export(&catalog);
    let mut next = 60_001u64;
    g.throughput(Throughput::Elements(10_000))
        .measurement_time(Duration::ZERO);
    g.bench_function("append_10k_members_60k", |b| {
        b.iter(|| {
            for c in 0..10u32 {
                let container = next;
                next += 1_001;
                let addr = TapeAddress {
                    tape: TapeId(c),
                    seq: (container / 1_001) as u32,
                };
                server.register(TsmObject {
                    path: format!("<aggregate:{container}>"),
                    fs_ino: 0,
                    addr,
                    kind: ObjectKind::Container {
                        member_count: 1_000,
                    },
                    ..object(container, 0)
                });
                for m in 1..=1_000u64 {
                    let objid = container + m;
                    server.register(TsmObject {
                        addr,
                        kind: ObjectKind::Member {
                            container,
                            offset: (m - 1) << 20,
                        },
                        ..object(objid, 0)
                    });
                }
            }
            black_box(server.export(&catalog))
        })
    });
    g.finish();
}

fn bench_tape_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("tape_queues");
    g.sample_size(20);
    g.bench_function("ordered_insert_10k", |b| {
        let dir = Arc::new(WalkDir {
            path: "/".to_string(),
            dst: None,
            dst_name: None,
        });
        b.iter(|| {
            let mut tq = TapeQueues::new(true);
            for i in 0..10_000u32 {
                let seq = (i * 2_654_435_761) % 10_000; // scrambled
                tq.push(
                    i % 24,
                    TapeEntry {
                        seq,
                        ino: Ino(i as u64),
                        file: Entry {
                            dir: Arc::clone(&dir),
                            name: String::new(),
                        },
                        parent: None,
                    },
                );
            }
            black_box(tq.len())
        })
    });
    g.finish();
}

fn bench_migrator_partition(c: &mut Criterion) {
    let mut g = c.benchmark_group("migrator_partition");
    g.sample_size(20);
    let pfs = scan_fixture(20_000);
    let records = pfs.scan_records();
    let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
    for policy in [MigrationPolicy::SizeBalanced, MigrationPolicy::RoundRobin] {
        g.bench_with_input(
            BenchmarkId::new("partition_20k", format!("{policy:?}")),
            &policy,
            |b, &policy| b.iter(|| black_box(migrator::partition(&records, &nodes, policy).len())),
        );
    }
    g.finish();
}

/// Publish `n` idle gaps of 1 µs below the frontier, as a long run of
/// out-of-order arrivals leaves behind; returns the frontier.
fn skip_gaps(t: &Timeline, n: usize) -> SimInstant {
    for _ in 0..n {
        t.reserve(
            t.next_free() + SimDuration::from_micros(1),
            SimDuration::from_micros(9),
        );
    }
    t.next_free()
}

/// Split one long idle gap into `n + 1` gaps with `n` small backfills, as
/// the backfills of a long PFTool or recall run do. A split does not check
/// the 1,024-gap publish limit, so the list grows past it.
fn split_gaps(t: &Timeline, n: u64) {
    let base = t.next_free();
    let step = |k: u64| SimDuration::from_micros(10) * k;
    t.reserve(base + step(n + 1), SimDuration::from_micros(9));
    for k in 1..=n {
        t.reserve(base + step(k), SimDuration::from_micros(1));
    }
}

fn bench_timeline_backfill(c: &mut Criterion) {
    let mut g = c.benchmark_group("timeline_backfill");
    g.sample_size(20);
    // `skip_gaps` only publishes, and publishing on a list of 1,024 gaps
    // drops the earliest one, so the list stays at 1,024. Each op is ready
    // just below the frontier and too long for any gap, so it looks for a
    // backfill past every stale gap, then queues at the frontier and leaves
    // the list as it was. One iteration is 1,000 ops: ms/iter reads as
    // µs/op.
    let t = Timeline::new("disk", Bandwidth::mb_per_sec(500), SimDuration::ZERO);
    let ready = skip_gaps(&t, 1_024) - SimDuration::from_nanos(1);
    g.bench_function("reserve_behind_1024_stale_gaps_x1000", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                black_box(t.reserve(black_box(ready), SimDuration::from_micros(10)));
            }
        })
    });
    // A 4-member pool probes every member, then claims on the best one.
    let pool = TimelinePool::new("fast", 4, Bandwidth::mb_per_sec(500), SimDuration::ZERO);
    let ready = pool
        .members()
        .iter()
        .map(|m| skip_gaps(m, 1_024))
        .min()
        .unwrap();
    g.bench_function("pool4_transfer_earliest_behind_stale_gaps_x1000", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                black_box(pool.transfer_earliest(black_box(ready), DataSize::mb(1)));
            }
        })
    });
    // Past 15k gaps, each op is ready just past the frontier: it starts at
    // its ready time and publishes a gap, which drops the earliest one.
    let t = Timeline::new("disk", Bandwidth::mb_per_sec(500), SimDuration::ZERO);
    split_gaps(&t, 15_000);
    let (skip, busy) = (SimDuration::from_micros(1), SimDuration::from_micros(9));
    g.bench_function("reserve_at_frontier_over_15k_gaps_x1000", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                black_box(t.reserve(t.next_free() + skip, busy));
            }
        })
    });
    // Ready times that track the frontier: each op pair publishes a gap at
    // the frontier, then backfills the head of that gap.
    let t = Timeline::new("disk", Bandwidth::mb_per_sec(500), SimDuration::ZERO);
    split_gaps(&t, 15_000);
    let small = SimDuration::from_nanos(100);
    g.bench_function("backfill_tracking_frontier_over_15k_gaps_x1000", |b| {
        b.iter(|| {
            for _ in 0..500 {
                let frontier = t.next_free();
                black_box(t.reserve(frontier + skip, busy));
                black_box(t.reserve(black_box(frontier), small));
            }
        })
    });
    g.finish();
}

fn bench_stager_history(c: &mut Criterion) {
    let mut g = c.benchmark_group("stager_history");
    g.sample_size(10);
    // One request pushed and picked after 100k users were served through
    // cache hits: the pick looks only at queued users. One iteration is
    // 1,000 ops: ms/iter reads as µs/op.
    let mut q = FairShareQueue::new();
    for user in 0..100_000u32 {
        q.charge_served(user, user % 8, 1 << 20);
    }
    let aging = SimDuration::from_secs(60);
    let mut seq_no = 0u64;
    g.bench_function("push_select_after_100k_charged_users_x1000", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                seq_no += 1;
                let user = (seq_no % 100_000) as u32;
                q.push(QueuedRecall {
                    seq_no,
                    request: RecallRequest::new("/f").user(user).group(user % 8),
                    ino: Ino(seq_no),
                    bytes: 1 << 20,
                    tape: TapeId(0),
                    tape_seq: 0,
                    submitted: SimInstant::EPOCH,
                    ctx: None,
                });
                black_box(q.select_round(SimInstant::EPOCH, aging, 1));
            }
        })
    });
    // A fresh insert into a full pool of 10k unpinned entries evicts the
    // least recently used one.
    let mut pool = StagerPool::new(10_000);
    for ino in 0..10_000 {
        pool.insert(Ino(ino), 1, false).unwrap();
    }
    let mut next = 10_000u64;
    g.bench_function("insert_evict_10k_pool_x1000", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                next += 1;
                black_box(pool.insert(Ino(next), 1, false).unwrap());
            }
        })
    });
    g.finish();
}

fn bench_pfcp_e2e(c: &mut Criterion) {
    let mut g = c.benchmark_group("pfcp_e2e");
    g.sample_size(10);
    // Wall time of the whole MPI-style engine on a 500-file tree: spawn
    // ranks, walk, stat, move descriptors, report.
    g.bench_function("pfcp_500_files_wall", |b| {
        b.iter(|| {
            let sys = copra_core::ArchiveSystem::new(copra_core::SystemConfig::test_small());
            let tree = mixed_tree(500, 1_000_000, 1.0, 8, 5);
            populate(sys.scratch(), "/src", &tree);
            let report = sys.archive_tree("/src", "/dst", &PftoolConfig::test_small());
            assert!(report.stats.ok());
            black_box(report.stats.files)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_content,
    bench_policy_scan,
    bench_inode_table,
    bench_tree_walk,
    bench_catalog,
    bench_catalog_export,
    bench_tape_queues,
    bench_migrator_partition,
    bench_timeline_backfill,
    bench_stager_history,
    bench_pfcp_e2e
);
criterion_main!(benches);
