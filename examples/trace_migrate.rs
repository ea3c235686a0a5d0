//! Causal tracing of a small-file migrate, end to end.
//!
//! Arms a [`copra::trace::Tracer`] on the whole stack, migrates a storm
//! of small files two ways — a few one-file-per-transaction migrates
//! (§6.1's pathology) and the rest as aggregated containers — then asks
//! the trace two questions the metrics plane cannot answer:
//!
//! * **where does time go?** — the phase profiler: inclusive/exclusive
//!   time per span name, call counts, wall p50/p99;
//! * **what was the longest causal chain?** — critical-path extraction
//!   under a chosen root, with per-hop attribution.
//!
//! Run with: `cargo run --release --example trace_migrate`

use copra::cluster::NodeId;
use copra::core::{ArchiveSystem, SystemConfig};
use copra::hsm::aggregate::migrate_aggregated;
use copra::hsm::DataPath;
use copra::simtime::{DataSize, SimInstant};
use copra::trace::Tracer;
use copra::workloads::{populate, small_file_storm};

fn main() {
    // Same seed ⇒ same trace id ⇒ identical span tree, run after run.
    let tracer = Tracer::armed(2010);
    let sys = ArchiveSystem::new(SystemConfig::test_small().with_tracer(tracer.clone()));

    let tree = small_file_storm(64, 512 * 1024, 7);
    populate(sys.archive(), "/small", &tree);
    let records = sys.archive().scan_records();

    // Eight files the paper's way: one tape transaction each. Every
    // migrate becomes an `hsm.migrate` span with `hsm.pfs.read`,
    // `hsm.agent.store` and `journal.intent.migrate-commit` children.
    let mut cursor = SimInstant::EPOCH;
    for rec in records.iter().take(8) {
        let (_, t) = sys
            .hsm()
            .migrate_file(rec.ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .expect("migrate");
        cursor = t;
    }

    // The rest aggregated: containers of up to 8 MB, one transaction per
    // container (`hsm.migrate_aggregated` with per-container children).
    let rest: Vec<_> = records
        .iter()
        .skip(8)
        .map(|r| (r.ino, r.path.as_str()))
        .collect();
    let out = migrate_aggregated(
        sys.hsm(),
        &rest,
        NodeId(0),
        DataPath::LanFree,
        DataSize::mb(8),
        cursor,
        true,
    )
    .expect("aggregated migrate");
    sys.clock().advance_to(out.end);
    println!(
        "migrated {} files: 8 single-transaction + {} in {} containers",
        records.len(),
        rest.len(),
        out.containers
    );

    let report = tracer.report().expect("tracer is armed");

    println!("\n-- phase table ({} spans) --", report.spans.len());
    println!("{}", report.phase_table_text());

    // Critical path under the slowest single-file migrate: where did
    // that one file's life go?
    if let Some(root) = report
        .roots()
        .filter(|s| s.name == "hsm.migrate")
        .max_by_key(|s| s.sim_duration())
    {
        println!("-- critical path: slowest hsm.migrate --");
        println!("{}", report.critical_path_text(root.id));
    }

    // And under the aggregated batch: the container pipeline.
    if let Some(agg) = report.find("hsm.migrate_aggregated") {
        println!("-- critical path: hsm.migrate_aggregated --");
        println!("{}", report.critical_path_text(agg.id));
    }
    println!("trace digest: {:016x}", report.tree_digest());
}
