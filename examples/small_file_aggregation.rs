//! The §6.1 war story: "a user copied millions of 8 MB files to GPFS disk.
//! Migrating these files to tape was an order of magnitude slower than
//! migrating large files — 4 MB/s instead of 100 MB/s — and it took an
//! entire weekend to migrate those files off of disk using 24 tape
//! drives."
//!
//! This example reproduces the collapse on one drive, then applies the fix
//! the paper calls for (aggregation, which TSM's backup client had but
//! migration did not) and shows individual files still recall correctly
//! from inside their containers.
//!
//! Run with: `cargo run --release --example small_file_aggregation`

use copra::cluster::NodeId;
use copra::core::{ArchiveSystem, SystemConfig};
use copra::hsm::aggregate::migrate_aggregated;
use copra::hsm::DataPath;
use copra::pfs::HsmState;
use copra::simtime::{DataSize, SimInstant};
use copra::workloads::{populate, small_file_storm};

fn main() {
    let n_files = 300usize;
    let file_size = 8_000_000u64; // the user's 8 MB files

    // --- stock HSM migration: one file = one tape transaction -----------
    let sys = ArchiveSystem::new(SystemConfig::test_small());
    let tree = small_file_storm(n_files, file_size, 1);
    populate(sys.archive(), "/data", &tree);
    let records = sys.archive().scan_records();
    let mut cursor = SimInstant::EPOCH;
    for rec in &records {
        let (_, t) = sys
            .hsm()
            .migrate_file(rec.ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
    }
    let bytes = tree.total_bytes() as f64;
    let per_file_rate = bytes / cursor.as_secs_f64() / 1e6;
    let stats = sys.hsm().server().library().stats();
    println!(
        "stock migration:      {n_files} x 8 MB files -> {:.1} MB/s per drive ({} backhitches)",
        per_file_rate, stats.totals.backhitches
    );
    println!("                      (paper: ~4 MB/s against a 120 MB/s rated LTO-4 drive)");

    // --- aggregated migration: many files per transaction ----------------
    let sys = ArchiveSystem::new(SystemConfig::test_small());
    populate(sys.archive(), "/data", &tree);
    let records = sys.archive().scan_records();
    let files: Vec<_> = records.iter().map(|r| (r.ino, r.path.as_str())).collect();
    let out = migrate_aggregated(
        &sys.hsm().clone(),
        &files,
        NodeId(0),
        DataPath::LanFree,
        DataSize::gb(1),
        SimInstant::EPOCH,
        true,
    )
    .unwrap();
    let agg_rate = bytes / out.end.as_secs_f64() / 1e6;
    println!(
        "aggregated migration: same files in {} containers -> {:.1} MB/s per drive ({:.1}x)",
        out.containers,
        agg_rate,
        agg_rate / per_file_rate
    );

    // --- members are individually recallable -----------------------------
    let victim = records[137].ino;
    assert_eq!(sys.archive().hsm_state(victim).unwrap(), HsmState::Migrated);
    let t = sys
        .hsm()
        .recall_file(victim, NodeId(1), DataPath::LanFree, out.end, None)
        .unwrap();
    let back = sys.archive().vfs().peek_content(victim).unwrap();
    println!(
        "member recall:        {} came back ({} bytes) at t+{:.0}s, state={}",
        records[137].path,
        back.len(),
        t.as_secs_f64(),
        sys.archive().hsm_state(victim).unwrap()
    );
    assert_eq!(back.len(), file_size);

    // --- the weekend arithmetic ------------------------------------------
    let weekend_h = 2_000_000.0 * 8e6 / (24.0 * per_file_rate * 1e6) / 3600.0;
    let agg_h = 2_000_000.0 * 8e6 / (24.0 * agg_rate * 1e6) / 3600.0;
    println!(
        "\n2M x 8MB files on 24 drives: {weekend_h:.0} h stock (the paper's 'entire weekend'),"
    );
    println!("                             {agg_h:.1} h aggregated.");
}
