//! Tape-drive thrashing, and everything the integration does about it.
//!
//! Three vignettes from the paper:
//!
//! 1. **§4.2.3 / the chroot jail** — `grep` across an archive directory
//!    would recall every stub in arbitrary order; the jail refuses it.
//! 2. **§4.1.2-2 / tape-ordered recall** — PFTool sorts each tape's
//!    restores by sequence number so volumes read front-to-back.
//! 3. **§6.2 / recall-daemon affinity** — recalls of one tape bounced
//!    between LAN-free machines rewind + re-verify the label on every
//!    hand-off; binding a tape to one machine eliminates it.
//!
//! Run with: `cargo run --release --example tape_thrashing`

use copra::cluster::NodeId;
use copra::core::{ArchiveSystem, Jail, SystemConfig};
use copra::hsm::{DataPath, RecallPolicy, RecallRequest};
use copra::simtime::SimInstant;
use copra::vfs::Content;

fn build_migrated_archive(n: u64) -> (ArchiveSystem, Vec<copra::vfs::Ino>) {
    let sys = ArchiveSystem::new(SystemConfig::test_small());
    sys.archive().mkdir_p("/arch").unwrap();
    let mut cursor = SimInstant::EPOCH;
    let mut inos = Vec::new();
    for i in 0..n {
        let ino = sys
            .archive()
            .create_file(
                &format!("/arch/f{i:02}.dat"),
                0,
                Content::synthetic(i, 80_000_000),
            )
            .unwrap();
        let (_, t) = sys
            .hsm()
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
        inos.push(ino);
    }
    sys.clock().advance_to(cursor);
    sys.export_catalog();
    (sys, inos)
}

fn main() {
    // 1. The jail: tape-hostile tools are simply not available.
    let jail = Jail::standard();
    for cmd in ["pfls /arch", "grep -r energy /arch", "rm -rf /arch/old"] {
        match jail.check(cmd) {
            Ok(()) => println!("jail allows : {cmd}"),
            Err(e) => println!("jail refuses: {cmd}  ({e})"),
        }
    }

    // 2. Ordered vs unordered recall of one tape's files.
    println!("\nrecall of 20 migrated files (all on one volume):");
    for (label, scramble) in [("tape order", false), ("random order", true)] {
        let (sys, mut inos) = build_migrated_archive(20);
        if scramble {
            // adversarial order: alternate ends of the tape
            let mut mixed = Vec::new();
            while !inos.is_empty() {
                mixed.push(inos.remove(0));
                if !inos.is_empty() {
                    mixed.push(inos.pop().unwrap());
                }
            }
            inos = mixed;
        }
        let reqs: Vec<RecallRequest> = inos.iter().map(|&ino| RecallRequest { ino }).collect();
        let start = sys.clock().now();
        let out = sys
            .hsm()
            .recall_batch(&reqs, RecallPolicy::TapeAffinity, DataPath::LanFree, start)
            .unwrap();
        let locates = sys.hsm().server().library().stats().totals.locates;
        println!(
            "  {label:>12}: {:.0} s, {locates} locate operations",
            out.makespan.saturating_since(start).as_secs_f64()
        );
    }

    // 3. Scatter vs affinity (the §6.2 hand-off penalty).
    println!("\nrecall assignment across 4 recall daemons:");
    for (label, policy) in [
        ("scatter (stock TSM)", RecallPolicy::Scatter),
        ("tape affinity (fix)", RecallPolicy::TapeAffinity),
    ] {
        let (sys, inos) = build_migrated_archive(20);
        let reqs: Vec<RecallRequest> = inos.iter().map(|&ino| RecallRequest { ino }).collect();
        let start = sys.clock().now();
        let out = sys
            .hsm()
            .recall_batch(&reqs, policy, DataPath::LanFree, start)
            .unwrap();
        let stats = sys.hsm().server().library().stats();
        println!(
            "  {label:>20}: {:.0} s, {} hand-offs, {} label verifies, {} rewinds",
            out.makespan.saturating_since(start).as_secs_f64(),
            stats.totals.handoffs,
            stats.totals.label_verifies,
            stats.totals.rewinds
        );
    }
}
