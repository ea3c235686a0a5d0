//! Concurrency test for device charges: one NIC hammered from many
//! threads must hand out disjoint reservations.

use copra_cluster::FtaCluster;
use copra_simtime::SimInstant;

#[test]
fn concurrent_device_charges_are_disjoint() {
    // Hammer one NIC from many threads; the timeline must hand out
    // non-overlapping reservations whose busy time sums exactly.
    let cluster = FtaCluster::new(1);
    let node = copra_cluster::NodeId(0);
    let reservations: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cluster = cluster.clone();
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for _ in 0..50 {
                        let r = cluster.charge_san(
                            node,
                            SimInstant::EPOCH,
                            copra_simtime::DataSize::mb(10),
                        );
                        local.push((r.start.as_nanos(), r.end.as_nanos()));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let mut sorted = reservations.clone();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        assert!(w[0].1 <= w[1].0, "overlapping reservations {w:?}");
    }
    assert_eq!(sorted.len(), 400);
}
