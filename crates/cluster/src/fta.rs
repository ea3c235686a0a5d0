//! Cluster nodes and their devices.

use copra_simtime::{
    Bandwidth, DataSize, Reservation, SimDuration, SimInstant, Timeline, TimelinePool,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// FTA node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fta{:02}", self.0)
    }
}

// The paper's Roadrunner archive hardware (§4.3.1, §5.1): every FTA mover
// node has a 10GigE NIC and an FC4 HBA, and a 2×10GigE trunk joins the
// scratch and archive networks.

/// Per-node Ethernet NIC.
const NIC: Bandwidth = Bandwidth::gbit_per_sec(10);
const NIC_LATENCY: SimDuration = SimDuration::from_micros(50);
/// Per-node FC HBA (SAN path for LAN-free movement).
const HBA: Bandwidth = Bandwidth::gbit_per_sec(4);
const HBA_LATENCY: SimDuration = SimDuration::from_micros(20);
/// Links in the trunk between scratch and archive networks.
const TRUNK_LINKS: usize = 2;
/// 10GigE link derated to the ~75% the paper observes as peak achievable
/// utilization (TCP/IP overheads, 2009-era stacks).
const TRUNK_LINK_RATE: Bandwidth =
    Bandwidth::from_bytes_per_sec(Bandwidth::gbit_per_sec(10).as_bytes_per_sec() / 4 * 3);

struct NodeDevices {
    nic: Timeline,
    hba: Timeline,
}

struct Shared {
    nodes: Vec<NodeDevices>,
    trunk: TimelinePool,
}

/// The FTA cluster handle (cheap to clone).
#[derive(Clone)]
pub struct FtaCluster {
    shared: Arc<Shared>,
}

impl FtaCluster {
    /// A cluster of `nodes` FTA movers on the paper's hardware (10 in the
    /// Roadrunner deployment).
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        let nodes = (0..nodes)
            .map(|i| NodeDevices {
                nic: Timeline::new(format!("fta{i:02}-nic"), NIC, NIC_LATENCY),
                hba: Timeline::new(format!("fta{i:02}-hba"), HBA, HBA_LATENCY),
            })
            .collect();
        let trunk = TimelinePool::new(
            "trunk",
            TRUNK_LINKS,
            TRUNK_LINK_RATE,
            SimDuration::from_micros(10),
        );
        FtaCluster {
            shared: Arc::new(Shared { nodes, trunk }),
        }
    }

    pub fn node_count(&self) -> usize {
        self.shared.nodes.len()
    }

    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    fn dev(&self, node: NodeId) -> &NodeDevices {
        &self.shared.nodes[node.0 as usize]
    }

    /// The node's Ethernet NIC timeline.
    pub fn nic(&self, node: NodeId) -> &Timeline {
        &self.dev(node).nic
    }

    /// The node's FC HBA timeline (SAN path).
    pub fn hba(&self, node: NodeId) -> &Timeline {
        &self.dev(node).hba
    }

    /// The inter-network trunk pool.
    pub fn trunk(&self) -> &TimelinePool {
        &self.shared.trunk
    }

    /// Charge a network transfer originating (or terminating) at `node`
    /// that crosses the trunk: NIC leg then earliest trunk link.
    pub fn charge_network(&self, node: NodeId, ready: SimInstant, bytes: DataSize) -> Reservation {
        let nic = self.dev(node).nic.transfer(ready, bytes);
        let (_, trunk) = self.shared.trunk.transfer_earliest(nic.end, bytes);
        Reservation {
            start: nic.start,
            end: trunk.end,
        }
    }

    /// Charge a transfer on the node's NIC only (archive-side LAN traffic
    /// that does not cross the inter-network trunk, e.g. node → TSM
    /// server).
    pub fn charge_nic(&self, node: NodeId, ready: SimInstant, bytes: DataSize) -> Reservation {
        self.dev(node).nic.transfer(ready, bytes)
    }

    /// Charge a node-local SAN transfer (LAN-free data path).
    pub fn charge_san(&self, node: NodeId, ready: SimInstant, bytes: DataSize) -> Reservation {
        self.dev(node).hba.transfer(ready, bytes)
    }

    /// Latest completion instant across all node devices and the trunk.
    pub fn drain_time(&self) -> SimInstant {
        let mut t = self.shared.trunk.drain_time();
        for n in &self.shared.nodes {
            t = t.max(n.nic.next_free()).max(n.hba.next_free());
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_charge_crosses_nic_and_trunk() {
        let c = FtaCluster::new(2);
        // 10 GB over 10GigE nic (1.25 GB/s) ≈ 8 s, then the derated trunk
        // (0.9375 GB/s) ≈ 10.67 s.
        let r = c.charge_network(NodeId(0), SimInstant::EPOCH, DataSize::gb(10));
        let secs = (r.end - r.start).as_secs_f64();
        assert!((18.5..18.9).contains(&secs), "{secs}");
    }

    #[test]
    fn trunk_is_shared_across_nodes() {
        let c = FtaCluster::new(4);
        // 4 nodes each push 10 GB concurrently; 2 trunk links serve 2 each.
        let ends: Vec<_> = c
            .nodes()
            .map(|n| c.charge_network(n, SimInstant::EPOCH, DataSize::gb(10)).end)
            .collect();
        let max = ends.iter().max().unwrap().as_secs_f64();
        // nic 8 s in parallel, then trunk: two derated links (10.67 s per
        // transfer), two transfers each → second wave ends ≈ 8 + 21.3 s.
        assert!((29.0..29.7).contains(&max), "{max}");
    }

    #[test]
    fn san_path_uses_hba_only() {
        let c = FtaCluster::new(1);
        let r = c.charge_san(NodeId(0), SimInstant::EPOCH, DataSize::gb(1));
        // FC4 = 0.5 GB/s → 2 s
        assert!(((r.end - r.start).as_secs_f64() - 2.0).abs() < 0.01);
        assert_eq!(c.trunk().total_busy(), copra_simtime::SimDuration::ZERO);
    }

    #[test]
    fn drain_time_covers_all_devices() {
        let c = FtaCluster::new(2);
        assert_eq!(c.drain_time(), SimInstant::EPOCH);
        let r = c.charge_san(NodeId(1), SimInstant::EPOCH, DataSize::gb(1));
        assert_eq!(c.drain_time(), r.end);
    }
}
