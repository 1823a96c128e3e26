//! # ggpu-icnt — on-chip interconnect models
//!
//! Flit-level network models connecting SMs to memory partitions, covering
//! the paper's Table II configuration space and Figures 20-22:
//!
//! * [`Topology::LocalXbar`] — the RTX 3070 baseline: a single-stage
//!   crossbar with dedicated input/output ports.
//! * [`Topology::Mesh`] — 2-D mesh with dimension-order (XY) routing.
//! * [`Topology::FatTree`] — binary fat tree with nearest-common-ancestor
//!   routing; link capacity doubles toward the root.
//! * [`Topology::Butterfly`] — log₂N-stage butterfly with destination-tag
//!   routing.
//!
//! The model is a *flow* model rather than a per-cycle router simulation:
//! a packet's route is resolved to a sequence of links at send time, each
//! link transmits one flit per cycle (scaled by fat-tree capacity), and
//! contention appears as queueing on each link's `free_at` horizon. This
//! captures the three first-order effects the paper sweeps — hop count ×
//! router delay (Fig 21), serialization ∝ packet bytes / flit size
//! (Fig 22), and topology distance (Fig 20) — while staying fast enough to
//! run inside a cycle-level GPU simulation.
//!
//! ## Example
//!
//! ```
//! use ggpu_icnt::{Icnt, IcntConfig, Topology};
//!
//! let cfg = IcntConfig { topology: Topology::Mesh, ..IcntConfig::default() };
//! let mut net = Icnt::new(cfg, 4, 2); // 4 SMs, 2 memory partitions
//! let t = net.send(net.src_node(0), net.dst_node(1), 128, 100);
//! assert!(t > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Deterministic timestamped in-flight packet store.
///
/// The simulator models the network as a flow: [`Icnt::send`] resolves a
/// packet to a delivery time, and the packet then sits in a
/// `DeliveryQueue` until that cycle arrives. Items delivered at the same
/// cycle pop in insertion order (a monotone sequence number breaks ties),
/// which is what makes event delivery — and therefore the whole engine —
/// deterministic regardless of how the producing SMs were scheduled.
#[derive(Debug, Clone)]
pub struct DeliveryQueue<T> {
    heap: BinaryHeap<Reverse<(u64, u64, T)>>,
    seq: u64,
}

impl<T: Ord> DeliveryQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        DeliveryQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `item` for delivery at `time`.
    pub fn push(&mut self, time: u64, item: T) {
        self.seq += 1;
        self.heap.push(Reverse((time, self.seq, item)));
    }

    /// Delivery time of the earliest in-flight item, if any — a
    /// non-destructive peek used by the engine's idle-cycle fast-forward to
    /// bound how far it may jump without missing a delivery.
    pub fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pop the next item due at or before `now`, if any.
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        match self.heap.peek() {
            Some(Reverse((t, _, _))) if *t <= now => {
                self.heap.pop().map(|Reverse((_, _, item))| item)
            }
            _ => None,
        }
    }

    /// Number of items in flight.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every in-flight item (device halt).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<T: Ord> Default for DeliveryQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Network topologies from Table II of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Single-stage local crossbar (baseline).
    LocalXbar,
    /// 2-D mesh, dimension-order routing.
    Mesh,
    /// Binary fat tree, nearest-common-ancestor routing.
    FatTree,
    /// Butterfly, destination-tag routing.
    Butterfly,
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Topology::LocalXbar => "local-xbar",
            Topology::Mesh => "mesh",
            Topology::FatTree => "fat-tree",
            Topology::Butterfly => "butterfly",
        };
        f.write_str(s)
    }
}

/// Interconnect configuration (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcntConfig {
    /// Network topology.
    pub topology: Topology,
    /// Flit (channel) width in bytes; Table II sweeps 8/16/32/40.
    pub flit_bytes: u32,
    /// Extra per-hop router pipeline delay in cycles (Figure 21 sweeps
    /// 0/4/8/16 on top of the 1-cycle base hop).
    pub router_delay: u64,
}

/// Bytes of header added to every packet, on-chip and on the inter-GPU
/// fabric alike.
const HEADER_BYTES: u32 = 8;

impl Default for IcntConfig {
    /// Table II defaults: 40-byte flits, zero extra routing delay, local
    /// crossbar.
    fn default() -> Self {
        IcntConfig {
            topology: Topology::LocalXbar,
            flit_bytes: 40,
            router_delay: 0,
        }
    }
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IcntStats {
    /// Packets delivered.
    pub packets: u64,
    /// Flits transmitted (summed over links).
    pub flits: u64,
    /// Sum of end-to-end packet latencies in cycles.
    pub total_latency: u64,
    /// Sum of queueing delay (time waiting for busy links).
    pub queueing: u64,
}

// `merge` / `delta_since` / `for_each_field` mirror what
// `ggpu_mem::counter_set!` generates for the memory counters; they are
// written out here because this crate has no dependencies.
impl IcntStats {
    /// Field-wise accumulation of `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        self.packets += other.packets;
        self.flits += other.flits;
        self.total_latency += other.total_latency;
        self.queueing += other.queueing;
    }

    /// Field-wise counter delta since the earlier snapshot `base`
    /// (saturating, so a reset in between yields zeros rather than
    /// wrapping).
    pub fn delta_since(&self, base: &Self) -> Self {
        IcntStats {
            packets: self.packets.saturating_sub(base.packets),
            flits: self.flits.saturating_sub(base.flits),
            total_latency: self.total_latency.saturating_sub(base.total_latency),
            queueing: self.queueing.saturating_sub(base.queueing),
        }
    }

    /// Visit every counter as `(name, value)`, in declaration order.
    pub fn for_each_field(&self, mut f: impl FnMut(&'static str, u64)) {
        f("packets", self.packets);
        f("flits", self.flits);
        f("total_latency", self.total_latency);
        f("queueing", self.queueing);
    }
}

/// A node endpoint handle. Obtain via [`Icnt::src_node`] / [`Icnt::dst_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// The interconnection network. One instance models one direction
/// (requests or replies); the simulator owns one of each, as GPGPU-Sim
/// does.
#[derive(Debug, Clone)]
pub struct Icnt {
    config: IcntConfig,
    n_src: usize,
    n_total: usize,
    /// `free_at` horizon per link.
    links: Vec<u64>,
    /// Capacity multiplier per link (fat tree's fatter upper levels).
    link_capacity: Vec<u32>,
    stats: IcntStats,
    /// Packets injected per endpoint node (spatial attribution axis).
    injected: Vec<u64>,
    /// Packets delivered per endpoint node (spatial attribution axis).
    delivered: Vec<u64>,
    router: Router,
}

impl Icnt {
    /// Build a network with `n_src` source endpoints (SMs) and `n_dst`
    /// destination endpoints (memory partitions).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint count is zero.
    pub fn new(config: IcntConfig, n_src: usize, n_dst: usize) -> Self {
        assert!(n_src > 0 && n_dst > 0, "network needs endpoints");
        let n_total = n_src + n_dst;
        let side = (n_total as f64).sqrt().ceil() as usize;
        let stages = (n_total.next_power_of_two().trailing_zeros()).max(1);
        let fly_n = 1usize << stages;

        let (n_links, capacities) = match config.topology {
            // One input port per source, one output port per destination.
            Topology::LocalXbar => (n_total * 2, vec![1u32; n_total * 2]),
            // 4 outgoing directions per router plus inject/eject per node.
            Topology::Mesh => {
                let n = side * side * 4 + n_total * 2;
                (n, vec![1u32; n])
            }
            // Heap-shaped binary tree over fly_n leaves: up and down link
            // per tree edge (edge of heap node c connects c to c/2).
            Topology::FatTree => {
                let n_edges = 2 * fly_n;
                let mut caps = vec![1u32; n_edges * 2];
                let leaf_depth = stages;
                for c in 2..2 * fly_n {
                    let depth = usize::BITS - 1 - (c as u32).leading_zeros();
                    let level_above_leaf = leaf_depth.saturating_sub(depth);
                    let cap = 1u32 << level_above_leaf.min(3);
                    caps[c * 2] = cap; // up link
                    caps[c * 2 + 1] = cap; // down link
                }
                (n_edges * 2, caps)
            }
            // stages × fly_n inter-stage links plus inject/eject.
            Topology::Butterfly => {
                let n = stages as usize * fly_n + n_total * 2;
                (n, vec![1u32; n])
            }
        };

        Icnt {
            config,
            n_src,
            n_total,
            links: vec![0; n_links],
            link_capacity: capacities,
            stats: IcntStats::default(),
            injected: vec![0; n_total],
            delivered: vec![0; n_total],
            router: Router {
                topology: config.topology,
                side,
                stages,
                fly_n,
            },
        }
    }

    /// Handle for SM endpoint `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn src_node(&self, i: usize) -> NodeId {
        assert!(i < self.n_src, "source endpoint {i} out of range");
        NodeId(i)
    }

    /// Handle for memory-partition endpoint `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn dst_node(&self, i: usize) -> NodeId {
        assert!(
            self.n_src + i < self.n_total,
            "dest endpoint {i} out of range"
        );
        NodeId(self.n_src + i)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &IcntStats {
        &self.stats
    }

    /// Reset statistics; link horizons are kept.
    pub fn reset_stats(&mut self) {
        self.stats = IcntStats::default();
        for c in &mut self.injected {
            *c = 0;
        }
        for c in &mut self.delivered {
            *c = 0;
        }
    }

    /// Packets injected per endpoint node. Endpoints `0..n_src` are the
    /// source side ([`Icnt::src_node`]), `n_src..` the destination side
    /// ([`Icnt::dst_node`]); each marginal (injected, delivered) sums to
    /// the aggregate packet count because every packet has exactly one
    /// source and one destination endpoint.
    pub fn injected_per_node(&self) -> &[u64] {
        &self.injected
    }

    /// Packets delivered per endpoint node (same indexing as
    /// [`Icnt::injected_per_node`]).
    pub fn delivered_per_node(&self) -> &[u64] {
        &self.delivered
    }

    /// Flits needed for a payload of `bytes`.
    pub(crate) fn flits_for(&self, bytes: u32) -> u64 {
        ((bytes + HEADER_BYTES).div_ceil(self.config.flit_bytes)) as u64
    }

    /// Send a packet of `bytes` from `from` to `to` at time `now`; returns
    /// the delivery (tail arrival) time.
    pub fn send(&mut self, from: NodeId, to: NodeId, bytes: u32, now: u64) -> u64 {
        let flits = self.flits_for(bytes);
        let hop_latency = 1 + self.config.router_delay;
        let mut head = now;
        let mut queueing = 0;
        let mut last_serialize = 1;
        let Icnt {
            links,
            link_capacity,
            stats,
            ..
        } = self;
        self.router.walk(from.0, to.0, |link| {
            let cap = link_capacity[link].max(1) as u64;
            let serialize = flits.div_ceil(cap);
            let start = head.max(links[link]);
            queueing += start - head;
            links[link] = start + serialize;
            head = start + hop_latency;
            last_serialize = serialize;
            stats.flits += flits;
        });
        let arrival = head + last_serialize.saturating_sub(1);
        self.stats.packets += 1;
        self.injected[from.0] += 1;
        self.delivered[to.0] += 1;
        self.stats.total_latency += arrival - now;
        self.stats.queueing += queueing;
        arrival
    }
}

/// The topology's routing function: which links a packet crosses, in order.
/// It holds only the geometry, so [`Icnt::send`] can walk a route while it
/// updates the link horizons, and no route is ever stored.
#[derive(Debug, Clone, Copy)]
struct Router {
    topology: Topology,
    /// Mesh side length (router grid is side × side).
    side: usize,
    /// Butterfly: number of stages over `fly_n = 2^stages` endpoints.
    stages: u32,
    fly_n: usize,
}

impl Router {
    /// Call `visit` with every link from endpoint `from` to endpoint `to`,
    /// in the order the packet crosses them.
    fn walk(&self, from: usize, to: usize, mut visit: impl FnMut(usize)) {
        match self.topology {
            Topology::LocalXbar => {
                visit(from * 2);
                visit(to * 2 + 1);
            }
            Topology::Mesh => {
                let inject_base = self.side * self.side * 4;
                visit(inject_base + from * 2);
                let (mut x, mut y) = (from % self.side, from / self.side);
                let (tx, ty) = (to % self.side, to / self.side);
                // Dimension-order: x first, then y. Directions: 0=E,1=W,2=N,3=S.
                while x != tx {
                    let cell = y * self.side + x;
                    if x < tx {
                        visit(cell * 4);
                        x += 1;
                    } else {
                        visit(cell * 4 + 1);
                        x -= 1;
                    }
                }
                while y != ty {
                    let cell = y * self.side + x;
                    if y < ty {
                        visit(cell * 4 + 2);
                        y += 1;
                    } else {
                        visit(cell * 4 + 3);
                        y -= 1;
                    }
                }
                visit(inject_base + to * 2 + 1);
            }
            Topology::FatTree => {
                // Heap leaves are fly_n + index, all at one depth, so the
                // nearest common ancestor is `levels` halvings above both.
                let (a, b) = (self.fly_n + from, self.fly_n + to);
                let levels = usize::BITS - (a ^ b).leading_zeros();
                // Up links out of a and its ancestors below the meeting
                // point, then down links into b's ancestors, top first.
                for l in 0..levels {
                    visit((a >> l) * 2);
                }
                for l in (0..levels).rev() {
                    visit((b >> l) * 2 + 1);
                }
            }
            Topology::Butterfly => {
                let inject_base = self.stages as usize * self.fly_n;
                visit(inject_base + from * 2);
                // Destination-tag routing: at stage s the switch corrects
                // bit (stages-1-s) of the current position toward `to`.
                let mut pos = from;
                for s in 0..self.stages {
                    let bit = self.stages - 1 - s;
                    let want = (to >> bit) & 1;
                    pos = (pos & !(1 << bit)) | (want << bit);
                    visit(s as usize * self.fly_n + pos);
                }
                visit(inject_base + to * 2 + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hop count between two endpoints (path length in links).
    fn hops(n: &Icnt, from: NodeId, to: NodeId) -> usize {
        let mut hops = 0;
        n.router.walk(from.0, to.0, |_| hops += 1);
        hops
    }

    /// The hand-written counter operations cover every field: a counter
    /// added to the struct but not to them fails here.
    #[test]
    fn stats_operations_cover_every_field() {
        let one = IcntStats {
            packets: 1,
            flits: 2,
            total_latency: 3,
            queueing: 4,
        };
        let mut two = one;
        two.merge(&one);
        let mut seen = Vec::new();
        two.for_each_field(|name, v| seen.push((name, v)));
        assert_eq!(
            seen,
            [
                ("packets", 2),
                ("flits", 4),
                ("total_latency", 6),
                ("queueing", 8)
            ]
        );
        assert_eq!(seen.len() * 8, std::mem::size_of::<IcntStats>());
        assert_eq!(two.delta_since(&one), one);
        assert_eq!(one.delta_since(&two), IcntStats::default());
    }

    #[test]
    fn delivery_queue_orders_by_time_then_insertion() {
        let mut q: DeliveryQueue<&str> = DeliveryQueue::new();
        q.push(5, "late");
        q.push(3, "early-a");
        q.push(3, "early-b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_due(2), None);
        assert_eq!(q.pop_due(3), Some("early-a"));
        assert_eq!(q.pop_due(3), Some("early-b"));
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(5), Some("late"));
        assert!(q.is_empty());
    }

    #[test]
    fn delivery_queue_clear_drops_everything() {
        let mut q: DeliveryQueue<u32> = DeliveryQueue::default();
        q.push(1, 7);
        q.push(2, 8);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop_due(u64::MAX), None);
    }

    fn net(topology: Topology) -> Icnt {
        Icnt::new(
            IcntConfig {
                topology,
                ..IcntConfig::default()
            },
            8,
            4,
        )
    }

    #[test]
    fn all_topologies_deliver() {
        for t in [
            Topology::LocalXbar,
            Topology::Mesh,
            Topology::FatTree,
            Topology::Butterfly,
        ] {
            let mut n = net(t);
            let at = n.send(n.src_node(0), n.dst_node(3), 128, 10);
            assert!(at > 10, "{t}: delivery must take time");
            assert_eq!(n.stats().packets, 1);
        }
    }

    #[test]
    fn endpoint_packet_counts_telescope_to_totals() {
        let mut n = net(Topology::LocalXbar);
        n.send(n.src_node(0), n.dst_node(3), 128, 0);
        n.send(n.src_node(0), n.dst_node(1), 32, 0);
        n.send(n.src_node(5), n.dst_node(3), 32, 0);
        // Reply direction: destination-side node injecting toward a source.
        n.send(n.dst_node(3), n.src_node(5), 32, 0);
        assert_eq!(n.injected_per_node().iter().sum::<u64>(), n.stats().packets);
        assert_eq!(
            n.delivered_per_node().iter().sum::<u64>(),
            n.stats().packets
        );
        assert_eq!(n.injected_per_node()[0], 2);
        assert_eq!(n.delivered_per_node()[8 + 3], 2);
        assert_eq!(n.injected_per_node()[8 + 3], 1);
        assert_eq!(n.delivered_per_node()[5], 1);
        n.reset_stats();
        assert!(n.injected_per_node().iter().all(|&c| c == 0));
        assert!(n.delivered_per_node().iter().all(|&c| c == 0));
    }

    #[test]
    fn xbar_is_two_hops() {
        let n = net(Topology::LocalXbar);
        assert_eq!(hops(&n, n.src_node(0), n.dst_node(0)), 2);
        assert_eq!(hops(&n, n.src_node(7), n.dst_node(3)), 2);
    }

    #[test]
    fn mesh_distance_grows_with_manhattan_distance() {
        let n = net(Topology::Mesh);
        let near = hops(&n, n.src_node(0), n.src_node(1));
        let far = hops(&n, n.src_node(0), n.dst_node(3));
        assert!(far > near, "far {far} vs near {near}");
    }

    #[test]
    fn mesh_slower_than_xbar_on_average() {
        let mut xb = net(Topology::LocalXbar);
        let mut mesh = net(Topology::Mesh);
        for i in 0..8 {
            for j in 0..4 {
                xb.send(xb.src_node(i), xb.dst_node(j), 128, 0);
                mesh.send(mesh.src_node(i), mesh.dst_node(j), 128, 0);
            }
        }
        // Equal packet counts, so the totals order the means.
        assert_eq!(mesh.stats().packets, xb.stats().packets);
        assert!(
            mesh.stats().total_latency > xb.stats().total_latency,
            "mesh {} should exceed xbar {}",
            mesh.stats().total_latency,
            xb.stats().total_latency
        );
    }

    #[test]
    fn router_delay_increases_latency() {
        let mk = |delay: u64| {
            Icnt::new(
                IcntConfig {
                    topology: Topology::Mesh,
                    router_delay: delay,
                    ..IcntConfig::default()
                },
                8,
                4,
            )
        };
        let mut base = mk(0);
        let mut slow = mk(16);
        let t0 = base.send(base.src_node(0), base.dst_node(3), 128, 0);
        let t1 = slow.send(slow.src_node(0), slow.dst_node(3), 128, 0);
        assert!(t1 > t0 + 16, "16-cycle router delay must compound per hop");
    }

    #[test]
    fn narrow_flits_serialize_more() {
        let mk = |flit: u32| {
            Icnt::new(
                IcntConfig {
                    topology: Topology::Mesh,
                    flit_bytes: flit,
                    ..IcntConfig::default()
                },
                8,
                4,
            )
        };
        let mut wide = mk(40);
        let mut narrow = mk(8);
        let mut t_wide = 0;
        let mut t_narrow = 0;
        for _ in 0..16 {
            t_wide = wide.send(wide.src_node(0), wide.dst_node(0), 128, 0);
            t_narrow = narrow.send(narrow.src_node(0), narrow.dst_node(0), 128, 0);
        }
        assert!(
            t_narrow > t_wide,
            "8B flits ({t_narrow}) must be slower than 40B ({t_wide})"
        );
    }

    #[test]
    fn contention_queues_on_shared_output() {
        let mut n = net(Topology::LocalXbar);
        let a = n.send(n.src_node(0), n.dst_node(0), 128, 0);
        let b = n.send(n.src_node(1), n.dst_node(0), 128, 0);
        assert!(b > a, "second packet to same output must queue");
        assert!(n.stats().queueing > 0);
    }

    #[test]
    fn fat_tree_sibling_vs_distant_leaves() {
        let n = net(Topology::FatTree);
        assert_eq!(hops(&n, n.src_node(0), n.src_node(1)), 2);
        let far = hops(&n, n.src_node(0), n.dst_node(3));
        assert!(far >= 4);
    }

    #[test]
    fn fat_tree_route_climbs_to_the_nearest_common_ancestor_and_back() {
        // The route as a walk that halves the larger heap index until the
        // two meet: up links on the way out, down links read top first.
        let n = net(Topology::FatTree);
        let reference = |from: usize, to: usize| {
            let (mut a, mut b) = (n.router.fly_n + from, n.router.fly_n + to);
            let (mut up, mut down) = (Vec::new(), Vec::new());
            while a != b {
                if a > b {
                    up.push(a * 2);
                    a /= 2;
                } else {
                    down.push(b * 2 + 1);
                    b /= 2;
                }
            }
            up.extend(down.into_iter().rev());
            up
        };
        for from in 0..12 {
            for to in 0..12 {
                let mut walked = Vec::new();
                n.router.walk(from, to, |l| walked.push(l));
                assert_eq!(walked, reference(from, to), "{from} -> {to}");
            }
        }
    }

    #[test]
    fn butterfly_hops_are_stages_plus_inject_eject() {
        let n = net(Topology::Butterfly);
        // 12 endpoints → 16-wide fly, 4 stages, +2 inject/eject.
        assert_eq!(hops(&n, n.src_node(0), n.dst_node(3)), 6);
    }

    #[test]
    fn flits_for_includes_header() {
        let n = net(Topology::LocalXbar);
        // 128B payload + 8B header at 40B flits = ceil(136/40) = 4.
        assert_eq!(n.flits_for(128), 4);
        assert_eq!(n.flits_for(0), 1);
    }

    #[test]
    fn fat_tree_root_is_fatter() {
        // Saturating the root with capacity >1 must beat a capacity-1 root;
        // verified indirectly: fat-tree distant traffic is not catastrophically
        // slower than sibling traffic despite sharing the root.
        let mut n = net(Topology::FatTree);
        let mut last = 0;
        for i in 0..8 {
            last = n.send(n.src_node(i), n.dst_node(3), 128, 0);
        }
        // 8 × 4-flit packets through a capacity-8-root would take ~4 cycles
        // of serialization each at the top; allow generous slack but ensure
        // it's far below the 8×4×hops cost a thin root would give.
        assert!(last < 200, "fat tree root should absorb bursts, got {last}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_src_panics() {
        let n = net(Topology::LocalXbar);
        let _ = n.src_node(100);
    }

    #[test]
    fn stats_reset() {
        let mut n = net(Topology::LocalXbar);
        n.send(n.src_node(0), n.dst_node(0), 128, 0);
        assert_eq!(n.stats().packets, 1);
        n.reset_stats();
        assert_eq!(n.stats().packets, 0);
    }
}
