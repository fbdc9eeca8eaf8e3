//! Generic backpressured store-and-forward network engine.
//!
//! A network is a set of [`NodeSpec`]-configured FIFO nodes. A message is
//! injected with a [`Route`] (a short sequence of node ids) and traverses
//! one node per `latency` cycles, subject to each node's service `rate`
//! (messages per cycle) and queue `capacity`. When the next node's queue is
//! full the message stays put and blocks everything behind it — strict
//! head-of-line blocking, which is the mechanism that lets polling traffic
//! degrade unrelated traffic (paper Fig. 5).
//!
//! Ordering guarantee: two messages injected in order with identical routes
//! are delivered in order (every node is a FIFO). The Colibri protocol
//! relies on this for its (bank → core) channels.

use crate::idset::IdSet;

/// Index of a node within a [`Network`].
pub type NodeId = u32;

/// Service parameters of one network node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeSpec {
    /// Messages forwarded per cycle.
    pub rate: u32,
    /// Queue slots; a full queue backpressures upstream.
    pub capacity: usize,
    /// Cycles a message spends in this node before it may move on.
    pub latency: u32,
}

impl NodeSpec {
    /// Creates a spec, validating the parameters.
    ///
    /// # Panics
    ///
    /// Panics when `rate` or `capacity` is zero, or `latency` is zero
    /// (zero-latency hops would allow same-cycle teleporting and break
    /// determinism).
    #[must_use]
    pub fn new(rate: u32, capacity: usize, latency: u32) -> NodeSpec {
        assert!(rate > 0, "node rate must be positive");
        assert!(capacity > 0, "node capacity must be positive");
        assert!(latency > 0, "node latency must be at least one cycle");
        NodeSpec {
            rate,
            capacity,
            latency,
        }
    }
}

/// A route of at most [`Route::MAX_HOPS`] nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    hops: [NodeId; Route::MAX_HOPS],
    len: u8,
}

impl Route {
    /// Maximum number of hops a route may have.
    pub const MAX_HOPS: usize = 6;

    /// Builds a route from a slice of node ids.
    ///
    /// # Panics
    ///
    /// Panics when `hops` is empty or longer than [`Route::MAX_HOPS`].
    #[must_use]
    pub fn new(hops: &[NodeId]) -> Route {
        assert!(!hops.is_empty(), "routes need at least one hop");
        assert!(hops.len() <= Route::MAX_HOPS, "route too long");
        let mut array = [0; Route::MAX_HOPS];
        array[..hops.len()].copy_from_slice(hops);
        Route {
            hops: array,
            len: hops.len() as u8,
        }
    }

    /// Number of hops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always false (routes have ≥ 1 hop).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The node ids of this route.
    #[must_use]
    pub fn hops(&self) -> &[NodeId] {
        &self.hops[..self.len as usize]
    }
}

/// A message in flight. It stays in one slab slot from injection to
/// delivery; a hop updates `hop` and `ready_at` in place.
#[derive(Clone, Debug)]
struct Flit<P> {
    /// `None` once delivered (the slot is then on the free list).
    payload: Option<P>,
    route: Route,
    hop: u8,
    /// Once delivered, the handle of the next free slot ([`NO_SLOT`] ends
    /// the free list).
    ready_at: u64,
}

/// The end of the free list.
const NO_SLOT: u32 = u32::MAX;

/// A node's service parameters and its FIFO: a fixed ring of `capacity`
/// slab handles at `ring[base..base + capacity]`.
#[derive(Clone, Copy, Debug)]
struct Node {
    rate: u32,
    capacity: u32,
    latency: u32,
    base: u32,
    head: u32,
    len: u32,
}

impl Node {
    /// Ring index of the front handle.
    fn front(&self) -> usize {
        (self.base + self.head) as usize
    }

    /// Drops the front handle.
    fn pop(&mut self) {
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        self.len -= 1;
    }

    /// Claims the ring index behind the back handle. The caller has
    /// checked `len < capacity`.
    fn push(&mut self) -> usize {
        let mut at = self.head + self.len;
        if at >= self.capacity {
            at -= self.capacity;
        }
        self.len += 1;
        (self.base + at) as usize
    }
}

/// Traffic counters of one node (see [`Network::traffic`]): where the
/// aggregate [`NetworkStats`] say *how much* interference a run suffered,
/// these say *where*. Each counter saturates at `u32::MAX`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Messages that entered the network at this node.
    pub injected: u32,
    /// Injection attempts refused because this node's queue was full.
    pub inject_stalled: u32,
    /// Messages that left the network at this node.
    pub delivered: u32,
    /// Head-of-line blocking occurrences at this node: its front flit
    /// could not move because the downstream queue was full.
    pub hol_blocked: u32,
}

/// Adds one to a traffic counter, saturating at `u32::MAX`.
fn count(counter: &mut u32) {
    *counter = counter.saturating_add(1);
}

/// Statistics of a network (for utilization reports and the energy model).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages injected successfully.
    pub injected: u64,
    /// Injection attempts refused because the first node was full.
    pub inject_stalls: u64,
    /// Node-to-node hop traversals completed (energy-relevant).
    pub hops: u64,
    /// Messages delivered at the end of their route.
    pub delivered: u64,
    /// Forwarding attempts blocked by a full downstream queue.
    pub hol_blocks: u64,
}

/// A backpressured store-and-forward network carrying payloads of type `P`.
///
/// # Storage
///
/// A flit is written once, at injection, into a slab slot, updated in
/// place by every hop (`hop`, `ready_at`) and read once, at delivery; what
/// a hop moves from one node's ring to the next is its `u32` slab handle.
/// The rings are fixed slices of one arena — every push is preceded by a
/// capacity check, so a ring never grows — and the slab grows to the
/// high-water mark of flits in flight, recycling slots through a free
/// list threaded through the vacant slots. The per-node traffic counters
/// are an array of their own: inside `Node` they would take a 1024-core
/// request network's node array past glibc's 128 KiB mmap threshold.
///
/// # Processing order
///
/// [`advance`](Network::advance) visits the nodes that hold a message in
/// ascending node id rotated by `now % active_count` — the determinism
/// contract. The active set is an [`IdSet`], whose iteration order *is*
/// ascending id, so the order needs no sorting. The set is copied,
/// rotated, into a reused visit list first, because a visit inserts the
/// downstream node into the set it walks.
#[derive(Debug)]
pub struct Network<P> {
    nodes: Vec<Node>,
    /// Handle rings of all nodes, back to back.
    ring: Vec<u32>,
    slab: Vec<Flit<P>>,
    /// Head of the free list: the last delivered slab slot, reused before
    /// the slab grows, or [`NO_SLOT`].
    free: u32,
    /// Nodes with a non-empty queue.
    active: IdSet,
    /// Reusable rotated snapshot of `active` for `advance`
    /// (allocation-free steady state).
    scratch: Vec<NodeId>,
    stats: NetworkStats,
    /// Per-node traffic counters, by node id.
    traffic: Vec<NodeTraffic>,
}

/// Field by field, so that [`clone_from`](Clone::clone_from) reuses this
/// network's buffers instead of reallocating them.
impl<P: Clone> Clone for Network<P> {
    fn clone(&self) -> Network<P> {
        Network {
            nodes: self.nodes.clone(),
            ring: self.ring.clone(),
            slab: self.slab.clone(),
            free: self.free,
            active: self.active.clone(),
            scratch: self.scratch.clone(),
            stats: self.stats,
            traffic: self.traffic.clone(),
        }
    }

    fn clone_from(&mut self, source: &Network<P>) {
        self.nodes.clone_from(&source.nodes);
        self.ring.clone_from(&source.ring);
        self.slab.clone_from(&source.slab);
        self.free = source.free;
        self.active.clone_from(&source.active);
        self.scratch.clone_from(&source.scratch);
        self.stats = source.stats;
        self.traffic.clone_from(&source.traffic);
    }
}

impl<P> Network<P> {
    /// Creates a network with the given node specifications. Node ids are
    /// indices into `specs`.
    ///
    /// # Panics
    ///
    /// Panics when the capacities do not sum to a 32-bit ring index.
    #[must_use]
    pub fn new(specs: Vec<NodeSpec>) -> Network<P> {
        let mut base = 0u32;
        let nodes = specs
            .iter()
            .map(|spec| {
                let capacity = u32::try_from(spec.capacity).expect("node capacity fits in 32 bits");
                let node = Node {
                    rate: spec.rate,
                    capacity,
                    latency: spec.latency,
                    base,
                    head: 0,
                    len: 0,
                };
                base = base
                    .checked_add(capacity)
                    .expect("total capacity fits in 32 bits");
                node
            })
            .collect::<Vec<_>>();
        let n = nodes.len();
        Network {
            nodes,
            // Zeroed pages stay untouched (and out of the resident set)
            // until a ring is first used.
            ring: vec![0; base as usize],
            // One flit per node, not per queue slot: traffic rarely holds
            // more in flight, and the slab grows if it does. Reserving the
            // summed capacity (megabytes at 1024 cores) would, on release,
            // raise glibc's dynamic mmap threshold for the whole process.
            slab: Vec::with_capacity(n),
            free: NO_SLOT,
            active: IdSet::new(n),
            scratch: Vec::with_capacity(n),
            stats: NetworkStats::default(),
            traffic: vec![NodeTraffic::default(); n],
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Per-node traffic counters, in node id order. Each sums (below
    /// saturation) to its [`NetworkStats`] counterpart. A clone of the
    /// network carries them with its flits and statistics.
    pub fn traffic(&self) -> impl ExactSizeIterator<Item = NodeTraffic> + '_ {
        self.traffic.iter().copied()
    }

    /// Nodes holding at least one message: the nodes the next
    /// [`advance`](Network::advance) visits.
    #[must_use]
    pub fn active_nodes(&self) -> usize {
        self.active.len()
    }

    /// Total messages currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.active
            .iter()
            .map(|id| self.nodes[id as usize].len as usize)
            .sum()
    }

    /// Stores a flit in a recycled or new slab slot and queues its handle
    /// at the back of its route's first node, whose capacity the caller
    /// has checked.
    fn enqueue(&mut self, payload: P, route: Route, ready_at: u64) {
        let flit = Flit {
            payload: Some(payload),
            route,
            hop: 0,
            ready_at,
        };
        let handle = if self.free == NO_SLOT {
            self.slab.push(flit);
            (self.slab.len() - 1) as u32
        } else {
            let handle = self.free;
            self.free = self.slab[handle as usize].ready_at as u32;
            self.slab[handle as usize] = flit;
            handle
        };
        let id = route.hops[0];
        let node = &mut self.nodes[id as usize];
        if node.len == 0 {
            self.active.insert(id);
        }
        self.ring[node.push()] = handle;
    }

    /// Visits every in-flight flit in a canonical order — ascending node
    /// id, each node's queue front to back: the order a machine's state
    /// bytes list them in.
    pub fn for_each_flit<F>(&self, mut visit: F)
    where
        F: FnMut(&P, Route, u8, u64),
    {
        for id in self.active.iter() {
            let mut node = self.nodes[id as usize];
            while node.len > 0 {
                let flit = &self.slab[self.ring[node.front()] as usize];
                let payload = flit.payload.as_ref().expect("queued flit holds a payload");
                visit(payload, flit.route, flit.hop, flit.ready_at);
                node.pop();
            }
        }
    }

    /// Earliest cycle at which any queued flit becomes movable, or `None`
    /// when nothing is in flight.
    ///
    /// Per-node FIFOs assign non-decreasing `ready_at` values, so each
    /// node's next event is its front flit; the network's next event is the
    /// minimum over active nodes. A caller observing
    /// `next_ready_at() > now` knows [`advance`](Network::advance) is a
    /// no-op (no deliveries, no hops, no statistics changes) for every
    /// cycle strictly before that time — the contract the simulator's
    /// cycle fast-forwarding relies on.
    #[must_use]
    pub fn next_ready_at(&self) -> Option<u64> {
        self.active
            .iter()
            .map(|id| self.slab[self.ring[self.nodes[id as usize].front()] as usize].ready_at)
            .min()
    }

    /// Attempts to inject `payload` along `route` at time `now`: the flit
    /// may leave the first node `latency` cycles after `now`, and `now`
    /// feeds nothing else. A caller adding injection latency (chaos NoC
    /// jitter) passes a later `now`. FIFO order within the node holds
    /// either way — a later flit cannot overtake the queue front, so
    /// [`next_ready_at`](Network::next_ready_at) (the front flit) remains
    /// the binding fast-forward bound.
    ///
    /// # Errors
    ///
    /// Returns the payload back when the first node's queue is full — the
    /// caller must stall and retry (backpressure reaches the source).
    pub fn try_send(&mut self, route: Route, payload: P, now: u64) -> Result<(), P> {
        let first = route.hops()[0];
        let node = &self.nodes[first as usize];
        let traffic = &mut self.traffic[first as usize];
        if node.len >= node.capacity {
            count(&mut traffic.inject_stalled);
            self.stats.inject_stalls += 1;
            return Err(payload);
        }
        count(&mut traffic.injected);
        let ready_at = now + u64::from(node.latency);
        self.enqueue(payload, route, ready_at);
        self.stats.injected += 1;
        Ok(())
    }

    /// Advances the network by one cycle, appending delivered payloads to
    /// `out`.
    ///
    /// Nodes are processed in ascending id order *rotated by the cycle
    /// number*: rotation provides round-robin fairness between producers
    /// competing for a full downstream queue (e.g. remote ingress vs. local
    /// cores at a saturated bank), which real fabrics implement with
    /// round-robin arbiters. Without it, a retry storm can starve one
    /// producer forever.
    pub fn advance(&mut self, now: u64, out: &mut Vec<P>) {
        // The cycle's visit list is fixed up front: a node that receives
        // its first flit during this call joins `active` but is not
        // visited (its flit is not ready before `now + latency` anyway).
        let len = self.active.len() as u64;
        if len == 0 {
            return;
        }
        let mut order = std::mem::take(&mut self.scratch);
        self.active.rotated_into((now % len) as usize, &mut order);
        for &id in &order {
            self.visit(id, now, out);
        }
        self.scratch = order;
    }

    /// Forwards up to `rate` ready flits from the front of node `id`'s
    /// queue, then settles its membership of `active`.
    ///
    /// A visit pops one flit per move and nothing else pops this node, so
    /// the moves are bounded by `min(rate, len)` up front. (A route that
    /// revisits `id` pushes behind the front, and that flit is not ready
    /// before `now + latency`.)
    #[inline(always)]
    fn visit(&mut self, id: NodeId, now: u64, out: &mut Vec<P>) {
        // `nodes[id]` is re-read through the index at every use: a route
        // may revisit `id`, so `nodes[next]` can alias it. (A local copy
        // written back after the loop also costs a store-forwarding stall
        // per visit.)
        let at = id as usize;
        let moves = self.nodes[at].rate.min(self.nodes[at].len);
        for _ in 0..moves {
            let handle = self.ring[self.nodes[at].front()];
            let flit = &mut self.slab[handle as usize];
            if flit.ready_at > now {
                break; // strict FIFO: later flits wait behind it
            }
            let next_hop = usize::from(flit.hop) + 1;
            if next_hop == flit.route.len() {
                let payload = flit.payload.take();
                flit.ready_at = u64::from(self.free);
                self.free = handle;
                self.stats.delivered += 1;
                count(&mut self.traffic[at].delivered);
                out.push(payload.expect("queued flit holds a payload"));
            } else {
                let next = flit.route.hops[next_hop];
                let next_node = &mut self.nodes[next as usize];
                if next_node.len >= next_node.capacity {
                    self.stats.hol_blocks += 1;
                    count(&mut self.traffic[at].hol_blocked);
                    break; // head-of-line blocking
                }
                flit.hop = next_hop as u8;
                flit.ready_at = now + u64::from(next_node.latency);
                self.active.insert(next);
                self.ring[next_node.push()] = handle;
                self.stats.hops += 1;
            }
            self.nodes[at].pop();
        }
        self.active.set(id, self.nodes[at].len != 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_node_net() -> Network<u32> {
        Network::new(vec![NodeSpec::new(1, 2, 1)])
    }

    #[test]
    fn delivers_after_latency() {
        let mut net = single_node_net();
        let route = Route::new(&[0]);
        net.try_send(route, 42, 0).unwrap();
        let mut out = Vec::new();
        net.advance(0, &mut out);
        assert!(out.is_empty(), "latency 1: not ready at cycle 0");
        net.advance(1, &mut out);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn rate_limits_throughput() {
        let mut net = Network::<u32>::new(vec![NodeSpec::new(1, 8, 1)]);
        let route = Route::new(&[0]);
        for i in 0..4 {
            net.try_send(route, i, 0).unwrap();
        }
        let mut out = Vec::new();
        for cycle in 1..=4 {
            let before = out.len();
            net.advance(cycle, &mut out);
            assert_eq!(out.len() - before, 1, "rate 1 delivers one per cycle");
        }
        assert_eq!(out, vec![0, 1, 2, 3], "FIFO order");
    }

    #[test]
    fn capacity_backpressures_source() {
        let mut net = single_node_net();
        let route = Route::new(&[0]);
        net.try_send(route, 1, 0).unwrap();
        net.try_send(route, 2, 0).unwrap();
        assert_eq!(net.try_send(route, 3, 0), Err(3), "queue of 2 is full");
        assert_eq!(net.stats().inject_stalls, 1);
    }

    #[test]
    fn two_hop_route_accumulates_latency() {
        // Node 0 = downstream (processed first), node 1 = upstream.
        let mut net = Network::<u32>::new(vec![
            NodeSpec::new(4, 4, 2), // final hop, latency 2
            NodeSpec::new(4, 4, 1), // first hop, latency 1
        ]);
        let route = Route::new(&[1, 0]);
        net.try_send(route, 7, 0).unwrap();
        let mut out = Vec::new();
        // cycle 1: leaves node 1, enters node 0 with ready_at 3.
        net.advance(1, &mut out);
        assert!(out.is_empty());
        net.advance(2, &mut out);
        assert!(out.is_empty());
        net.advance(3, &mut out);
        assert_eq!(out, vec![7], "1 + 2 cycles of latency");
        assert_eq!(net.stats().hops, 1);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn hol_blocking_stalls_upstream() {
        // Downstream node with capacity 1 and rate 1; upstream feeds it.
        let mut net = Network::<u32>::new(vec![
            NodeSpec::new(1, 1, 1), // node 0: bottleneck
            NodeSpec::new(4, 8, 1), // node 1: upstream
        ]);
        let route = Route::new(&[1, 0]);
        for i in 0..4 {
            net.try_send(route, i, 0).unwrap();
        }
        let mut out = Vec::new();
        // Upstream can move only one flit into the bottleneck per cycle and
        // only when it has space; deliveries are serialized.
        for cycle in 1..=20 {
            net.advance(cycle, &mut out);
            if out.len() == 4 {
                break;
            }
        }
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(net.stats().hol_blocks > 0, "upstream must have blocked");
    }

    #[test]
    fn per_route_fifo_preserved_under_load() {
        let mut net = Network::<(u8, u32)>::new(vec![
            NodeSpec::new(2, 4, 1),
            NodeSpec::new(1, 2, 1),
            NodeSpec::new(4, 16, 1),
        ]);
        let ra = Route::new(&[2, 1, 0]);
        let rb = Route::new(&[2, 0]);
        let mut now = 0;
        let mut sent_a = 0;
        let mut sent_b = 0;
        let mut out = Vec::new();
        while sent_a < 50 || sent_b < 50 {
            if sent_a < 50 && net.try_send(ra, (0, sent_a), now).is_ok() {
                sent_a += 1;
            }
            if sent_b < 50 && net.try_send(rb, (1, sent_b), now).is_ok() {
                sent_b += 1;
            }
            now += 1;
            net.advance(now, &mut out);
        }
        for _ in 0..200 {
            now += 1;
            net.advance(now, &mut out);
        }
        let a_seq: Vec<u32> = out
            .iter()
            .filter(|(s, _)| *s == 0)
            .map(|&(_, i)| i)
            .collect();
        let b_seq: Vec<u32> = out
            .iter()
            .filter(|(s, _)| *s == 1)
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(a_seq, (0..50).collect::<Vec<_>>(), "route A FIFO");
        assert_eq!(b_seq, (0..50).collect::<Vec<_>>(), "route B FIFO");
    }

    #[test]
    fn next_ready_at_tracks_front_flits() {
        let mut net = Network::<u32>::new(vec![
            NodeSpec::new(4, 4, 3), // final hop, latency 3
            NodeSpec::new(4, 4, 5), // first hop, latency 5
        ]);
        assert_eq!(net.next_ready_at(), None, "idle network has no events");
        net.try_send(Route::new(&[1, 0]), 7, 10).unwrap();
        assert_eq!(net.next_ready_at(), Some(15), "injection at 10, latency 5");
        let mut out = Vec::new();
        for cycle in 11..15 {
            net.advance(cycle, &mut out);
            assert!(out.is_empty(), "nothing moves before ready_at");
        }
        net.advance(15, &mut out);
        assert!(out.is_empty(), "hopped, not yet delivered");
        assert_eq!(net.next_ready_at(), Some(18), "second hop adds latency 3");
        net.advance(18, &mut out);
        assert_eq!(out, vec![7]);
        assert_eq!(net.next_ready_at(), None, "drained network has no events");
    }

    #[test]
    fn next_ready_at_is_minimum_over_nodes() {
        let mut net = Network::<u32>::new(vec![NodeSpec::new(1, 4, 2), NodeSpec::new(1, 4, 9)]);
        net.try_send(Route::new(&[1]), 1, 0).unwrap();
        net.try_send(Route::new(&[0]), 2, 0).unwrap();
        assert_eq!(net.next_ready_at(), Some(2), "min(2, 9)");
        let mut out = Vec::new();
        net.advance(2, &mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(net.next_ready_at(), Some(9));
    }

    #[test]
    fn advance_is_observably_idle_before_next_ready_at() {
        // The fast-forward contract: skipping advance calls strictly before
        // next_ready_at changes neither deliveries nor statistics.
        let mut net = Network::<u32>::new(vec![NodeSpec::new(1, 4, 8)]);
        net.try_send(Route::new(&[0]), 3, 0).unwrap();
        let before = net.stats();
        let mut out = Vec::new();
        for cycle in 1..8 {
            net.advance(cycle, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(net.stats(), before, "no stats drift while waiting");
        assert_eq!(net.in_flight(), 1);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn zero_latency_rejected() {
        let _ = NodeSpec::new(1, 1, 0);
    }

    #[test]
    #[should_panic(expected = "route too long")]
    fn overlong_route_rejected() {
        let _ = Route::new(&[0, 1, 2, 3, 4, 5, 6]);
    }
}
