//! Differential oracle for [`Network`]: the algorithm the slab/ring/bitset
//! engine replaced — one `VecDeque` of whole flits per node, the active
//! nodes sorted and rotated every cycle — kept here as a naive model and
//! co-simulated against the engine under seeded traffic. After every cycle
//! the two must agree on everything observable.

use std::collections::VecDeque;

use lrscwait_noc::{
    MempoolTopology, Network, NetworkStats, NodeId, NodeSpec, NodeTraffic, Route, TopologyConfig,
};

type Flit = (u32, Route, u8, u64); // payload, route, hop, ready_at

struct Naive {
    specs: Vec<NodeSpec>,
    queues: Vec<VecDeque<Flit>>,
    stats: NetworkStats,
    traffic: Vec<NodeTraffic>,
}

impl Naive {
    fn try_send(&mut self, route: Route, p: u32, now: u64, extra: u32) -> bool {
        let first = route.hops()[0];
        let (spec, queue) = (self.specs[first as usize], &mut self.queues[first as usize]);
        let traffic = &mut self.traffic[first as usize];
        if queue.len() >= spec.capacity {
            self.stats.inject_stalls += 1;
            traffic.inject_stalled += 1;
            return false;
        }
        queue.push_back((
            p,
            route,
            0,
            now + u64::from(spec.latency) + u64::from(extra),
        ));
        self.stats.injected += 1;
        traffic.injected += 1;
        true
    }

    fn advance(&mut self, now: u64, out: &mut Vec<u32>) {
        let mut order: Vec<NodeId> = (0..self.queues.len() as NodeId)
            .filter(|&id| !self.queues[id as usize].is_empty())
            .collect();
        order.sort_unstable();
        let k = order.len().max(1);
        order.rotate_left(now as usize % k);
        for id in order {
            for _ in 0..self.specs[id as usize].rate {
                let Some(&(p, route, hop, ready_at)) = self.queues[id as usize].front() else {
                    break;
                };
                if ready_at > now {
                    break;
                }
                if usize::from(hop) + 1 == route.len() {
                    self.queues[id as usize].pop_front();
                    self.stats.delivered += 1;
                    self.traffic[id as usize].delivered += 1;
                    out.push(p);
                    continue;
                }
                let next = route.hops()[usize::from(hop) + 1];
                let spec = self.specs[next as usize];
                if self.queues[next as usize].len() >= spec.capacity {
                    self.stats.hol_blocks += 1;
                    self.traffic[id as usize].hol_blocked += 1;
                    break;
                }
                self.queues[id as usize].pop_front();
                self.queues[next as usize].push_back((
                    p,
                    route,
                    hop + 1,
                    now + u64::from(spec.latency),
                ));
                self.stats.hops += 1;
            }
        }
    }

    fn flits(&self) -> Vec<Flit> {
        self.queues.iter().flatten().copied().collect()
    }
}

fn flits_of(net: &Network<u32>) -> Vec<Flit> {
    let mut flits = Vec::new();
    net.for_each_flit(|&p, route, hop, ready_at| flits.push((p, route, hop, ready_at)));
    flits
}

/// Co-simulates engine and model for `cycles` cycles of seeded traffic
/// (`pick` draws a route), with chaos-style `extra` jitter, then drains.
/// The engine takes the jitter as a later injection time; the model adds
/// it to the flit's ready time. Half-way through, the engine is replaced
/// by a clone of itself, which must carry on with every flit, statistic
/// and traffic counter.
fn cosimulate(
    specs: Vec<NodeSpec>,
    cycles: u64,
    seed: u64,
    pick: &dyn Fn(usize) -> Route,
) -> NetworkStats {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rand = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut net = Network::<u32>::new(specs.clone());
    let mut model = Naive {
        queues: vec![VecDeque::new(); specs.len()],
        specs: specs.clone(),
        stats: NetworkStats::default(),
        traffic: vec![NodeTraffic::default(); specs.len()],
    };
    let (mut sent, mut out, mut out_m) = (0u32, Vec::new(), Vec::new());
    for now in 0.. {
        let draining = now >= cycles;
        if draining && net.in_flight() == 0 {
            break;
        }
        assert!(now < cycles + 100_000, "seed {seed}: traffic must drain");
        let burst = if draining { 0 } else { rand() % 12 };
        for _ in 0..burst {
            let route = pick(rand());
            let extra = if rand() % 4 == 0 {
                (rand() % 5) as u32
            } else {
                0
            };
            let accepted = net.try_send(route, sent, now + u64::from(extra)).is_ok();
            assert_eq!(
                accepted,
                model.try_send(route, sent, now, extra),
                "seed {seed} cycle {now}"
            );
            sent += 1;
        }
        net.advance(now, &mut out);
        model.advance(now, &mut out_m);
        assert_eq!(out, out_m, "seed {seed} cycle {now}: delivered payloads");
        assert!(
            net.traffic().eq(model.traffic.iter().copied()),
            "seed {seed} cycle {now}: per-node traffic"
        );
        assert_eq!(net.stats(), model.stats, "seed {seed} cycle {now}");
        let flits = model.flits();
        assert_eq!(
            flits_of(&net),
            flits,
            "seed {seed} cycle {now}: for_each_flit order"
        );
        assert_eq!(net.in_flight(), flits.len(), "seed {seed} cycle {now}");
        let next_ready = model
            .queues
            .iter()
            .filter_map(|q| q.front())
            .map(|f| f.3)
            .min();
        assert_eq!(net.next_ready_at(), next_ready, "seed {seed} cycle {now}");
        if now == cycles / 2 {
            assert!(!flits.is_empty(), "seed {seed}: the clone must carry flits");
            net = net.clone();
        }
        out.clear();
        out_m.clear();
    }
    assert_eq!(
        net.stats().delivered,
        net.stats().injected,
        "seed {seed}: all delivered"
    );
    net.stats()
}

/// The request network's node layout, as `build_request_network` has it.
fn request_specs(cfg: TopologyConfig) -> Vec<NodeSpec> {
    let (l, tiles, groups) = (cfg.request_links, cfg.num_tiles(), cfg.num_groups());
    let classes = [
        (l.bank, cfg.num_banks()),
        (l.ingress, tiles),
        (l.xlink, groups * groups),
        (l.router, groups),
        (l.egress, tiles),
    ];
    let specs: Vec<NodeSpec> = classes
        .iter()
        .flat_map(|&(spec, n)| std::iter::repeat_n(spec, n))
        .collect();
    let built: Network<u32> = MempoolTopology::new(cfg).build_request_network();
    assert_eq!(specs.len(), built.num_nodes());
    specs
}

#[test]
fn mempool_traffic_matches_the_naive_model() {
    for (cfg, cycles) in [
        (TopologyConfig::mempool(), 600),
        (TopologyConfig::mempool_scaled(1024), 300),
    ] {
        let topo = MempoolTopology::new(cfg);
        let (cores, banks) = (cfg.num_cores, cfg.num_banks());
        for seed in 1..=4u64 {
            // Three draws in four go from the first two tiles to eight
            // banks of the first: bank, ingress and egress queues fill,
            // upstream nodes head-of-line block, injections are refused.
            let stats = cosimulate(request_specs(cfg), cycles, seed, &|r| {
                let (core, bank) = if r % 4 == 0 {
                    ((r / 64) % cores, (r / 4) % banks)
                } else {
                    ((r / 64) % 8, (r / 4) % 8)
                };
                topo.request_route(core, bank)
            });
            assert!(
                stats.hol_blocks > 0 && stats.inject_stalls > 0,
                "seed {seed}: {stats:?}"
            );
        }
    }
}

#[test]
fn capacity_one_bottleneck_matches_the_naive_model() {
    // Node 1 never fills, so a flit revisiting it cannot block on itself.
    let specs = vec![NodeSpec::new(1, 1, 1), NodeSpec::new(4, 4096, 2)];
    // Through the bottleneck, straight into it, and revisiting a node.
    let routes = [
        Route::new(&[1, 0]),
        Route::new(&[0]),
        Route::new(&[1, 1, 0]),
    ];
    for seed in 1..=8u64 {
        let stats = cosimulate(specs.clone(), 200, seed, &|r| routes[r % 3]);
        assert!(
            stats.hol_blocks > 0 && stats.inject_stalls > 0,
            "seed {seed}: {stats:?}"
        );
    }
}
