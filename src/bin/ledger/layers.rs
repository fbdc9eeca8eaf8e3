//! Layer probes: the cost of one unit of work in each crate, measured from
//! outside by timing calls into its public functions.
//!
//! Every probe is a fixed amount of work (never time-adaptive) repeated
//! [`Scale::reps`] times after one discarded warm-up; the value is the best
//! repetition. `--seed` drives the probe inputs — the synthetic program the
//! `asm`/`isa`/`sim` build probes chew on, the addresses of the adapter
//! probes, the routes of the NoC probes and the harness interleavings — so
//! the same seed gives the same inputs and the exact counts repeat.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use lrscwait_core::harness::{Harness, SplitMix64};
use lrscwait_core::{MapStorage, MemRequest, MemResponse, RmwOp, SyncArch};
use lrscwait_isa::{Instr, MicroOp};
use lrscwait_noc::{MempoolTopology, Network, Route, TopologyConfig};
use lrscwait_sim::cpu::{Action, Core};
use lrscwait_sim::{CoreTiming, DecodedProgram, Machine, SimConfig, Translation};
use lrscwait_trace::{OpKind, TraceEvent, Tracer};

use crate::catalog::{ARCHS, CHAIN_DEPTHS};
use crate::host;
use crate::trace::CountingSink;

/// How much work a probe does.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Timed repetitions per probe (one more is run first and discarded).
    pub reps: usize,
    /// Divisor applied to every probe's work size.
    pub divisor: u64,
}

impl Scale {
    /// The benchmark size: each probe repetition takes 5–40 ms on the
    /// reference host, all probes together about 8 s.
    pub const FULL: Scale = Scale {
        reps: 5,
        divisor: 1,
    };
    /// `--smoke`: one short repetition, to exercise the code paths.
    pub const SMOKE: Scale = Scale {
        reps: 1,
        divisor: 64,
    };

    fn size(self, full: u64) -> u64 {
        (full / self.divisor).max(1)
    }
}

/// Best-of-reps nanoseconds per unit; `work` returns the units it did.
fn best_ns_per_unit(scale: Scale, mut work: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..=scale.reps {
        let started = Instant::now();
        let units = work();
        let ns = started.elapsed().as_nanos() as f64 / units.max(1) as f64;
        if rep > 0 {
            best = best.min(ns);
        }
    }
    best
}

/// A straight-line-with-branches program of `instrs` instructions drawn
/// from `seed`. It is only assembled, decoded, lowered and translated —
/// never executed — so its control flow need not terminate.
fn synthetic_source(seed: u64, instrs: u64) -> String {
    const REGS: [&str; 12] = [
        "t0", "t1", "t2", "t3", "t4", "a0", "a1", "a2", "a3", "s2", "s3", "s4",
    ];
    let mut rng = SplitMix64::new(seed);
    let mut reg = move || REGS[rng.below(REGS.len())];
    let mut pick = SplitMix64::new(seed ^ 0x5EED);
    let mut src = String::from("_start:\n");
    for i in 0..instrs {
        if i % 16 == 0 {
            src.push_str(&format!("L{}:\n", i / 16));
        }
        let (rd, ra, rb) = (reg(), reg(), reg());
        let line = match pick.below(10) {
            0 => format!("add {rd}, {ra}, {rb}"),
            1 => format!("xor {rd}, {ra}, {rb}"),
            2 => format!("mul {rd}, {ra}, {rb}"),
            3 => format!("slli {rd}, {ra}, {}", pick.below(31) + 1),
            4 | 5 => format!("addi {rd}, {ra}, {}", pick.below(2048)),
            6 => format!("lw {rd}, {}({ra})", 4 * pick.below(64)),
            7 => format!("sw {rd}, {}({ra})", 4 * pick.below(64)),
            8 => format!("amoadd.w {rd}, {ra}, ({rb})"),
            _ => format!("bne {ra}, {rb}, L{}", i / 16),
        };
        src.push_str("    ");
        src.push_str(&line);
        src.push('\n');
    }
    src.push_str("    ecall\n");
    src
}

/// `asm`, `isa` and the `sim` build steps, on the synthetic program.
fn build_probes(seed: u64, scale: Scale, out: &mut Vec<(String, f64)>) -> Arc<DecodedProgram> {
    let source = synthetic_source(seed, scale.size(4096));
    let program = lrscwait_asm::assemble(&source).expect("the synthetic program assembles");
    let words = program.text.len() as u64;
    let passes = scale.size(128);

    let ns = best_ns_per_unit(scale, || {
        let assembled = lrscwait_asm::assemble(black_box(&source)).expect("assembles");
        black_box(assembled.text.len()) as u64
    });
    out.push(("asm.assemble_ns_per_instr".into(), ns));

    let ns = best_ns_per_unit(scale, || {
        for _ in 0..passes {
            for &word in &program.text {
                let _ = black_box(lrscwait_isa::decode(black_box(word)));
            }
        }
        passes * words
    });
    out.push(("isa.decode_ns_per_word".into(), ns));

    let instrs: Vec<Instr> = program
        .text
        .iter()
        .map(|&w| lrscwait_isa::decode(w).expect("assembled words decode"))
        .collect();
    let ns = best_ns_per_unit(scale, || {
        for _ in 0..passes {
            for (i, instr) in instrs.iter().enumerate() {
                let pc = program.text_base + 4 * i as u32;
                black_box(MicroOp::lower(
                    black_box(instr),
                    pc,
                    program.text_base,
                    words as u32,
                ));
            }
        }
        passes * words
    });
    out.push(("isa.uop_lower_ns_per_instr".into(), ns));

    let passes = scale.size(32);
    let ns = best_ns_per_unit(scale, || {
        for _ in 0..passes {
            black_box(Machine::decode(black_box(&program)).expect("decodes"));
        }
        passes * words
    });
    out.push(("sim.decode_program_ns_per_instr".into(), ns));

    let decoded = Machine::decode(&program).expect("decodes");
    let ns = best_ns_per_unit(scale, || {
        for _ in 0..passes {
            black_box(Translation::new(black_box(&decoded)));
        }
        passes * words
    });
    out.push(("sim.translate.build_ns_per_instr".into(), ns));
    decoded
}

fn machine_config(cores: usize) -> SimConfig {
    SimConfig::builder()
        .mempool_cores(cores)
        .arch(SyncArch::Colibri { queues: 4 })
        .build()
        .expect("the MemPool geometries are valid")
}

/// `Machine::with_decoded` (and the drop that follows) on both geometries.
fn machine_probes(decoded: &Arc<DecodedProgram>, scale: Scale, out: &mut Vec<(String, f64)>) {
    for (cores, builds) in [(256, 16), (1024, 4)] {
        let config = machine_config(cores);
        let builds = scale.size(builds);
        let ns = best_ns_per_unit(scale, || {
            for _ in 0..builds {
                black_box(Machine::with_decoded(config, Arc::clone(decoded)).expect("builds"));
            }
            builds
        });
        out.push((format!("sim.machine.build_us.c{cores}"), ns / 1e3));
    }
}

/// Runs `source` to its `ecall` through `Core::execute` alone (no machine,
/// no memory system) and returns ns per retired instruction.
fn execute_probe(source: &str, scale: Scale) -> f64 {
    let program = lrscwait_asm::assemble(source).expect("the probe program assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let timing = CoreTiming::default();
    best_ns_per_unit(scale, || {
        let mut core = Core::new(0, decoded.entry);
        let mut now = 0;
        loop {
            match core.execute(&decoded, now, &timing) {
                Ok(Action::Done) => now = core.ready_at,
                Ok(Action::Halt) => break,
                other => unreachable!("the probe program only computes: {other:?}"),
            }
        }
        black_box(core.regs);
        core.stats.instret
    })
}

/// `sim.cpu`: the histogram kernel's `mix_loop` body (long ALU blocks) and
/// its backoff countdown (two-instruction blocks ending in a taken branch).
fn cpu_probes(seed: u64, scale: Scale, out: &mut Vec<(String, f64)>) {
    let alu = format!(
        "_start:\n    li s4, {}\n    li t5, {}\nmix_loop:\n    li t0, 1664525\n    \
         mul s4, s4, t0\n    li t1, 1013904223\n    add s4, s4, t1\n    addi t5, t5, -1\n    \
         bnez t5, mix_loop\n    ecall\n",
        seed as u32 | 1,
        scale.size(400_000)
    );
    out.push((
        "sim.cpu.execute_ns_per_instr.alu".into(),
        execute_probe(&alu, scale),
    ));
    let branchy = format!(
        "_start:\n    li t6, {}\nbackoff:\n    addi t6, t6, -1\n    bnez t6, backoff\n    ecall\n",
        scale.size(1_500_000)
    );
    out.push((
        "sim.cpu.execute_ns_per_instr.branchy".into(),
        execute_probe(&branchy, scale),
    ));
}

/// Direct `SyncAdapter::handle` calls on `MapStorage`, uncontended.
fn handle_probes(seed: u64, scale: Scale, out: &mut Vec<(String, f64)>) {
    let mut rng = SplitMix64::new(seed);
    let targets: Vec<(u32, u32)> = (0..scale.size(200_000))
        .map(|_| (rng.below(256) as u32, 4 * rng.below(64) as u32))
        .collect();
    for (key, arch) in ARCHS {
        let mut probe = |op: &str, first: fn(u32) -> MemRequest, second: Option<fn(u32) -> _>| {
            let ns = best_ns_per_unit(scale, || {
                let mut adapter = arch.build(256);
                let mut mem = MapStorage::new();
                let mut responses = Vec::new();
                for &(core, addr) in &targets {
                    adapter.handle(core, &first(addr), &mut mem, &mut responses);
                    if let Some(second) = second {
                        adapter.handle(core, &second(addr), &mut mem, &mut responses);
                    }
                    black_box(&responses);
                    responses.clear();
                }
                targets.len() as u64
            });
            out.push((format!("core.{key}.handle_ns.{op}"), ns));
        };
        probe(
            "amo",
            |addr| MemRequest::Amo {
                addr,
                op: RmwOp::Add,
                operand: 1,
            },
            None,
        );
        probe(
            "lrsc_pair",
            |addr| MemRequest::Lr { addr },
            Some(|addr| MemRequest::Sc { addr, value: 1 }),
        );
        probe(
            "wait_pair",
            |addr| MemRequest::LrWait { addr },
            Some(|addr| MemRequest::ScWait { addr, value: 1 }),
        );
    }
}

/// What one chain run did.
struct ChainCounts {
    /// Requests the cores issued.
    requests: u64,
    /// Messages the harness delivered (requests, responses, Qnode traffic).
    messages: u64,
    /// Read-modify-write sequences that committed.
    handoffs: u64,
}

/// `depth` cores increment one word through `Harness` — `lr`/`sc` with
/// immediate retry on the LRSC baseline, `lrwait`/`scwait` elsewhere —
/// until they have issued `budget` requests between them.
fn chain(arch: SyncArch, depth: usize, budget: u64, seed: u64) -> ChainCounts {
    const ADDR: u32 = 0x40;
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum State {
        Idle,
        Loading,
        Storing,
    }
    let wait = arch.supports_wait();
    let mut harness = Harness::new(arch.build(depth), depth);
    let mut rng = SplitMix64::new(seed);
    let mut states = vec![State::Idle; depth];
    let mut counts = ChainCounts {
        requests: 0,
        messages: 0,
        handoffs: 0,
    };
    while counts.requests < budget {
        for (core, state) in states.iter_mut().enumerate() {
            let id = core as u32;
            if *state == State::Idle {
                let load = if wait {
                    MemRequest::LrWait { addr: ADDR }
                } else {
                    MemRequest::Lr { addr: ADDR }
                };
                harness.send(id, load);
                counts.requests += 1;
                *state = State::Loading;
            }
            while let Some(response) = harness.take_delivered(id) {
                match (*state, response) {
                    (
                        State::Loading,
                        MemResponse::Wait { value, .. } | MemResponse::Lr { value },
                    ) => {
                        let value = value.wrapping_add(1);
                        let store = if wait {
                            MemRequest::ScWait { addr: ADDR, value }
                        } else {
                            MemRequest::Sc { addr: ADDR, value }
                        };
                        harness.send(id, store);
                        counts.requests += 1;
                        *state = State::Storing;
                    }
                    (
                        State::Storing,
                        MemResponse::ScWait { success } | MemResponse::Sc { success },
                    ) => {
                        counts.handoffs += u64::from(success);
                        *state = State::Idle;
                    }
                    (_, other) => unreachable!("core {core} got {other:?} out of sequence"),
                }
            }
        }
        counts.messages += u64::from(harness.step(&mut rng));
    }
    assert!(
        harness.violations().is_empty(),
        "protocol invariant broken in the chain probe: {:?}",
        harness.violations()
    );
    counts
}

/// `core` under contention: ns per core-issued request at each depth, and
/// Colibri's message cost per hand-off at the deepest.
fn chain_probes(seed: u64, scale: Scale, out: &mut Vec<(String, f64)>) {
    let budget = scale.size(16_384);
    for (key, arch) in ARCHS {
        for depth in CHAIN_DEPTHS {
            let ns = best_ns_per_unit(scale, || chain(arch, depth, budget, seed).requests);
            out.push((format!("core.{key}.chain_ns_per_req.d{depth}"), ns));
        }
    }
    let counts = chain(SyncArch::Colibri { queues: 4 }, 256, budget, seed);
    out.push((
        "core.colibri4.msgs_per_handoff".into(),
        counts.messages as f64 / counts.handoffs.max(1) as f64,
    ));
}

/// Totals of one NoC fill-and-drain probe.
struct NocTotals {
    drain_ns: f64,
    fill_ns: f64,
    sends: u64,
    hops: u64,
    hol_blocks: u64,
}

/// Fills the request network of `cores` cores through `try_send` until
/// every source refuses, then advances it until it is empty; `rounds`
/// times. `hotspot` sends everything to one bank, otherwise destinations
/// are drawn uniformly.
fn noc_rounds(cores: usize, hotspot: bool, rounds: u64, seed: u64) -> NocTotals {
    const MAX_PER_CORE: usize = 8;
    let topology = MempoolTopology::new(TopologyConfig::mempool_scaled(cores));
    let banks = topology.config().num_banks();
    let mut rng = SplitMix64::new(seed);
    let hot_bank = rng.below(banks);
    let routes: Vec<Route> = (0..cores * MAX_PER_CORE)
        .map(|i| {
            let bank = if hotspot { hot_bank } else { rng.below(banks) };
            topology.request_route(i % cores, bank)
        })
        .collect();
    let mut net: Network<u32> = topology.build_request_network();
    let mut delivered = Vec::new();
    let mut totals = NocTotals {
        drain_ns: 0.0,
        fill_ns: 0.0,
        sends: 0,
        hops: 0,
        hol_blocks: 0,
    };
    let mut now = 0u64;
    for _ in 0..rounds {
        let before = net.stats();
        let started = Instant::now();
        for (i, &route) in routes.iter().enumerate() {
            let _ = black_box(net.try_send(route, i as u32, now));
        }
        totals.fill_ns += started.elapsed().as_nanos() as f64;
        totals.sends += routes.len() as u64;
        let in_flight = net.stats().injected - before.injected;

        let started = Instant::now();
        let mut arrived = 0;
        while arrived < in_flight {
            now += 1;
            net.advance(now, &mut delivered);
            arrived += delivered.len() as u64;
            delivered.clear();
        }
        totals.drain_ns += started.elapsed().as_nanos() as f64;
        let after = net.stats();
        totals.hops += after.hops - before.hops;
        totals.hol_blocks += after.hol_blocks - before.hol_blocks;
    }
    totals
}

/// `noc`: `advance` per flit-hop on both geometries and both patterns,
/// `try_send`, and `advance` on an empty network.
fn noc_probes(seed: u64, scale: Scale, out: &mut Vec<(String, f64)>) {
    for (cores, rounds) in [(256usize, 96u64), (1024, 24)] {
        let rounds = scale.size(rounds);
        for (pattern, hotspot) in [("uniform", false), ("hotspot", true)] {
            let mut best: Option<NocTotals> = None;
            for rep in 0..=scale.reps {
                let totals = noc_rounds(cores, hotspot, rounds, seed);
                if rep > 0 && best.as_ref().is_none_or(|b| totals.drain_ns < b.drain_ns) {
                    best = Some(totals);
                }
            }
            let best = best.expect("at least one timed repetition");
            out.push((
                format!("noc.advance_ns_per_hop.c{cores}.{pattern}"),
                best.drain_ns / best.hops.max(1) as f64,
            ));
            if hotspot {
                out.push((
                    format!("noc.hol_block_per_hop.c{cores}.hotspot"),
                    best.hol_blocks as f64 / best.hops.max(1) as f64,
                ));
            } else if cores == 256 {
                out.push((
                    "noc.try_send_ns.c256".into(),
                    best.fill_ns / best.sends as f64,
                ));
            }
        }
        let topology = MempoolTopology::new(TopologyConfig::mempool_scaled(cores));
        let mut net: Network<u32> = topology.build_request_network();
        let mut delivered = Vec::new();
        let calls = scale.size(2_000_000);
        let ns = best_ns_per_unit(scale, || {
            for now in 0..calls {
                black_box(&mut net).advance(now, &mut delivered);
            }
            calls
        });
        out.push((format!("noc.idle_advance_ns.c{cores}"), ns));
    }
}

/// `trace`: one `Tracer::emit` into a sink that only counts.
fn trace_probe(scale: Scale, out: &mut Vec<(String, f64)>) {
    let events = scale.size(2_000_000);
    let ns = best_ns_per_unit(scale, || {
        let mut tracer = Tracer::sink(Box::new(CountingSink::default()));
        for i in 0..events {
            black_box(&mut tracer).emit(i, || TraceEvent::Park {
                core: black_box(i as u32),
                cause: OpKind::LrWait,
            });
        }
        black_box(&tracer);
        events
    });
    out.push(("trace.emit_ns_per_event".into(), ns));
}

/// Resident-set growth of building one 1024-core machine.
fn machine_rss_mib() -> f64 {
    let program = lrscwait_asm::assemble("_start:\n    ecall\n").expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let before = host::rss_mib();
    let machine = Machine::with_decoded(machine_config(1024), decoded).expect("builds");
    let after = host::rss_mib();
    drop(black_box(machine));
    match (before, after) {
        (Some(before), Some(after)) => (after - before).max(0.0),
        _ => f64::NAN,
    }
}

/// Runs every workload-independent probe and returns `(metric, value)`
/// pairs. Must run before anything else allocates much: the first probe
/// reads the resident-set growth of one 1024-core machine.
pub fn run_all(seed: u64, scale: Scale) -> Vec<(String, f64)> {
    let mut out = vec![("sim.machine.rss_mib.c1024".into(), machine_rss_mib())];

    let decoded = build_probes(seed, scale, &mut out);
    machine_probes(&decoded, scale, &mut out);
    cpu_probes(seed, scale, &mut out);
    handle_probes(seed, scale, &mut out);
    chain_probes(seed, scale, &mut out);
    noc_probes(seed, scale, &mut out);
    trace_probe(scale, &mut out);
    out
}
