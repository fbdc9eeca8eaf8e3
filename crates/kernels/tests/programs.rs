//! Pins of every kernel image the quick figures and the ledger's workloads
//! build: a change to the assembler must leave each `Program` bit for bit
//! as it was.
//!
//! Each image is fingerprinted as the length and FNV-1a digest of a byte
//! stream holding its text, data, `bss_base`, `bss_size`, entry point,
//! `source_lines` and its symbols sorted by name. A mismatch prints the
//! whole fresh table: an intended change to the images is re-blessed by
//! pasting it over `PINS`.

use lrscwait_asm::Program;
use lrscwait_kernels::{
    BarrierImpl, BarrierKernel, HistImpl, HistogramKernel, LitmusKernel, LitmusScenario,
    MatmulKernel, PollerKind, QueueImpl, QueueKernel, RcuKernel,
};

const HIST_IMPLS: [HistImpl; 7] = [
    HistImpl::AmoAdd,
    HistImpl::Lrsc,
    HistImpl::LrscWait,
    HistImpl::TicketLock,
    HistImpl::TasLock,
    HistImpl::ColibriLock,
    HistImpl::McsMwaitLock,
];

const QUEUE_IMPLS: [QueueImpl; 3] = [
    QueueImpl::LrscWaitDirect,
    QueueImpl::LrscMs,
    QueueImpl::TicketRing,
];

const BARRIER_IMPLS: [BarrierImpl; 4] = [
    BarrierImpl::CentralLrsc,
    BarrierImpl::CentralLrscWait,
    BarrierImpl::TreeAmo,
    BarrierImpl::HwMmio,
];

const POLLERS: [PollerKind; 4] = [
    PollerKind::Idle,
    PollerKind::Lrsc,
    PollerKind::LrscWait,
    PollerKind::AmoAdd,
];

/// Every pinned image, labelled with the parameters that built it.
fn images() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for impl_ in HIST_IMPLS {
        // The quick fig3/fig4 sweep's ends, and the ledger's busy loop.
        for bins in [1, 1024] {
            let kernel = HistogramKernel::new(impl_, bins, 8, 256);
            out.push((format!("hist {impl_:?} bins={bins}"), kernel.program()));
        }
        let kernel = HistogramKernel::new(impl_, 1024, 512, 256).with_compute(64);
        out.push((format!("hist {impl_:?} compute=64"), kernel.program()));
    }
    // The ledger's histogram workloads at benchmark size.
    out.push((
        "ledger hist_spread_256".to_string(),
        HistogramKernel::new(HistImpl::AmoAdd, 1024, 8192, 256).program(),
    ));
    out.push((
        "ledger hist_retry_256".to_string(),
        HistogramKernel::new(HistImpl::Lrsc, 1, 96, 256).program(),
    ));
    for impl_ in QUEUE_IMPLS {
        for cores in [1, 8, 64] {
            let kernel = QueueKernel::new(impl_, 8, cores);
            out.push((format!("queue {impl_:?} cores={cores}"), kernel.program()));
        }
    }
    out.push((
        "ledger queue_sleep_256".to_string(),
        QueueKernel::new(QueueImpl::LrscWaitDirect, 640, 256).program(),
    ));
    for impl_ in BARRIER_IMPLS {
        for cores in [64, 256] {
            let kernel = BarrierKernel::new(impl_, 4, cores);
            out.push((format!("barrier {impl_:?} cores={cores}"), kernel.program()));
        }
    }
    out.push((
        "ledger barrier_wait_1024".to_string(),
        BarrierKernel::new(BarrierImpl::CentralLrscWait, 256, 1024).program(),
    ));
    for pollers in POLLERS {
        for bins in [1, 16] {
            let kernel = MatmulKernel::new(32, 4, 256, pollers).with_poll_bins(bins);
            out.push((format!("matmul {pollers:?} bins={bins}"), kernel.program()));
        }
    }
    for scenario in LitmusScenario::all() {
        for wait in [false, true] {
            let kernel = LitmusKernel::new(scenario, 4, 8).with_wait_primitives(wait);
            out.push((
                format!("litmus {} wait={wait}", scenario.name()),
                kernel.program(),
            ));
        }
    }
    for cores in [64, 256] {
        let kernel = RcuKernel::new(cores, 16, 6, 48);
        out.push((format!("rcu cores={cores}"), kernel.program()));
    }
    out
}

/// The byte stream a fingerprint digests.
fn image_bytes(p: &Program) -> Vec<u8> {
    fn put(out: &mut Vec<u8>, word: u32) {
        out.extend_from_slice(&word.to_le_bytes());
    }
    let mut out = Vec::new();
    for words in [&p.text, &p.source_lines] {
        put(&mut out, words.len() as u32);
        words.iter().for_each(|&w| put(&mut out, w));
    }
    put(&mut out, p.data.len() as u32);
    out.extend_from_slice(&p.data);
    for word in [p.bss_base, p.bss_size, p.entry] {
        put(&mut out, word);
    }
    let mut symbols: Vec<(&String, &u32)> = p.symbols.iter().collect();
    symbols.sort();
    for (name, &value) in symbols {
        out.extend_from_slice(name.as_bytes());
        out.push(0);
        put(&mut out, value);
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(label, stream length, FNV-1a)` per image, in `images()` order.
const PINS: &[(&str, usize, u64)] = &[
    ("hist AmoAdd bins=1", 504, 0x02928a9249526bba),
    ("hist AmoAdd bins=1024", 504, 0xb9555d9c7717f279),
    ("hist AmoAdd compute=64", 589, 0x2e2973c477a9fc2c),
    ("hist Lrsc bins=1", 636, 0xcbf8246c0abcbc1d),
    ("hist Lrsc bins=1024", 636, 0x1931dec4426b9886),
    ("hist Lrsc compute=64", 721, 0xdbb3b363e4a39a35),
    ("hist LrscWait bins=1", 601, 0x92e82392dac909c4),
    ("hist LrscWait bins=1024", 601, 0x74a645f9844f8565),
    ("hist LrscWait compute=64", 686, 0xbe76056edc545128),
    ("hist TicketLock bins=1", 656, 0x665b24b079adf214),
    ("hist TicketLock bins=1024", 656, 0x8c3fc95f8345e187),
    ("hist TicketLock compute=64", 741, 0xd319075f09b6a90e),
    ("hist TasLock bins=1", 702, 0x5a76fb93d5217851),
    ("hist TasLock bins=1024", 702, 0x8eba374afd63e862),
    ("hist TasLock compute=64", 787, 0x3d2d457a2850c6df),
    ("hist ColibriLock bins=1", 686, 0x9b4e93c2847ecc21),
    ("hist ColibriLock bins=1024", 686, 0x7ec8f5ea912ba552),
    ("hist ColibriLock compute=64", 771, 0x185c7d526f0746b1),
    ("hist McsMwaitLock bins=1", 773, 0x651a793075fbd182),
    ("hist McsMwaitLock bins=1024", 773, 0xe5649fb3afa016db),
    ("hist McsMwaitLock compute=64", 858, 0x7622c89d47344408),
    ("ledger hist_spread_256", 512, 0x765dc66ebf4d1f1b),
    ("ledger hist_retry_256", 636, 0x0ec380e6065567e3),
    ("queue LrscWaitDirect cores=1", 932, 0xcd3c003b4a55909a),
    ("queue LrscWaitDirect cores=8", 932, 0x802c705d01d7cd8f),
    ("queue LrscWaitDirect cores=64", 932, 0x3b493b26b6005b5a),
    ("queue LrscMs cores=1", 1330, 0x5d141944a3ef9c30),
    ("queue LrscMs cores=8", 1330, 0xffa3f55503da0309),
    ("queue LrscMs cores=64", 1330, 0x5add796f2135b4d4),
    ("queue TicketRing cores=1", 1172, 0x728c058110aab3a9),
    ("queue TicketRing cores=8", 1172, 0x12fd89c625822b58),
    ("queue TicketRing cores=64", 1172, 0xee7e12852accf20f),
    ("ledger queue_sleep_256", 932, 0x82d6ea1ac2d4abe0),
    ("barrier CentralLrsc cores=64", 888, 0x13863df9acb8fc45),
    ("barrier CentralLrsc cores=256", 888, 0x5c7721e2fc20bfe9),
    ("barrier CentralLrscWait cores=64", 939, 0x22c3f772cb3b8d46),
    ("barrier CentralLrscWait cores=256", 939, 0xecc9e6018a31f7ca),
    ("barrier TreeAmo cores=64", 967, 0x81adc8e9685fec15),
    ("barrier TreeAmo cores=256", 967, 0xe6a4a9de3cbed2a5),
    ("barrier HwMmio cores=64", 638, 0xf81890309e761f0c),
    ("barrier HwMmio cores=256", 638, 0xb74c595348171b5c),
    ("ledger barrier_wait_1024", 947, 0x54a43152b596d02f),
    ("matmul Idle bins=1", 873, 0x8f9e85056b56f53d),
    ("matmul Idle bins=16", 873, 0x2382c199c9df75a9),
    ("matmul Lrsc bins=1", 949, 0x255b3e4587c6452f),
    ("matmul Lrsc bins=16", 949, 0x7904aab78e3e897f),
    ("matmul LrscWait bins=1", 889, 0xe921527e469d6093),
    ("matmul LrscWait bins=16", 889, 0x1a02fabcb7b11497),
    ("matmul AmoAdd bins=1", 873, 0x52b770c9782f577e),
    ("matmul AmoAdd bins=16", 873, 0xa4b47d489c8387be),
    ("litmus aba wait=false", 1030, 0x07c87752f8c83c28),
    ("litmus aba wait=true", 1030, 0x788ce0d6fea09788),
    ("litmus spurious-retry wait=false", 973, 0xb1e76a047dd076b5),
    ("litmus spurious-retry wait=true", 973, 0xe30e635bcff8661d),
    ("litmus lost-wakeup wait=false", 1009, 0x40ef5d57e1bef808),
    ("litmus lost-wakeup wait=true", 1009, 0x40ef5d57e1bef808),
    ("litmus wakeup-race wait=false", 1231, 0x9b0a78119a281831),
    ("litmus wakeup-race wait=true", 1231, 0x9b0a78119a281831),
    ("litmus eviction-storm wait=false", 973, 0x3ebc81e574b74162),
    ("litmus eviction-storm wait=true", 973, 0x3ebc81e574b74162),
    ("litmus rcu-grace wait=false", 2495, 0x0ed9655500a6042a),
    ("litmus rcu-grace wait=true", 2495, 0x0ed9655500a6042a),
    ("rcu cores=64", 2519, 0xd8da2ed1fdd0c5f6),
    ("rcu cores=256", 2519, 0x3f746cd668969dfe),
];

#[test]
fn every_kernel_image_is_pinned() {
    let fresh: Vec<(String, usize, u64)> = images()
        .iter()
        .map(|(label, program)| {
            let bytes = image_bytes(program);
            (label.clone(), bytes.len(), fnv1a(&bytes))
        })
        .collect();
    let matches = fresh.len() == PINS.len()
        && fresh
            .iter()
            .zip(PINS)
            .all(|((l, n, h), (pl, pn, ph))| l == pl && n == pn && h == ph);
    if !matches {
        let table: String = fresh
            .iter()
            .map(|(l, n, h)| format!("    ({l:?}, {n}, {h:#018x}),\n"))
            .collect();
        panic!("kernel images moved; the fresh table is:\n{table}");
    }
}
