//! Fig. 6 — concurrent queue throughput for 1…256 cores: LRSCwait-owned
//! queue on Colibri, Michael–Scott queue on LRSC, ticket-lock ring queue.
//! The shaded fairness band (slowest/fastest core) is reported alongside.
//!
//! Every series runs every core count. The Michael–Scott queue's CAS
//! loops back off through the kernels' one exponential window (8 to 1024
//! delay iterations, saturating, restarted each operation). Its LRSC
//! rows at full size (16 iterations), in accesses/cycle:
//!
//! | cores | LRSC | cycles | Colibri/LRSC |
//! |---|---|---|---|
//! | 8 | 0.0143 | 17 977 | 4.46x |
//! | 64 | 0.0153 | 134 017 | 3.68x |
//! | 128 | 0.0184 | 222 736 | 2.76x |
//! | 256 | 0.0151 | 543 541 | 3.13x |

use lrscwait_core::SyncArch;
use lrscwait_kernels::{QueueImpl, QueueKernel};
use lrscwait_sim::SimConfig;

use crate::figure::{find, product, Figure};
use crate::report::{columns, print_table};
use crate::{check_claim, BenchError, Measurement};

pub(super) fn run(fig: &Figure) -> Result<(), BenchError> {
    let cores: &[u32] = fig.pick(&[1, 8, 64], &[1, 2, 4, 8, 16, 32, 64, 128, 256]);
    let iters = fig.pick(8, 16);

    let series = [
        (
            "Colibri",
            QueueImpl::LrscWaitDirect,
            SyncArch::Colibri { queues: 4 },
        ),
        ("Atomic Add lock", QueueImpl::TicketRing, SyncArch::Lrsc),
        ("LRSC", QueueImpl::LrscMs, SyncArch::Lrsc),
    ];

    let measurements = fig.sweep(product(&series, cores), |((label, impl_, arch), active)| {
        let cfg = SimConfig::builder()
            .mempool()
            .arch(arch)
            .max_cycles(100_000_000);
        // Non-participating cores halt immediately inside the kernel.
        let kernel = QueueKernel::new(impl_, iters, active);
        let m = fig.experiment(&kernel, cfg)?.label(label).x(active).run()?;
        eprintln!(
            "{} {} cores={active}: {:.4} accesses/cycle [{:.4}, {:.4}]",
            fig.name, m.label, m.throughput, m.lo, m.hi
        );
        Ok(m)
    })?;
    fig.finish(&measurements)?;

    let rows: Vec<Vec<String>> = measurements.iter().map(Measurement::csv_row).collect();
    fig.write_csv(
        &[
            "series",
            "cores",
            "accesses_per_cycle",
            "slowest_core",
            "fastest_core",
            "cycles",
            "stall_cycles",
        ],
        &rows,
    )?;
    print_table(
        "\n## Fig. 6 — queue accesses/cycle vs cores",
        &["series", "cores", "accesses/cycle", "slowest", "fastest"],
        &columns(&rows, &[0, 1, 2, 3, 4]),
    );

    let tp =
        |series, cores| find(&measurements, Measurement::key, series, cores).map(|m| m.throughput);
    let mid = 8;
    println!(
        "at {mid} cores: Colibri/LRSC = {:.2}x (paper: 1.54x), Colibri/lock = {:.2}x (paper: 1.48x)",
        tp("Colibri", mid)? / tp("LRSC", mid)?,
        tp("Colibri", mid)? / tp("Atomic Add lock", mid)?,
    );
    if !fig.args.quick {
        println!(
            "at 64 cores: Colibri/LRSC = {:.2}x (paper: ~9x)",
            tp("Colibri", 64)? / tp("LRSC", 64)?
        );
    }
    // Every series runs every core count: compare at the largest.
    let hi = cores[cores.len() - 1];
    check_claim(
        tp("Colibri", hi)? > tp("LRSC", hi)?,
        "Colibri queue must win at scale",
    )
}
