//! Table I — area of a `mempool_tile` with the different LRSCwait designs,
//! from the fitted parametric area model, plus the reservation-state
//! scaling comparison that motivates Colibri (paper Fig. 1).

use lrscwait_core::SyncArch;

use crate::figure::Figure;
use crate::model::{reservation_state_bits, table1};
use crate::report::print_table;
use crate::{check_claim, BenchError};

pub(super) fn run(fig: &Figure) -> Result<(), BenchError> {
    let rows_model = table1();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for r in &rows_model {
        rows.push(vec![
            r.label.clone(),
            r.parameters.clone(),
            format!("{:.0}", r.area_kge),
            format!("{:.1}", r.area_percent),
            r.paper_kge
                .map_or_else(|| "infeasible".to_string(), |v| format!("{v:.0}")),
        ]);
    }
    fig.write_csv(
        &[
            "architecture",
            "parameters",
            "area_kge",
            "area_percent",
            "paper_kge",
        ],
        &rows,
    )?;
    print_table(
        "## Table I — area of a mempool_tile (model vs paper)",
        &[
            "Architecture",
            "Parameters",
            "Area [kGE]",
            "Area [%]",
            "Paper [kGE]",
        ],
        &rows,
    );

    let mut scale_rows = Vec::new();
    for (cores, banks) in [(256u64, 1024u64), (512, 2048), (1024, 4096)] {
        let ideal = reservation_state_bits(SyncArch::LrscWaitIdeal, cores, banks);
        let colibri = reservation_state_bits(SyncArch::Colibri { queues: 4 }, cores, banks);
        scale_rows.push(vec![
            format!("{cores}x{banks}"),
            format!("{ideal}"),
            format!("{colibri}"),
            format!("{:.0}x", ideal as f64 / colibri as f64),
        ]);
    }
    print_table(
        "### Reservation-state scaling (bits of architectural state)",
        &[
            "cores x banks",
            "ideal queue [bits]",
            "Colibri [bits]",
            "ratio",
        ],
        &scale_rows,
    );

    // Verify the fit stays within 1% of every published row.
    for r in &rows_model {
        if let Some(paper) = r.paper_kge {
            let err = (r.area_kge - paper).abs() / paper;
            check_claim(
                err < 0.01,
                format!(
                    "{}: area model {:.2}% off the published value",
                    r.label,
                    100.0 * err
                ),
            )?;
        }
    }
    println!("model within 1% of all published Table I rows");
    Ok(())
}
