//! Many phones, one cell: what Ptile adoption does to a shared link.
//!
//! ```sh
//! cargo run --release --example cell_contention
//! ```
//!
//! Runs K concurrent clients behind one LTE cell with processor-sharing,
//! comparing an all-Ctile population against an all-Ptile(Ours-style)
//! population: the Ptile clients' smaller payloads decongest the cell for
//! everyone.

use ee360::abr::baselines::RateBasedController;
use ee360::abr::controller::{Controller, Scheme};
use ee360::abr::plan::SegmentContext;
use ee360::core::report::TableWriter;
use ee360::obs::NoopRecorder;
use ee360::sim::multiclient::{simulate_shared_link, MulticlientConfig};
use ee360::sim::resilience::RetryPolicy;
use ee360::trace::fault::FaultPlan;
use ee360::trace::network::NetworkTrace;
use ee360::video::content::SiTi;

/// Adapts a scheme controller into the shared-link planner interface,
/// recording each chosen quality level into `qualities`.
fn planner_for(
    scheme: Scheme,
    qualities: std::rc::Rc<std::cell::RefCell<Vec<usize>>>,
) -> Box<dyn FnMut(usize, f64, f64) -> f64> {
    let mut controller = RateBasedController::new(scheme);
    Box::new(move |index, buffer_sec, est_bps| {
        let ctx = SegmentContext {
            index,
            upcoming: vec![SiTi::new(60.0, 25.0)],
            predicted_bandwidth_bps: est_bps.max(1.0e5),
            buffer_sec,
            switching_speed_deg_s: 8.0,
            ptile_available: true,
            ptile_area_frac: 9.0 / 32.0,
            background_blocks: 3,
            ftile_fov_area: 0.0,
            ftile_fov_tiles: 0,
        };
        let plan = controller.plan(&ctx);
        qualities.borrow_mut().push(plan.quality.index());
        plan.bits
    })
}

fn main() {
    // One macro-cell worth of capacity shared by the population.
    let cell = NetworkTrace::paper_trace2(600, 77).scaled(4.0); // ~15.6 Mbps
    let config = MulticlientConfig {
        segments: 120,
        ..Default::default()
    };

    println!(
        "shared cell ≈ {:.1} Mbps, 120 segments per client\n",
        cell.mean_bps() / 1e6
    );
    let mut table = TableWriter::new(vec![
        "population",
        "clients",
        "mean bits/seg [Mb]",
        "mean quality lvl",
        "mean stall [s]",
    ]);

    for &clients in &[2usize, 4, 6, 8, 12] {
        for scheme in [Scheme::Ctile, Scheme::Ptile] {
            let quality_logs: Vec<_> = (0..clients)
                .map(|_| std::rc::Rc::new(std::cell::RefCell::new(Vec::new())))
                .collect();
            let planners = quality_logs
                .iter()
                .map(|log| planner_for(scheme, log.clone()))
                .collect();
            let outcomes = simulate_shared_link(
                &cell,
                config,
                planners,
                &FaultPlan::none(),
                &RetryPolicy::disabled(),
                &mut NoopRecorder,
            );
            let mean_bits = outcomes
                .iter()
                .map(|o| o.mean_bits_per_segment)
                .sum::<f64>()
                / clients as f64
                / 1e6;
            let mean_stall =
                outcomes.iter().map(|o| o.total_stall_sec).sum::<f64>() / clients as f64;
            let (q_sum, q_n) = quality_logs.iter().fold((0usize, 0usize), |(s, n), log| {
                let log = log.borrow();
                (s + log.iter().sum::<usize>(), n + log.len())
            });
            table.row(vec![
                format!("all {}", scheme.label()),
                format!("{clients}"),
                format!("{mean_bits:.2}"),
                format!("{:.2}", q_sum as f64 / q_n.max(1) as f64),
                format!("{mean_stall:.2}"),
            ]);
        }
    }
    println!("{}", table.render());
    println!("at equal cell load, Ptile clients hold much higher quality levels —");
    println!("the paper's per-device saving is also a network-capacity story.");
}
