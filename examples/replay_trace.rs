//! Record-and-replay: capture a power trace from one simulation, write it
//! as CSV, load it back as a demand program, and run it as a workload.
//!
//! ```text
//! cargo run --release --example replay_trace
//! ```
//!
//! This is the workflow a deployment would use with *real* RAPL logs: dump
//! `time,power` CSVs from production, then replay them through the managers
//! offline to predict how a policy change would have behaved.

use dps_suite::cluster::{ClusterSim, ExperimentConfig};
use dps_suite::core::manager::ManagerKind;
use dps_suite::metrics::csv;
use dps_suite::sim_core::RngStream;
use dps_suite::workloads::{build_program, catalog, playback};

fn main() {
    let config = ExperimentConfig::paper_default(3, 1);

    // --- Step 1: run Bayes and record one socket's true demand trace.
    let bayes = catalog::find("Bayes").unwrap();
    let program = build_program(bayes, &config.sim.perf, 77);
    let low = build_program(catalog::find("Sort").unwrap(), &config.sim.perf, 78);
    let mut sim = ClusterSim::new(
        config.sim.clone(),
        vec![program, low],
        config.build_manager(ManagerKind::Constant),
        &RngStream::new(3, "record"),
    );
    let mut demand_series = Vec::new();
    for _ in 0..400 {
        sim.cycle();
        demand_series.push(sim.demands()[0]);
    }
    let times: Vec<f64> = (0..demand_series.len()).map(|i| i as f64).collect();
    let csv_text = csv::trace(&times, &demand_series);
    println!(
        "recorded {} samples of socket 0's demand (peak {:.0} W)",
        demand_series.len(),
        demand_series.iter().cloned().fold(0.0, f64::max)
    );

    // --- Step 2: load the CSV back as a demand program.
    let replayed = playback::program_from_csv(&csv_text).expect("replay parses");
    println!(
        "replay program: {:.0} work-seconds across {} phases",
        replayed.total_work(),
        replayed.phases().len()
    );

    // --- Step 3: run the replayed workload under DPS and report.
    let mut replay_sim = ClusterSim::new(
        config.sim.clone(),
        vec![
            replayed,
            build_program(catalog::find("Sort").unwrap(), &config.sim.perf, 79),
        ],
        config.build_manager(ManagerKind::Dps),
        &RngStream::new(4, "replay"),
    );
    replay_sim.run_until(20_000, |s| s.runs_completed(0) >= 1);
    println!(
        "replayed run under DPS: {:.1} s, satisfaction {:.3}",
        replay_sim.run_durations(0)[0],
        replay_sim.satisfaction(0)
    );
    println!("\nAny time,value CSV works the same way — including real RAPL logs.");
}
