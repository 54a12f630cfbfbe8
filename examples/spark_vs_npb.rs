//! The paper's hardest scenario, narrated: a phase-rich Spark workload
//! (GMM) sharing a power budget with a sustained HPC workload (NPB's EP).
//!
//! ```text
//! cargo run --release --example spark_vs_npb
//! ```
//!
//! Runs the pair under every manager, prints the per-cluster caps at a few
//! interesting moments, and ends with the scoreboard. This is Fig. 6's
//! mechanism made visible: a stateless manager lets the always-hungry NPB
//! cluster absorb every Watt the Spark cluster releases during its quiet
//! phases, then cannot give them back; DPS's power dynamics detect the
//! Spark cluster's revival and equalize.

use dps_suite::cluster::{run_pair, ClusterSim, ExperimentConfig};
use dps_suite::core::manager::ManagerKind;
use dps_suite::sim_core::RngStream;
use dps_suite::workloads::{build_program, catalog};

fn main() {
    let config = ExperimentConfig::paper_default(7, 2);
    let gmm = catalog::find("GMM").unwrap();
    let ep = catalog::find("EP").unwrap();

    // --- A short narrated run under DPS.
    println!("== 6 simulated minutes under DPS (cluster-mean Watts) ==\n");
    let program_a = build_program(gmm, &config.sim.perf, 11);
    let program_b = build_program(ep, &config.sim.perf, 12);
    let mut sim = ClusterSim::new(
        config.sim.clone(),
        vec![program_a, program_b],
        config.build_manager(ManagerKind::Dps),
        &RngStream::new(7, "example"),
    );
    println!(
        "{:>5}  {:>16}  {:>16}",
        "t(s)", "GMM demand/cap", "EP demand/cap"
    );
    for t in 0..360 {
        sim.cycle();
        if t % 30 == 0 {
            let (demand, caps) = (sim.demands(), sim.caps());
            let half = sim.config().topology.units_per_cluster();
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            println!(
                "{t:>5}  {:>7.0} /{:>7.0}  {:>7.0} /{:>7.0}",
                mean(&demand[..half]),
                mean(&caps[..half]),
                mean(&demand[half..]),
                mean(&caps[half..]),
            );
        }
    }
    println!(
        "\nfairness so far: {:.3} (satisfaction {:.3} vs {:.3})\n",
        sim.fairness(0, 1),
        sim.satisfaction(0),
        sim.satisfaction(1)
    );

    // --- The scoreboard across managers.
    println!("== full pair runs ({} repetitions each) ==\n", config.reps);
    let baseline = run_pair(gmm, ep, ManagerKind::Constant, &config);
    let (ba, bb) = (baseline.a.hmean_duration(), baseline.b.hmean_duration());
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10}",
        "manager", "GMM", "EP", "pair", "fairness"
    );
    for kind in [ManagerKind::Slurm, ManagerKind::Dps, ManagerKind::Oracle] {
        let out = run_pair(gmm, ep, kind, &config);
        println!(
            "{:<10} {:>+9.1}% {:>+9.1}% {:>+9.1}% {:>10.3}",
            kind.to_string(),
            100.0 * (out.speedup_a(ba) - 1.0),
            100.0 * (out.speedup_b(bb) - 1.0),
            100.0 * (out.pair_speedup(ba, bb) - 1.0),
            out.fairness,
        );
    }
    println!("\nExpected: SLURM trades a large GMM loss for an EP gain (negative pair");
    println!("hmean, low fairness); DPS keeps both near the constant baseline or");
    println!("better, with fairness close to 1.");
}
