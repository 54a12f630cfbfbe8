//! Exports the per-cycle power log of one pair run as CSV — the artifact's
//! "log of the average power during every operating cycle, the power cap
//! set, and the priority ... for each socket".
//!
//! ```text
//! trace <workload_a> <workload_b> [manager] [seconds] [out_dir]
//! ```
//!
//! Writes `<out_dir>/trace_<a>_<b>_<manager>.csv` with one row per
//! (cycle, unit): `time,unit,cluster,demand,power,cap,priority`, where
//! `time` is the cycle's start. `manager` is any manager name,
//! case-insensitive (default dps); an unknown name is rejected.

use dps_cluster::ClusterSim;
use dps_core::manager::ManagerKind;
use dps_experiments::config_from_env;
use dps_sim_core::rng::RngStream;
use dps_workloads::{build_program, catalog};
use std::fs::File;
use std::io::{BufWriter, Write};

fn usage() -> ! {
    eprintln!(
        "usage: trace <workload_a> <workload_b> \
         [constant|slurm|dps|oracle|feedback|predictive|twolevel|qdpm|sharded] \
         [seconds] [out_dir]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name_a = args.get(1).map(String::as_str).unwrap_or("GMM");
    let name_b = args.get(2).map(String::as_str).unwrap_or("EP");
    let manager_name = args.get(3).map(String::as_str).unwrap_or("dps");
    let seconds: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(600);
    let out_dir = args.get(5).map(String::as_str).unwrap_or("results");

    let kind = ManagerKind::from_name(manager_name).unwrap_or_else(|| {
        eprintln!("unknown manager {manager_name:?}");
        usage()
    });

    let config = config_from_env();
    let spec_a = catalog::find(name_a).expect("workload a");
    let spec_b = catalog::find(name_b).expect("workload b");
    let pair_rng = RngStream::new(config.seed, &format!("pair/{name_a}+{name_b}"));
    let program_a = build_program(spec_a, &config.sim.perf, config.seed);
    let program_b = build_program(spec_b, &config.sim.perf, config.seed ^ 0x5555);

    let mut sim = ClusterSim::new(
        config.sim.clone(),
        vec![program_a, program_b],
        config.build_manager(kind),
        &pair_rng.child("sim"),
    );

    std::fs::create_dir_all(out_dir).expect("create output dir");
    let path = format!(
        "{out_dir}/trace_{}_{}_{}.csv",
        name_a.to_ascii_lowercase(),
        name_b.to_ascii_lowercase(),
        kind.to_string().to_ascii_lowercase()
    );
    let mut out = BufWriter::new(File::create(&path).expect("create trace"));
    writeln!(out, "time,unit,cluster,demand,power,cap,priority").expect("write trace");
    let topo = sim.config().topology;
    for _ in 0..seconds {
        let time = sim.now();
        sim.cycle();
        for u in 0..topo.total_units() {
            let prio = sim
                .priorities()
                .and_then(|p| p.get(u))
                .map_or(0, |&p| p as u8);
            writeln!(
                out,
                "{time},{u},{},{:.2},{:.2},{:.2},{prio}",
                topo.cluster_of(u),
                sim.demands()[u],
                sim.measured()[u],
                sim.caps()[u],
            )
            .expect("write trace");
        }
    }
    out.flush().expect("write trace");
    println!(
        "wrote {path}: {seconds} cycles x {} units (fairness so far {:.3})",
        topo.total_units(),
        sim.fairness(0, 1)
    );
}
