//! The artifact's `exp.py` equivalent: run one workload pair under one
//! power manager with a chosen repetition count.
//!
//! ```text
//! exp <workload_a> <workload_b> [manager] [reps] [seed]
//!
//! exp GMM EP dps 3
//! exp Kmeans Sort slurm 10 1234
//! ```
//!
//! `manager` is any manager name, case-insensitive (default dps). Prints the
//! per-run throughput times, harmonic means, speedups over a constant
//! baseline run, satisfaction and fairness.

use dps_cluster::run_pair;
use dps_core::manager::ManagerKind;
use dps_experiments::{banner, config_from_env, pct};
use dps_workloads::catalog;

fn usage() -> ! {
    eprintln!(
        "usage: exp <workload_a> <workload_b> \
         [constant|slurm|dps|oracle|feedback|predictive|twolevel|qdpm|sharded] [reps] [seed]"
    );
    eprintln!("workloads: {}", all_names().join(", "));
    std::process::exit(2);
}

fn all_names() -> Vec<&'static str> {
    catalog::SPARK_WORKLOADS
        .iter()
        .chain(catalog::NPB_WORKLOADS)
        .map(|w| w.name)
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        usage();
    }
    let spec_a = catalog::find(&args[1]).unwrap_or_else(|| {
        eprintln!("unknown workload {:?}", args[1]);
        usage()
    });
    let spec_b = catalog::find(&args[2]).unwrap_or_else(|| {
        eprintln!("unknown workload {:?}", args[2]);
        usage()
    });
    let manager = args.get(3).map(String::as_str).unwrap_or("dps");
    let kind = ManagerKind::from_name(manager).unwrap_or_else(|| {
        eprintln!("unknown manager {manager:?}");
        usage()
    });

    let mut config = config_from_env();
    if let Some(reps) = args.get(4).and_then(|s| s.parse().ok()) {
        if reps == 0 {
            eprintln!("reps must be at least 1");
            usage();
        }
        config.reps = reps;
    }
    if let Some(seed) = args.get(5).and_then(|s| s.parse().ok()) {
        config.seed = seed;
    }

    banner(
        &format!("exp: {} + {} under {kind}", spec_a.name, spec_b.name),
        &config,
    );

    let baseline = run_pair(spec_a, spec_b, ManagerKind::Constant, &config);
    let outcome = run_pair(spec_a, spec_b, kind, &config);

    for (label, w, base) in [
        ("cluster 0", &outcome.a, &baseline.a),
        ("cluster 1", &outcome.b, &baseline.b),
    ] {
        println!(
            "{label}: {} — runs: {:?}",
            w.name,
            w.durations
                .iter()
                .map(|d| format!("{d:.1}s"))
                .collect::<Vec<_>>()
        );
        println!(
            "  hmean {:.2} s (constant baseline {:.2} s, speedup {}); satisfaction {:.3}",
            w.hmean_duration(),
            base.hmean_duration(),
            pct(base.hmean_duration() / w.hmean_duration()),
            w.satisfaction
        );
    }
    println!(
        "pair hmean speedup {} | fairness {:.3} | {} decision cycles",
        pct(outcome.pair_speedup(baseline.a.hmean_duration(), baseline.b.hmean_duration())),
        outcome.fairness,
        outcome.steps
    );
}
