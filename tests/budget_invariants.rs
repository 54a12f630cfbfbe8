//! Cross-crate safety invariants: whatever the workload does, every manager
//! respects the cluster budget and the per-unit cap limits on every single
//! decision cycle. The paper's §6 claim — "in all cases (and for all power
//! managers) the power caps are respected" — as an executable property.

use dps_suite::cluster::{ClusterSim, ExperimentConfig};
use dps_suite::core::budget::check_budget;
use dps_suite::core::manager::ManagerKind;
use dps_suite::rapl::{NoiseModel, Topology};
use dps_suite::sim_core::RngStream;
use dps_suite::workloads::{build_program, catalog};
use proptest::prelude::*;

const MANAGERS: [ManagerKind; 5] = [
    ManagerKind::Constant,
    ManagerKind::Slurm,
    ManagerKind::Dps,
    ManagerKind::Qdpm,
    ManagerKind::Oracle,
];

fn small_config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(seed, 1);
    cfg.sim.topology = Topology::new(2, 1, 2);
    cfg
}

/// Names of all catalog workloads, as a proptest strategy.
fn workload_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("Wordcount"),
        Just("Sort"),
        Just("Kmeans"),
        Just("LDA"),
        Just("Linear"),
        Just("LR"),
        Just("Bayes"),
        Just("RF"),
        Just("GMM"),
        Just("EP"),
        Just("FT"),
        Just("CG"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workload pair, random seed, every manager: the caps respect
    /// the budget and limits on every one of the first 400 cycles.
    #[test]
    fn caps_always_respect_budget(
        a in workload_name(),
        b in workload_name(),
        seed in 0u64..1000,
        manager_idx in 0usize..MANAGERS.len(),
    ) {
        let cfg = small_config(seed);
        let kind = MANAGERS[manager_idx];
        let spec_a = catalog::find(a).unwrap();
        let spec_b = catalog::find(b).unwrap();
        let rng = RngStream::new(seed, "prop-budget");
        let program_a = build_program(spec_a, &cfg.sim.perf, seed);
        let program_b = build_program(spec_b, &cfg.sim.perf, seed ^ 0xABCD);
        let mut sim = ClusterSim::new(
            cfg.sim.clone(),
            vec![program_a, program_b],
            cfg.build_manager(kind),
            &rng,
        );
        let budget = cfg.sim.total_budget();
        let limits = cfg.limits();
        for step in 0..400 {
            sim.cycle();
            check_budget(sim.caps(), budget, limits)
                .map_err(|e| TestCaseError::fail(format!("{kind} step {step}: {e}")))?;
        }
    }

    /// Measurement noise never lets true delivered power exceed the cap:
    /// the enforcement is on true power, not on the noisy reading.
    #[test]
    fn true_power_never_exceeds_caps(seed in 0u64..500) {
        let mut cfg = small_config(seed);
        cfg.sim.noise = NoiseModel::Gaussian { std_dev: 4.0 };
        let spec = catalog::find("GMM").unwrap();
        let rng = RngStream::new(seed, "prop-power");
        let program_a = build_program(spec, &cfg.sim.perf, seed);
        let program_b = build_program(spec, &cfg.sim.perf, seed + 1);
        let mut sim = ClusterSim::new(
            cfg.sim.clone(),
            vec![program_a, program_b],
            cfg.build_manager(ManagerKind::Dps),
            &rng,
        );
        // Caps programmed at cycle t take effect at t+1, so compare each
        // window's true demand-limited draw against the *previous* caps.
        let mut prev_caps: Vec<f64> = sim.caps().to_vec();
        for _ in 0..300 {
            sim.cycle();
            for (u, (&d, &prev_cap)) in sim.demands().iter().zip(&prev_caps).enumerate() {
                let idle = cfg.sim.domain_spec.idle_power;
                let true_draw = d.max(idle).min(prev_cap).max(idle);
                prop_assert!(
                    true_draw <= prev_cap.max(idle) + 1e-9,
                    "unit {u}: draw {true_draw} vs cap {prev_cap}"
                );
            }
            prev_caps.copy_from_slice(sim.caps());
        }
    }
}

#[test]
fn budget_holds_at_paper_scale_for_all_managers() {
    // One non-property run at the real 20-unit topology for each manager.
    for kind in MANAGERS {
        let cfg = ExperimentConfig::paper_default(11, 1);
        let spec_a = catalog::find("Bayes").unwrap();
        let spec_b = catalog::find("CG").unwrap();
        let rng = RngStream::new(11, "paper-scale");
        let program_a = build_program(spec_a, &cfg.sim.perf, 1);
        let program_b = build_program(spec_b, &cfg.sim.perf, 2);
        let mut sim = ClusterSim::new(
            cfg.sim.clone(),
            vec![program_a, program_b],
            cfg.build_manager(kind),
            &rng,
        );
        for _ in 0..600 {
            sim.cycle();
            check_budget(sim.caps(), cfg.sim.total_budget(), cfg.limits())
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }
}
