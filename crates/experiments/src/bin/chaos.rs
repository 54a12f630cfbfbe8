//! Cross-layer chaos: graceful degradation under escalating correlated
//! incidents.
//!
//! Every run faces the same seeded workload pair (one hot cluster, one
//! cool) on a 2×2×2 framed-plane partition while a [`ChaosSchedule`] opens
//! correlated incident windows — rack-scoped sensor dropouts, frame loss on
//! the rack's control links, node churn — on top of a [`BudgetSchedule`]
//! brownout. Intensity escalates in four steps:
//!
//! * **0 — calm**: no chaos, constant budget (the baseline every manager
//!   should match).
//! * **1 — brownout**: a 25 % budget ramp-down mid-run, nothing else.
//! * **2 — incident**: the brownout plus one correlated window (rack-1
//!   sensor dropout + 35 % frame loss + a 10 % budget haircut).
//! * **3 — pile-up**: two overlapping windows on different racks, one with
//!   node churn, over a deeper 35 % brownout.
//!
//! For Constant, SLURM and guarded DPS we report satisfaction (the SLO
//! proxy), energy, the worst per-cycle applied-caps margin against the
//! *effective* budget, invariant violations (must stay zero), and how many
//! cycles the operating-mode ladder spent off `Normal`. The headline is the
//! shape: satisfaction degrades smoothly with intensity, the budget margin
//! never goes positive, and the ladder descends during incidents and
//! re-ascends after the hysteresis window.
//!
//! `DPS_QUICK=1` shortens the run for CI smoke coverage.

use dps_cluster::{
    BudgetSchedule, ChaosSchedule, ChaosWindow, ClusterSim, ExperimentConfig, SimConfig,
};
use dps_core::manager::{ManagerKind, PowerManager, UnitLimits};
use dps_core::{DpsManager, GuardConfig, OperatingMode};
use dps_ctrl::FramedConfig;
use dps_experiments::{banner, config_from_env};
use dps_rapl::{SensorFault, Topology};
use dps_sim_core::RngStream;
use dps_workloads::{DemandProgram, Phase};

/// One hot cluster (throttled by the budget) and one cool one.
fn programs(duration: f64) -> Vec<DemandProgram> {
    vec![
        DemandProgram::new(vec![Phase::constant(duration, 150.0)]),
        DemandProgram::new(vec![Phase::constant(duration, 70.0)]),
    ]
}

/// The chaos and budget schedules for one intensity step. Windows sit in
/// the middle of the run so the ladder has room to descend and recover.
fn schedules(intensity: u32, t_end: f64) -> (BudgetSchedule, ChaosSchedule) {
    let (a, b, c) = (0.25 * t_end, 0.45 * t_end, 0.65 * t_end);
    match intensity {
        0 => (BudgetSchedule::constant(), ChaosSchedule::none()),
        1 => (
            BudgetSchedule::brownout(a, 0.75, 10.0, b - a),
            ChaosSchedule::none(),
        ),
        2 => (
            BudgetSchedule::brownout(a, 0.75, 10.0, b - a),
            ChaosSchedule::new(vec![ChaosWindow::new(1, a, b)
                .with_sensor(SensorFault::Dropout)
                .with_frame_loss(0.35)
                .with_budget_factor(0.9)]),
        ),
        _ => (
            BudgetSchedule::brownout(a, 0.65, 10.0, c - a),
            ChaosSchedule::new(vec![
                ChaosWindow::new(1, a, b)
                    .with_sensor(SensorFault::Dropout)
                    .with_frame_loss(0.35)
                    .with_budget_factor(0.9),
                ChaosWindow::new(0, 0.5 * (a + b), c)
                    .with_sensor(SensorFault::SpikeBurst {
                        magnitude: 400.0,
                        prob: 0.3,
                    })
                    .with_frame_loss(0.2)
                    .with_churn(),
            ]),
        ),
    }
}

fn build_manager(
    kind: ManagerKind,
    cfg: &SimConfig,
    config: &ExperimentConfig,
) -> Box<dyn PowerManager> {
    let n = cfg.topology.total_units();
    let budget = cfg.total_budget();
    let limits = UnitLimits {
        min_cap: cfg.domain_spec.min_cap,
        max_cap: cfg.domain_spec.tdp,
    };
    let rng = RngStream::new(config.seed, &format!("manager/{kind}"));
    match kind {
        // The chaos runs pair DPS with its telemetry guard — the unguarded
        // controller is the sensorfaults experiment's subject, not this one's.
        ManagerKind::Dps => Box::new(DpsManager::with_guard(
            n,
            budget,
            limits,
            config.dps,
            GuardConfig::default(),
            rng,
        )),
        other => {
            let mut cfg = cfg.clone();
            cfg.topology = Topology::new(2, 2, 2);
            ExperimentConfig {
                sim: cfg,
                ..config.clone()
            }
            .build_manager(other)
        }
    }
}

struct ChaosOutcome {
    satisfaction_hot: f64,
    satisfaction_cool: f64,
    joules: f64,
    worst_margin: f64,
    violations: u64,
    off_normal_cycles: u64,
    safe_cycles: u64,
}

fn run(kind: ManagerKind, intensity: u32, config: &ExperimentConfig, cycles: u64) -> ChaosOutcome {
    let mut sim_cfg = config.sim.clone();
    sim_cfg.topology = Topology::new(2, 2, 2);
    sim_cfg.control_plane = dps_cluster::ControlPlaneMode::Framed(FramedConfig::default());
    let t_end = cycles as f64 * sim_cfg.period;
    let (budget, chaos) = schedules(intensity, t_end);
    sim_cfg.budget = budget;
    sim_cfg.chaos = chaos;
    sim_cfg.validate().expect("valid chaos config");

    let manager = build_manager(kind, &sim_cfg, config);
    let period = sim_cfg.period;
    let mut sim = ClusterSim::new(
        sim_cfg,
        programs(t_end),
        manager,
        &RngStream::new(config.seed, "chaos-experiment"),
    );

    // Wire-quantization slack on the requested-caps sum (one deciwatt per
    // unit, matching the invariant monitor's framed-plane tolerance).
    let slack = sim.caps().len() as f64 * 0.05 + 1e-6;
    let mut worst = f64::NEG_INFINITY;
    let mut off_normal = 0;
    let mut safe = 0;
    // Per-unit running sum of the measured power; dropout cycles report
    // NaN for the dark units, so only finite samples count (a small
    // undercount during the incident window, identical across managers).
    let mut measured_sum = vec![0.0; sim.caps().len()];
    for _ in 0..cycles {
        sim.cycle();
        for (sum, &p) in measured_sum.iter_mut().zip(sim.measured()) {
            if p.is_finite() {
                *sum += p;
            }
        }
        // The hard contract is on the caps the manager *requested* against
        // the budget in force this cycle — a brownout the caps ignore would
        // hide behind the base budget. Applied caps may transiently exceed
        // it while cap-update frames are being dropped; that lag is the
        // reported margin column, policed by the monitor's graced check.
        let requested_sum: f64 = sim.caps().iter().sum();
        assert!(
            requested_sum <= sim.current_budget() + slack,
            "requested caps {requested_sum:.2} W exceed effective budget {:.2} W",
            sim.current_budget()
        );
        let applied_sum: f64 = sim.applied_caps().iter().sum();
        worst = worst.max(applied_sum - sim.current_budget());
        match sim.operating_mode() {
            OperatingMode::Normal => {}
            OperatingMode::Degraded => off_normal += 1,
            OperatingMode::SafeMode => {
                off_normal += 1;
                safe += 1;
            }
        }
    }

    let joules: f64 = measured_sum.iter().map(|s| s * period).sum();
    ChaosOutcome {
        satisfaction_hot: sim.satisfaction(0),
        satisfaction_cool: sim.satisfaction(1),
        joules,
        worst_margin: worst,
        violations: sim.invariant_violations(),
        off_normal_cycles: off_normal,
        safe_cycles: safe,
    }
}

fn main() {
    let config = config_from_env();
    banner(
        "Cross-layer chaos: escalating correlated incidents (2x2x2, framed)",
        &config,
    );

    let cycles: u64 = if std::env::var("DPS_QUICK").is_ok() {
        240
    } else {
        1_200
    };
    let managers = [ManagerKind::Constant, ManagerKind::Slurm, ManagerKind::Dps];

    println!(
        "{:<12} {:>9} {:>10} {:>10} {:>10} {:>10} {:>6} {:>9} {:>6}",
        "intensity",
        "manager",
        "sat(hot)",
        "sat(cool)",
        "kJ",
        "margin W",
        "viol",
        "degraded",
        "safe"
    );
    for intensity in 0..=3 {
        for kind in managers {
            let label = if kind == ManagerKind::Dps {
                "DPS+guard".to_string()
            } else {
                kind.to_string()
            };
            let r = run(kind, intensity, &config, cycles);
            println!(
                "{:<12} {:>9} {:>10.4} {:>10.4} {:>10.1} {:>+10.2} {:>6} {:>9} {:>6}",
                intensity,
                label,
                r.satisfaction_hot,
                r.satisfaction_cool,
                r.joules / 1e3,
                r.worst_margin,
                r.violations,
                r.off_normal_cycles,
                r.safe_cycles
            );
            // The guarded manager must come through every incident clean.
            // Unguarded baselines are *allowed* to trip the monitor — NaN
            // telemetry reaching a naive allocator is exactly the failure
            // the guard exists to absorb — so their count is reported, not
            // asserted.
            if kind == ManagerKind::Dps {
                assert_eq!(
                    r.violations, 0,
                    "DPS+guard at intensity {intensity}: the safety monitor reported violations"
                );
            }
        }
    }

    println!();
    println!("Expected shape: satisfaction falls smoothly as intensity rises — no cliff.");
    println!("Requested caps respect the *effective* budget every single cycle (asserted");
    println!("inline); the applied-caps margin may spike for a cycle or two when a budget");
    println!("step lands while cap frames are being dropped — the monitor's graced check");
    println!("polices that lag. Guarded DPS keeps violations at zero throughout (asserted);");
    println!("unguarded baselines may trip the per-cap bounds check when NaN telemetry");
    println!("reaches their allocator, and the mode ladder absorbs it in Degraded.");
    println!("The mode ladder spends cycles in Degraded (frozen last-known-good caps)");
    println!("while a rack is dark and re-ascends after the hysteresis window; SafeMode");
    println!("only appears if telemetry confidence collapses entirely.");
}
