//! Failure injection and edge-of-envelope behaviour: extreme measurement
//! noise, infeasible budgets, idle systems, degenerate topologies.

use dps_suite::cluster::{ClusterSim, ExperimentConfig, SimConfig};
use dps_suite::core::manager::ManagerKind;
use dps_suite::rapl::{NoiseModel, Topology};
use dps_suite::sim_core::RngStream;
use dps_suite::workloads::{build_program, catalog, DemandProgram, Phase};

fn small(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(seed, 1);
    cfg.sim.topology = Topology::new(2, 1, 2);
    cfg
}

fn flat(duration: f64, watts: f64) -> DemandProgram {
    DemandProgram::new(vec![Phase::constant(duration, watts)])
}

#[test]
fn extreme_noise_never_breaks_budget_or_crashes() {
    // 25 W noise on a 110 W signal: every manager must stay within budget
    // and the simulation must complete.
    for kind in [ManagerKind::Slurm, ManagerKind::Dps, ManagerKind::Feedback] {
        let mut cfg = small(3);
        cfg.sim.noise = NoiseModel::Gaussian { std_dev: 25.0 };
        let a = build_program(catalog::find("Bayes").unwrap(), &cfg.sim.perf, 1);
        let b = build_program(catalog::find("FT").unwrap(), &cfg.sim.perf, 2);
        let budget = cfg.sim.total_budget();
        let mut sim = ClusterSim::new(
            cfg.sim.clone(),
            vec![a, b],
            cfg.build_manager(kind),
            &RngStream::new(3, "noise-extreme"),
        );
        for _ in 0..500 {
            sim.cycle();
            assert!(
                sim.caps().iter().sum::<f64>() <= budget + 1e-6,
                "{kind} broke the budget under extreme noise"
            );
        }
    }
}

#[test]
fn dps_with_extreme_noise_still_beats_badly_wrong_outcomes() {
    // Quality degrades gracefully: even at 15 W noise a contended pair
    // under DPS stays within 10% of the constant baseline.
    let mut cfg = small(7);
    cfg.sim.noise = NoiseModel::Gaussian { std_dev: 15.0 };
    let gmm = catalog::find("GMM").unwrap();
    let ep = catalog::find("EP").unwrap();
    let baseline = dps_suite::cluster::run_pair(gmm, ep, ManagerKind::Constant, &cfg);
    let dps = dps_suite::cluster::run_pair(gmm, ep, ManagerKind::Dps, &cfg);
    let pair = dps.pair_speedup(baseline.a.hmean_duration(), baseline.b.hmean_duration());
    assert!(pair > 0.90, "DPS under extreme noise: {pair:.3}");
}

#[test]
#[should_panic(expected = "cannot cover")]
fn infeasible_budget_rejected_loudly() {
    let mut sim_cfg = SimConfig::paper_default();
    sim_cfg.budget_fraction = 0.2; // 33 W/socket < 40 W minimum cap
    sim_cfg.validate().unwrap_or_else(|e| panic!("{e}"));
}

#[test]
#[should_panic(expected = "infeasible budget")]
fn cluster_sim_refuses_invalid_config() {
    // The manager constructor rejects the infeasible budget before
    // ClusterSim::new even gets to validate the sim config.
    let mut cfg = small(1);
    cfg.sim.budget_fraction = 0.1;
    let a = flat(10.0, 100.0);
    let b = flat(10.0, 100.0);
    ClusterSim::new(
        cfg.sim.clone(),
        vec![a, b],
        cfg.build_manager(ManagerKind::Constant),
        &RngStream::new(1, "invalid"),
    );
}

#[test]
fn budget_fraction_one_means_never_throttled() {
    let mut cfg = small(9);
    cfg.sim.budget_fraction = 1.0; // every socket can hold TDP
    cfg.sim.noise = NoiseModel::None;
    let a = build_program(catalog::find("GMM").unwrap(), &cfg.sim.perf, 4);
    let uncapped_duration =
        dps_suite::workloads::generator::capped_duration(&a, &cfg.sim.perf, 165.0);
    let b = flat(50.0, 60.0);
    let mut sim = ClusterSim::new(
        cfg.sim.clone(),
        vec![a, b],
        cfg.build_manager(ManagerKind::Dps),
        &RngStream::new(9, "full-budget"),
    );
    sim.run_until(20_000, |s| s.runs_completed(0) >= 1);
    let d = sim.run_durations(0)[0];
    assert!(
        (d - uncapped_duration).abs() / uncapped_duration < 0.03,
        "GMM at full budget should run uncapped: {d} vs {uncapped_duration}"
    );
    assert!(sim.satisfaction(0) > 0.99);
}

#[test]
fn fully_idle_system_restores_and_stays_satisfied() {
    let cfg = small(11);
    let mut sim = ClusterSim::new(
        cfg.sim.clone(),
        vec![flat(100.0, 5.0), flat(100.0, 5.0)],
        cfg.build_manager(ManagerKind::Dps),
        &RngStream::new(11, "idle"),
    );
    for _ in 0..150 {
        sim.cycle();
    }
    // Idle demand below the idle floor is always "satisfied".
    assert_eq!(sim.satisfaction(0), 1.0);
    assert_eq!(sim.fairness(0, 1), 1.0);
    // DPS should be parked at the constant allocation.
    for &c in sim.caps() {
        assert!((c - 110.0).abs() < 1e-6, "{:?}", sim.caps());
    }
}

#[test]
fn single_cluster_topology_supported() {
    let mut cfg = small(13);
    cfg.sim.topology = Topology::new(1, 2, 2);
    let a = build_program(catalog::find("LDA").unwrap(), &cfg.sim.perf, 5);
    let mut sim = ClusterSim::new(
        cfg.sim.clone(),
        vec![a],
        cfg.build_manager(ManagerKind::Dps),
        &RngStream::new(13, "single"),
    );
    for _ in 0..200 {
        sim.cycle();
    }
    assert!(sim.satisfaction(0) > 0.0);
    assert_eq!(sim.fairness(0, 0), 1.0, "self-fairness is unity");
}

#[test]
fn concatenated_job_queue_runs_through() {
    // A mixed job queue flattened into one program (Ellsworth-style job
    // throughput setup): all jobs complete and throughput time is the
    // makespan.
    let cfg = small(15);
    let perf = cfg.sim.perf;
    let jobs: Vec<DemandProgram> = ["Sort", "Bayes", "Wordcount"]
        .iter()
        .map(|n| build_program(catalog::find(n).unwrap(), &perf, 8))
        .collect();
    let queue = DemandProgram::concat(&jobs, 10.0, 20.0);
    let total_work = queue.total_work();
    let mut sim = ClusterSim::new(
        cfg.sim.clone(),
        vec![queue, flat(50.0, 60.0)],
        cfg.build_manager(ManagerKind::Dps),
        &RngStream::new(15, "queue"),
    );
    sim.run_until(30_000, |s| s.runs_completed(0) >= 1);
    assert_eq!(sim.runs_completed(0), 1);
    let makespan = sim.run_durations(0)[0];
    assert!(
        makespan >= total_work * 0.95 && makespan < total_work * 1.5,
        "makespan {makespan} vs work {total_work}"
    );
}

#[test]
fn quantized_noise_model_supported_end_to_end() {
    let mut cfg = small(17);
    cfg.sim.noise = NoiseModel::QuantizedGaussian {
        std_dev: 1.5,
        step: 0.5,
    };
    let a = build_program(catalog::find("RF").unwrap(), &cfg.sim.perf, 6);
    let b = flat(60.0, 70.0);
    let mut sim = ClusterSim::new(
        cfg.sim.clone(),
        vec![a, b],
        cfg.build_manager(ManagerKind::Dps),
        &RngStream::new(17, "quantized"),
    );
    for _ in 0..100 {
        sim.cycle();
        // Measurements snap to the 0.5 W grid.
        for &p in sim.measured() {
            let snapped = (p / 0.5).round() * 0.5;
            assert!((p - snapped).abs() < 1e-9, "unquantized measurement {p}");
        }
    }
}

// ---- sensor/actuator fault injection against the telemetry guard ----

use dps_suite::core::manager::{PowerManager, UnitLimits};
use dps_suite::core::{DpsManager, GuardConfig, HealthState};
use dps_suite::rapl::{ActuatorFault, SensorFault, UnitFaultEvent, UnitFaultSchedule};

fn guarded_dps(cfg: &ExperimentConfig) -> Box<dyn PowerManager> {
    Box::new(DpsManager::with_guard(
        cfg.sim.topology.total_units(),
        cfg.sim.total_budget(),
        UnitLimits {
            min_cap: cfg.sim.domain_spec.min_cap,
            max_cap: cfg.sim.domain_spec.tdp,
        },
        cfg.dps,
        GuardConfig {
            stuck_window: 6,
            quarantine_after: 2,
            probation_after: 5,
            readmit_after: 8,
            ..GuardConfig::default()
        },
        RngStream::new(cfg.seed, "manager/DPS"),
    ))
}

#[test]
fn quarantine_and_readmission_preserve_budget_and_lower_bound() {
    // Unit 0 (hot cluster) reports a frozen 95 W from t=40 to t=140 while
    // every hot unit wants 150 W. The guard must quarantine it at the
    // constant-allocation fallback, never break the budget, never push the
    // other hot (healthy) units below the fallback to fund it, and readmit
    // the unit once real telemetry returns.
    let mut cfg = ExperimentConfig::paper_default(23, 1);
    cfg.sim.topology = Topology::new(2, 2, 2); // 8 units, 880 W budget
    cfg.sim.sensor_faults = UnitFaultSchedule::new(vec![UnitFaultEvent::sensor(
        0,
        40.0,
        140.0,
        SensorFault::StuckAt { value: 95.0 },
    )]);
    let budget = cfg.sim.total_budget();
    let fallback = budget / cfg.sim.topology.total_units() as f64; // 110 W
    let mut sim = ClusterSim::new(
        cfg.sim.clone(),
        vec![flat(400.0, 150.0), flat(400.0, 60.0)],
        guarded_dps(&cfg),
        &RngStream::new(23, "quarantine-e2e"),
    );

    let mut isolated_cycles = 0;
    for _ in 0..260 {
        sim.cycle();
        let caps = sim.caps();
        assert!(
            caps.iter().sum::<f64>() <= budget + 1e-6,
            "budget broken at t={}: {caps:?}",
            sim.now()
        );
        let health = sim.health().expect("guarded manager");
        if health[0].is_isolated() {
            isolated_cycles += 1;
            // The quarantined unit is pinned at the fallback cap...
            assert!(
                (caps[0] - fallback).abs() < 1e-6,
                "isolated unit not at fallback: {}",
                caps[0]
            );
            // ...and the healthy hot units (1..4 share its cluster and are
            // pushing against their caps) are never taxed below it to fund
            // the pin. DPS's own readjust step equalizes high-priority
            // units at their mean cap, which can dip a busy unit a few
            // Watts under the fallback even on fault-free hardware — the
            // slack below covers that control-law wobble, not the guard.
            for (u, &cap) in caps.iter().enumerate().take(4).skip(1) {
                assert!(
                    cap >= fallback - 5.0,
                    "healthy hot unit {u} pushed below fallback: {cap}"
                );
            }
        }
    }
    assert!(
        isolated_cycles > 50,
        "fault window barely isolated: {isolated_cycles}"
    );
    assert_eq!(
        sim.health().unwrap()[0],
        HealthState::Healthy,
        "unit must be readmitted after the fault clears"
    );
    let stats = sim.guard_stats().unwrap();
    assert!(stats.stuck_trips > 0, "stuck detector never fired");
    assert!(stats.readmissions >= 1, "no readmission recorded");
}

#[test]
fn actuator_faults_during_readjustment_keep_caps_finite_and_budgeted() {
    // Overlapping actuator faults (dropped writes on one hot unit, firmware
    // clamping on another) while the whole hot cluster is contended — so the
    // readjust/equalize machinery runs every cycle against readbacks the
    // controller did not request. No cap, requested or applied, may ever go
    // non-finite, and the requested sum must hold the budget throughout.
    for guarded in [false, true] {
        let mut cfg = ExperimentConfig::paper_default(31, 1);
        cfg.sim.topology = Topology::new(2, 2, 2);
        cfg.sim.sensor_faults = UnitFaultSchedule::new(vec![
            UnitFaultEvent::actuator(0, 30.0, 170.0, ActuatorFault::DropWrites),
            UnitFaultEvent::actuator(
                1,
                50.0,
                150.0,
                ActuatorFault::ClampWrites {
                    floor: 80.0,
                    ceil: 120.0,
                },
            ),
        ]);
        let budget = cfg.sim.total_budget();
        let manager = if guarded {
            guarded_dps(&cfg)
        } else {
            cfg.build_manager(ManagerKind::Dps)
        };
        let mut sim = ClusterSim::new(
            cfg.sim.clone(),
            vec![flat(400.0, 155.0), flat(400.0, 70.0)],
            manager,
            &RngStream::new(31, "actuator-readjust"),
        );
        for step in 0..300 {
            sim.cycle();
            let caps = sim.caps();
            assert!(
                caps.iter().all(|c| c.is_finite()),
                "guarded={guarded}: non-finite requested cap at step {step}: {caps:?}"
            );
            assert!(
                caps.iter().sum::<f64>() <= budget + 1e-6,
                "guarded={guarded}: budget broken at step {step}"
            );
            assert!(
                sim.applied_caps().iter().all(|c| c.is_finite()),
                "guarded={guarded}: non-finite applied cap at step {step}"
            );
        }
    }
}

#[test]
fn dropped_cap_writes_bound_the_applied_overshoot() {
    // Unit 0's actuator silently drops every cap write mid-run. The caps in
    // force at the hardware can transiently exceed what the controller
    // requested, but write verification plus believed-cap accounting must
    // keep the enforced sum essentially at the budget, where an unguarded
    // controller drifts well past it.
    let run = |guarded: bool| -> f64 {
        let mut cfg = ExperimentConfig::paper_default(29, 1);
        cfg.sim.topology = Topology::new(2, 2, 2);
        cfg.sim.sensor_faults = UnitFaultSchedule::new(vec![UnitFaultEvent::actuator(
            0,
            40.0,
            160.0,
            ActuatorFault::DropWrites,
        )]);
        let budget = cfg.sim.total_budget();
        let manager = if guarded {
            guarded_dps(&cfg)
        } else {
            cfg.build_manager(ManagerKind::Dps)
        };
        let mut sim = ClusterSim::new(
            cfg.sim.clone(),
            vec![flat(400.0, 150.0), flat(400.0, 60.0)],
            manager,
            &RngStream::new(29, "dropwrites-e2e"),
        );
        let mut worst = 0.0f64;
        for _ in 0..240 {
            sim.cycle();
            // Requested caps always respect the budget...
            assert!(sim.caps().iter().sum::<f64>() <= budget + 1e-6);
            // ...the interesting margin is on the hardware side.
            worst = worst.max(sim.applied_caps().iter().sum::<f64>() - budget);
        }
        if guarded {
            let stats = sim.guard_stats().unwrap();
            assert!(stats.write_mismatches > 0, "write verification never fired");
        }
        worst
    };

    let unguarded = run(false);
    let guarded = run(true);
    assert!(
        guarded <= unguarded + 1e-9,
        "guard made the overshoot worse: {guarded:.2} vs {unguarded:.2}"
    );
    // One decision cycle of slack is inherent (the drop is only visible at
    // the next readback); beyond that the guard must hold the line.
    assert!(
        guarded <= 16.0,
        "guarded applied-cap overshoot too large: {guarded:.2} W"
    );
}

// ---------------------------------------------------------------------------
// Combined-fault acceptance: everything at once, deterministically.

use dps_suite::cluster::{BudgetSchedule, ChaosSchedule, ChaosWindow};
use dps_suite::core::OperatingMode;
use dps_suite::obs::SinkHandle;

/// The cross-layer pile-up the chaos harness exists for: a framed control
/// plane loses 30 % of rack-1's frames while that rack's sensors go dark
/// and one of its nodes churns out, an independent actuator fault drops
/// unit 2's cap writes, and a brownout pulls the budget down 25 % through
/// the middle of it all. The guarded manager must hold the requested-caps
/// invariant against the *effective* budget every single cycle, the mode
/// ladder must recover to Normal, and the whole ordeal must be
/// reproducible bit-for-bit from the seed. (Measurement noise stays on:
/// noise-free constant demand trips the guard's stuck-sensor detector and
/// would quarantine the whole fleet before the chaos window even opens.)
#[test]
fn combined_faults_hold_the_budget_and_reproduce_exactly() {
    let run = || {
        let mut cfg = small(31);
        cfg.sim.topology = Topology::new(2, 2, 2);
        cfg.sim.control_plane =
            dps_suite::cluster::ControlPlaneMode::Framed(dps_suite::ctrl::FramedConfig::default());
        cfg.sim.sensor_faults = UnitFaultSchedule::new(vec![UnitFaultEvent::actuator(
            2,
            30.0,
            70.0,
            ActuatorFault::DropWrites,
        )]);
        cfg.sim.chaos = ChaosSchedule::new(vec![ChaosWindow::new(1, 25.0, 65.0)
            .with_sensor(SensorFault::Dropout)
            .with_frame_loss(0.3)
            .with_churn()]);
        cfg.sim.budget = BudgetSchedule::brownout(35.0, 0.75, 10.0, 30.0);
        cfg.sim.validate().expect("valid combined-fault config");

        let manager = guarded_dps(&cfg);
        let mut sim = ClusterSim::new(
            cfg.sim.clone(),
            vec![flat(400.0, 150.0), flat(400.0, 70.0)],
            manager,
            &RngStream::new(31, "combined-faults"),
        );
        let sink = SinkHandle::recording(1 << 16);
        sim.set_trace_sink(sink.clone());

        let mut saw_shock = false;
        let mut saw_degraded = false;
        for _ in 0..140 {
            sim.cycle();
            let requested: f64 = sim.caps().iter().sum();
            assert!(
                requested <= sim.current_budget() + 1e-6,
                "requested {requested:.3} W over effective budget {:.3} W at t={}",
                sim.current_budget(),
                sim.now()
            );
            saw_shock |= (sim.current_budget() - cfg.sim.total_budget()).abs() > 1e-9;
            saw_degraded |= sim.operating_mode() != OperatingMode::Normal;
        }

        assert!(saw_shock, "the brownout never took effect");
        assert!(saw_degraded, "the mode ladder never reacted to the pile-up");
        assert_eq!(
            sim.operating_mode(),
            OperatingMode::Normal,
            "mode ladder failed to recover after the incident"
        );
        let stats = sim.guard_stats().expect("guarded manager reports stats");
        assert!(
            stats.quarantine_entries > 0,
            "the dropout never reached the guard"
        );
        let bytes = sink.export().expect("recording sink exports");

        // Hard safety checks must come through the pile-up clean. Soft
        // applied-budget reports are legitimate here: the drop-writes
        // actuator holds a stale high cap straight through the brownout
        // trough, which is exactly what that graced check exists to flag.
        let trace = dps_suite::obs::codec::decode(&bytes).expect("trace decodes");
        for event in &trace.events {
            if let dps_suite::obs::Event::InvariantViolation { kind, cycle, .. } = event {
                assert_eq!(
                    *kind,
                    dps_suite::obs::InvariantKind::AppliedBudget,
                    "hard invariant {kind:?} violated at cycle {cycle}"
                );
            }
        }
        bytes
    };

    let first = run();
    let second = run();
    assert!(
        first == second,
        "combined-fault run is not deterministic for a fixed seed"
    );
}
