//! Controller crash-recovery acceptance: a DPS controller restored from a
//! watchdog snapshot mid-run must pick up exactly where the dead one left
//! off — same caps, same budget discipline — on a fault-free trace.

use dps_suite::cluster::{ClusterSim, ExperimentConfig};
use dps_suite::core::config::StatsMode;
use dps_suite::core::manager::{PowerManager, UnitLimits};
use dps_suite::core::{DpsManager, GuardConfig};
use dps_suite::rapl::Topology;
use dps_suite::sim_core::RngStream;
use dps_suite::workloads::{DemandProgram, Phase};

fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(seed, 1);
    cfg.sim.topology = Topology::new(2, 2, 2);
    cfg
}

fn dps(cfg: &ExperimentConfig, guarded: bool) -> Box<dyn PowerManager> {
    let limits = UnitLimits {
        min_cap: cfg.sim.domain_spec.min_cap,
        max_cap: cfg.sim.domain_spec.tdp,
    };
    let rng = RngStream::new(cfg.seed, "manager/DPS");
    let n = cfg.sim.topology.total_units();
    let budget = cfg.sim.total_budget();
    if guarded {
        Box::new(DpsManager::with_guard(
            n,
            budget,
            limits,
            cfg.dps,
            GuardConfig::default(),
            rng,
        ))
    } else {
        Box::new(DpsManager::new(n, budget, limits, cfg.dps, rng))
    }
}

fn dps_mode(cfg: &ExperimentConfig, mode: StatsMode) -> Box<dyn PowerManager> {
    let limits = UnitLimits {
        min_cap: cfg.sim.domain_spec.min_cap,
        max_cap: cfg.sim.domain_spec.tdp,
    };
    Box::new(DpsManager::new(
        cfg.sim.topology.total_units(),
        cfg.sim.total_budget(),
        limits,
        cfg.dps.with_stats_mode(mode),
        RngStream::new(cfg.seed, "manager/DPS"),
    ))
}

fn programs() -> Vec<DemandProgram> {
    vec![
        DemandProgram::new(vec![Phase::constant(400.0, 150.0)]),
        DemandProgram::new(vec![
            Phase::constant(120.0, 60.0),
            Phase::constant(280.0, 140.0),
        ]),
    ]
}

/// The acceptance bar: with per-cycle checkpoints, crash + restore at
/// an arbitrary point reproduces the uninterrupted trajectory bit for bit.
#[test]
fn restored_controller_matches_uninterrupted_run() {
    for guarded in [false, true] {
        let cfg = config(41);
        let budget = cfg.sim.total_budget();
        let sim_rng = RngStream::new(41, "ckpt-e2e");
        let mut crashed =
            ClusterSim::new(cfg.sim.clone(), programs(), dps(&cfg, guarded), &sim_rng);
        let mut twin = ClusterSim::new(cfg.sim.clone(), programs(), dps(&cfg, guarded), &sim_rng);
        crashed.enable_watchdog(1);

        for _ in 0..70 {
            crashed.cycle();
            twin.cycle();
        }
        // Crash: all in-memory controller state is lost; a freshly
        // constructed manager takes over from the last snapshot.
        crashed
            .crash_and_restore(dps(&cfg, guarded))
            .expect("restore from snapshot");

        for _ in 0..150 {
            crashed.cycle();
            twin.cycle();
            assert_eq!(
                crashed.caps(),
                twin.caps(),
                "guarded={guarded} diverged at t={}",
                crashed.timestep()
            );
            assert!(crashed.caps().iter().sum::<f64>() <= budget + 1e-6);
        }
    }
}

/// The Q-learning manager honours the same crash contract: its Q-tables,
/// per-unit exploration rates, and rng stream position all live in the
/// snapshot, so a freshly constructed `QdpmManager` — built with a
/// *different* seed, which the restore must overwrite — picks up the
/// uninterrupted trajectory bit for bit.
#[test]
fn restored_qdpm_controller_matches_uninterrupted_run() {
    use dps_suite::core::{QdpmConfig, QdpmManager};
    let cfg = config(47);
    let budget = cfg.sim.total_budget();
    let limits = UnitLimits {
        min_cap: cfg.sim.domain_spec.min_cap,
        max_cap: cfg.sim.domain_spec.tdp,
    };
    let qdpm = |seed: u64| -> Box<dyn PowerManager> {
        Box::new(QdpmManager::new(
            cfg.sim.topology.total_units(),
            budget,
            limits,
            QdpmConfig::default(),
            RngStream::new(seed, "manager/QDPM"),
        ))
    };
    let sim_rng = RngStream::new(47, "ckpt-qdpm");
    let mut crashed = ClusterSim::new(cfg.sim.clone(), programs(), qdpm(47), &sim_rng);
    let mut twin = ClusterSim::new(cfg.sim.clone(), programs(), qdpm(47), &sim_rng);
    crashed.enable_watchdog(1);

    for _ in 0..70 {
        crashed.cycle();
        twin.cycle();
    }
    crashed
        .crash_and_restore(qdpm(999))
        .expect("restore from snapshot");

    for _ in 0..150 {
        crashed.cycle();
        twin.cycle();
        assert_eq!(
            crashed.caps(),
            twin.caps(),
            "QDPM diverged at t={}",
            crashed.timestep()
        );
        assert!(crashed.caps().iter().sum::<f64>() <= budget + 1e-6);
    }
}

/// The rolling-moment accumulators resync against the raw ring every
/// `4 × window` pushes (80 cycles at the paper-default window), so their
/// persisted state is path-dependent: a snapshot taken after the boundary
/// carries post-resync offsets that a from-scratch rebuild would not
/// reproduce. Crashing well past that boundary must still restore to a
/// bit-identical trajectory — the codec persists the accumulators
/// themselves, not just the ring they summarize.
#[test]
fn restore_after_resync_boundary_stays_bit_identical() {
    let cfg = config(53);
    let budget = cfg.sim.total_budget();
    let sim_rng = RngStream::new(53, "ckpt-resync");
    let mut crashed = ClusterSim::new(
        cfg.sim.clone(),
        programs(),
        dps_mode(&cfg, StatsMode::Incremental),
        &sim_rng,
    );
    let mut twin = ClusterSim::new(
        cfg.sim.clone(),
        programs(),
        dps_mode(&cfg, StatsMode::Incremental),
        &sim_rng,
    );
    crashed.enable_watchdog(1);

    for _ in 0..120 {
        crashed.cycle();
        twin.cycle();
    }
    crashed
        .crash_and_restore(dps_mode(&cfg, StatsMode::Incremental))
        .expect("restore past the resync boundary");

    for _ in 0..150 {
        crashed.cycle();
        twin.cycle();
        assert_eq!(
            crashed.caps(),
            twin.caps(),
            "diverged at t={}",
            crashed.timestep()
        );
        assert!(crashed.caps().iter().sum::<f64>() <= budget + 1e-6);
    }
}

/// Snapshots are portable across statistics modes: one written by an
/// incremental-mode controller restores into a rescan-mode replacement and
/// vice versa, and either way the trajectory still matches an uninterrupted
/// twin exactly (the modes are decision-equivalent, so the twin's own mode
/// is immaterial).
#[test]
fn cross_mode_restore_matches_uninterrupted_run() {
    for (before, after) in [
        (StatsMode::Incremental, StatsMode::Rescan),
        (StatsMode::Rescan, StatsMode::Incremental),
    ] {
        let cfg = config(59);
        let sim_rng = RngStream::new(59, "ckpt-crossmode");
        let mut crashed = ClusterSim::new(
            cfg.sim.clone(),
            programs(),
            dps_mode(&cfg, before),
            &sim_rng,
        );
        let mut twin = ClusterSim::new(
            cfg.sim.clone(),
            programs(),
            dps_mode(&cfg, before),
            &sim_rng,
        );
        crashed.enable_watchdog(1);

        for _ in 0..100 {
            crashed.cycle();
            twin.cycle();
        }
        crashed
            .crash_and_restore(dps_mode(&cfg, after))
            .expect("cross-mode restore");

        for _ in 0..150 {
            crashed.cycle();
            twin.cycle();
            assert_eq!(
                crashed.caps(),
                twin.caps(),
                "{before:?}->{after:?} diverged at t={}",
                crashed.timestep()
            );
        }
    }
}

/// A sparser watchdog (every 20 cycles) restores to a snapshot up to 19
/// cycles stale. The restored controller is *behind* the plant, so exact
/// trajectory equality is off the table — but it must stay budget-safe
/// immediately and converge back to the twin's allocation.
#[test]
fn stale_snapshot_restores_safely_and_converges() {
    let cfg = config(43);
    let budget = cfg.sim.total_budget();
    let sim_rng = RngStream::new(43, "ckpt-stale");
    let mut crashed = ClusterSim::new(cfg.sim.clone(), programs(), dps(&cfg, false), &sim_rng);
    let mut twin = ClusterSim::new(cfg.sim.clone(), programs(), dps(&cfg, false), &sim_rng);
    crashed.enable_watchdog(20);

    for _ in 0..70 {
        crashed.cycle();
        twin.cycle();
    }
    crashed
        .crash_and_restore(dps(&cfg, false))
        .expect("restore from stale snapshot");

    let mut worst_gap = 0.0f64;
    for step in 0..200 {
        crashed.cycle();
        twin.cycle();
        assert!(
            crashed.caps().iter().sum::<f64>() <= budget + 1e-6,
            "restored controller broke the budget at step {step}"
        );
        let gap: f64 = crashed
            .caps()
            .iter()
            .zip(twin.caps())
            .map(|(a, b)| (a - b).abs())
            .sum();
        if step >= 150 {
            worst_gap = worst_gap.max(gap);
        }
    }
    // Both controllers face the same demands; the restored one must settle
    // onto an allocation close to the uninterrupted twin's.
    assert!(
        worst_gap < 25.0,
        "restored controller never converged: {worst_gap:.1} W total cap gap"
    );
}

/// Restoring into the wrong shape or from garbage must fail loudly and
/// leave the incumbent manager running.
#[test]
fn bad_restores_are_rejected() {
    let cfg = config(47);
    let sim_rng = RngStream::new(47, "ckpt-bad");
    let mut sim = ClusterSim::new(cfg.sim.clone(), programs(), dps(&cfg, true), &sim_rng);
    sim.enable_watchdog(5);
    for _ in 0..10 {
        sim.cycle();
    }

    // Wrong unit count.
    let mut small = config(47);
    small.sim.topology = Topology::new(2, 1, 2);
    let err = sim.crash_and_restore(dps(&small, true)).unwrap_err();
    assert!(err.contains("units"), "{err}");

    // Corrupted snapshot: flip one byte and restore into a fresh manager.
    let mut snap = sim.last_checkpoint().expect("snapshot taken").to_vec();
    snap[12] ^= 0xFF;
    let mut fresh = dps(&cfg, true);
    assert!(fresh.restore(&snap).is_err(), "corrupt snapshot accepted");

    // The incumbent keeps running fine after both failures.
    for _ in 0..5 {
        sim.cycle();
    }
}
