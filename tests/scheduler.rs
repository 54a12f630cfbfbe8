//! Scheduler-mode integration: the batch queue, unit churn, and the budget
//! invariant, exercised through the whole stack (scheduler → simulator →
//! manager → RAPL substrate).
//!
//! The headline acceptance check lives here: with a scheduler attached, the
//! sum of caps applied to *occupied* units never exceeds the cluster budget
//! on any cycle, for any manager — even as jobs start, finish, and evict
//! underneath the manager's learned state.

use dps_suite::cluster::{ClusterSim, ExperimentConfig};
use dps_suite::core::manager::ManagerKind;
use dps_suite::rapl::Topology;
use dps_suite::sched::{JobOutcome, SchedConfig};
use dps_suite::sim_core::RngStream;

const MANAGERS: [ManagerKind; 3] = [ManagerKind::Constant, ManagerKind::Slurm, ManagerKind::Dps];

/// 2 clusters × 4 nodes × 2 sockets with a short Poisson trace.
fn sched_config(seed: u64, jobs: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(seed, 1);
    cfg.sim.topology = Topology::new(2, 4, 2);
    cfg.sim.scheduler = Some(SchedConfig::default_poisson(jobs, 200.0));
    cfg
}

/// Runs a manager to queue drain, asserting the occupied-caps budget
/// invariant on every cycle. Returns the drained simulator.
fn drain_checked(cfg: &ExperimentConfig, kind: ManagerKind) -> ClusterSim {
    let mut sim = ClusterSim::with_scheduler(
        cfg.sim.clone(),
        cfg.build_manager(kind),
        &RngStream::new(cfg.seed, "sched-integration"),
    );
    let budget = cfg.sim.total_budget();
    for _ in 0..cfg.max_steps {
        sim.cycle();
        let occupied = sim.occupied_units().expect("scheduler mode");
        let occupied_sum: f64 = sim
            .caps()
            .iter()
            .zip(occupied)
            .filter(|&(_, &occ)| occ)
            .map(|(&cap, _)| cap)
            .sum();
        assert!(
            occupied_sum <= budget + 1e-6,
            "{kind}: occupied caps {occupied_sum:.3} W exceed budget {budget:.3} W \
             at t={:.0}",
            sim.now()
        );
        if sim.scheduler_drained() {
            return sim;
        }
    }
    panic!(
        "{kind}: queue failed to drain within {} cycles",
        cfg.max_steps
    );
}

/// The acceptance bar: occupied caps within budget every cycle, for
/// every manager, and the whole trace retires.
#[test]
fn occupied_caps_respect_budget_for_all_managers() {
    let cfg = sched_config(11, 10);
    for kind in MANAGERS {
        let sim = drain_checked(&cfg, kind);
        assert_eq!(sim.job_records().len(), 10, "{kind}: all jobs retire");
    }
}

/// Every manager sees the identical arrival trace (same seed → same jobs,
/// arrivals, sizes), so job-level metrics are comparable.
#[test]
fn managers_share_the_arrival_trace() {
    let cfg = sched_config(23, 8);
    let mut shapes: Vec<Vec<(usize, String, usize, f64)>> = Vec::new();
    for kind in MANAGERS {
        let sim = drain_checked(&cfg, kind);
        let mut shape: Vec<_> = sim
            .job_records()
            .iter()
            .map(|r| (r.id, r.name.clone(), r.nodes, r.arrival))
            .collect();
        shape.sort_by_key(|s| s.0);
        shapes.push(shape);
    }
    assert_eq!(shapes[0], shapes[1]);
    assert_eq!(shapes[1], shapes[2]);
}

/// Scheduler mode is bit-deterministic: the same seed reproduces the same
/// job records, caps, and occupancy.
#[test]
fn scheduler_runs_are_reproducible() {
    let cfg = sched_config(5, 8);
    let a = drain_checked(&cfg, ManagerKind::Dps);
    let b = drain_checked(&cfg, ManagerKind::Dps);
    assert_eq!(a.job_records(), b.job_records());
    assert_eq!(a.caps(), b.caps());
    assert_eq!(a.occupied_units(), b.occupied_units());
    assert_eq!(a.now(), b.now());
}

/// Tight walltimes force evictions; the queue still drains, DPS still
/// respects the budget through the churn, and evicted jobs are recorded as
/// such.
#[test]
fn eviction_churn_keeps_the_invariant() {
    let mut cfg = sched_config(3, 10);
    let sched = cfg.sim.scheduler.as_mut().unwrap();
    // Walltime at 60 % of the nominal 110 W duration: throttled jobs will
    // overrun and get evicted.
    sched.walltime_factor = 0.6;
    let sim = drain_checked(&cfg, ManagerKind::Dps);
    let records = sim.job_records();
    assert_eq!(records.len(), 10);
    assert!(
        records.iter().any(|r| r.outcome == JobOutcome::Evicted),
        "tight walltimes should evict at least one job"
    );
    // Every eviction happened at (not before) the walltime deadline.
    for r in records.iter().filter(|r| r.outcome == JobOutcome::Evicted) {
        assert!(r.runtime() >= r.walltime - 1e-6);
    }
}

/// `scheduler: None` keeps the classic pinned mode: no scheduler state, no
/// job records, no occupancy mask — the pre-scheduler API surface intact.
#[test]
fn pinned_mode_reports_no_scheduler_state() {
    use dps_suite::cluster::run_pair;
    use dps_suite::workloads::catalog;

    let mut cfg = ExperimentConfig::paper_default(1, 1);
    cfg.sim.topology = Topology::new(2, 1, 2);
    assert!(cfg.sim.scheduler.is_none(), "paper default stays pinned");
    let bayes = catalog::find("Bayes").unwrap();
    let sort = catalog::find("Sort").unwrap();
    let outcome = run_pair(bayes, sort, ManagerKind::Dps, &cfg);
    assert!(outcome.a.durations.len() == 1 && outcome.b.durations.len() == 1);
}
