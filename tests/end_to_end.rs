//! End-to-end runs at the paper's full topology, checking the whole
//! pipeline hangs together: workloads complete, logs are self-consistent,
//! satisfaction/fairness land in sane ranges, and the DPS-specific log
//! fields (priorities) are populated.

use dps_suite::cluster::{run_pair, ClusterSim, ExperimentConfig};
use dps_suite::core::manager::ManagerKind;
use dps_suite::sim_core::RngStream;
use dps_suite::workloads::{build_program, catalog};

#[test]
fn paper_topology_pair_completes_under_every_manager() {
    let cfg = ExperimentConfig::paper_default(31, 1);
    let a = catalog::find("Bayes").unwrap();
    let b = catalog::find("MG").unwrap();
    for kind in [
        ManagerKind::Constant,
        ManagerKind::Slurm,
        ManagerKind::Dps,
        ManagerKind::Oracle,
    ] {
        let out = run_pair(a, b, kind, &cfg);
        assert_eq!(out.a.durations.len(), 1, "{kind}");
        assert_eq!(out.b.durations.len(), 1, "{kind}");
        assert!(out.steps < cfg.max_steps, "{kind} hit the step limit");
        assert!(
            (0.0..=1.0).contains(&out.fairness),
            "{kind} fairness {}",
            out.fairness
        );
        assert!((0.0..=1.0).contains(&out.a.satisfaction));
        assert!((0.0..=1.0).contains(&out.b.satisfaction));
        // Throughput times are in the right ballpark of the catalog: never
        // faster than the uncapped bound and never absurdly slow.
        let d = out.a.hmean_duration();
        assert!(
            d > a.duration_110w * 0.7 && d < a.duration_110w * 2.0,
            "{kind}: Bayes duration {d}"
        );
    }
}

#[test]
fn cycle_log_is_self_consistent() {
    let cfg = ExperimentConfig::paper_default(33, 1);
    let spec_a = catalog::find("LDA").unwrap();
    let spec_b = catalog::find("IS").unwrap();
    let program_a = build_program(spec_a, &cfg.sim.perf, 1);
    let program_b = build_program(spec_b, &cfg.sim.perf, 2);
    let mut sim = ClusterSim::new(
        cfg.sim.clone(),
        vec![program_a, program_b],
        cfg.build_manager(ManagerKind::Dps),
        &RngStream::new(33, "e2e"),
    );
    let n = cfg.sim.topology.total_units();
    let limits = cfg.limits();
    let mut prev_caps = vec![110.0; n];
    let (mut ever_high, mut ever_low) = (false, false);
    for i in 0..400 {
        // Each cycle starts at its 0-based index on the time axis.
        assert!((sim.now() - i as f64).abs() < 1e-9, "time axis");
        sim.cycle();
        let (power, caps, demand) = (sim.measured(), sim.caps(), sim.demands());
        let priority = sim.priorities().expect("DPS must expose priorities");
        assert_eq!(power.len(), n);
        assert_eq!(caps.len(), n);
        assert_eq!(demand.len(), n);
        assert_eq!(priority.len(), n, "DPS must expose priorities");
        for u in 0..n {
            assert!(caps[u] >= limits.min_cap - 1e-9 && caps[u] <= limits.max_cap + 1e-9);
            // Measured power = true power + bounded noise; true power never
            // exceeds the cap in force during the window (the cap set at
            // the *previous* cycle), so allow the noise envelope only.
            assert!(
                power[u] <= prev_caps[u] + 12.0,
                "unit {u} cycle {i}: power {} vs window cap {}",
                power[u],
                prev_caps[u]
            );
            assert!(power[u] >= 0.0);
            assert!(demand[u] >= 0.0 && demand[u] <= 165.0 + 1e-9);
        }
        ever_high |= priority.iter().any(|&p| p);
        ever_low |= priority.iter().any(|&p| !p);
        prev_caps.copy_from_slice(caps);
    }
    // Priorities must actually vary over a run with phases.
    assert!(ever_high && ever_low, "priorities should vary");
}

#[test]
fn satisfaction_reflects_throttling_direction() {
    // GMM paired with EP under constant caps: both demand > 110 most of the
    // time, so both satisfactions sit well below 1; Sort paired with Sort
    // is never throttled.
    let cfg = ExperimentConfig::paper_default(35, 1);
    let gmm = catalog::find("GMM").unwrap();
    let ep = catalog::find("EP").unwrap();
    let hot = run_pair(gmm, ep, ManagerKind::Constant, &cfg);
    assert!(hot.a.satisfaction < 0.95, "GMM sat {}", hot.a.satisfaction);
    assert!(hot.b.satisfaction < 0.95, "EP sat {}", hot.b.satisfaction);

    let sort = catalog::find("Sort").unwrap();
    let wc = catalog::find("Wordcount").unwrap();
    let cool = run_pair(sort, wc, ManagerKind::Constant, &cfg);
    assert!(
        cool.a.satisfaction > 0.97,
        "Sort sat {}",
        cool.a.satisfaction
    );
    assert!(cool.fairness > 0.97);
}

#[test]
fn repetitions_are_fresh_realisations() {
    // §6.1: run-to-run variance. Under a dynamic manager, each repetition
    // of a phase-rich workload is a new realisation whose phases align
    // differently with the partner — durations must not be identical.
    let mut cfg = ExperimentConfig::paper_default(41, 3);
    cfg.sim.topology = dps_suite::rapl::Topology::new(2, 1, 2);
    let a = catalog::find("Bayes").unwrap();
    let b = catalog::find("GMM").unwrap();
    let out = run_pair(a, b, ManagerKind::Slurm, &cfg);
    let d = &out.a.durations;
    assert_eq!(d.len(), 3);
    let spread = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - d.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        spread > 0.5,
        "repetitions should differ under contention: {d:?}"
    );
}

#[test]
fn repeated_runs_accumulate() {
    let mut cfg = ExperimentConfig::paper_default(37, 3);
    cfg.sim.topology = dps_suite::rapl::Topology::new(2, 1, 2);
    let a = catalog::find("Sort").unwrap();
    let b = catalog::find("FT").unwrap();
    let out = run_pair(a, b, ManagerKind::Slurm, &cfg);
    assert_eq!(out.a.durations.len(), 3);
    assert_eq!(out.b.durations.len(), 3);
    // Sort is never capped: run-to-run spread should be tiny.
    let d = &out.a.durations;
    let spread = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - d.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 3.0, "Sort spread {spread}");
}
