//! The power-manager interface.
//!
//! A manager is a pure control policy: per decision cycle it receives the
//! latest per-unit power measurements and rewrites the per-unit caps. It
//! never talks to hardware directly (the cluster crate owns that), which is
//! what lets the same policy run against simulated RAPL here and real RAPL
//! in a deployment.

use crate::guard::{GuardStats, HealthState};
use dps_sim_core::units::{Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Static per-unit capping limits the manager must respect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitLimits {
    /// Lowest settable cap (RAPL minimum operating power).
    pub min_cap: Watts,
    /// Highest settable cap (TDP).
    pub max_cap: Watts,
}

impl UnitLimits {
    /// The paper's socket: caps in `[40, 165]` W.
    pub fn xeon_gold_6240() -> Self {
        Self {
            min_cap: 40.0,
            max_cap: 165.0,
        }
    }

    /// Clamps a cap into the unit's settable range.
    #[inline]
    pub fn clamp(&self, cap: Watts) -> Watts {
        dps_sim_core::units::clamp_power(cap, self.min_cap, self.max_cap)
    }

    /// Checks that `total_budget` can cover `num_units` at the minimum cap —
    /// below that no policy can satisfy both the budget and the hardware
    /// floor, so every manager constructor enforces it.
    pub fn check_feasible(&self, total_budget: Watts, num_units: usize) -> Result<(), String> {
        let floor = self.min_cap * num_units as f64;
        if total_budget + 1e-9 < floor {
            return Err(format!(
                "budget {total_budget:.1} W cannot cover {num_units} units at the \
                 {:.0} W minimum cap ({floor:.1} W required)",
                self.min_cap
            ));
        }
        Ok(())
    }
}

/// Which manager a run used — keys for result tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ManagerKind {
    /// Equal static caps.
    Constant,
    /// Stateless MIMD (the SLURM power plugin comparator).
    Slurm,
    /// The Dynamic Power Scheduler.
    Dps,
    /// Perfect-knowledge demand-proportional allocation.
    Oracle,
    /// PShifter-style PI headroom equalizer (related-work baseline, §2.2).
    Feedback,
    /// PoDD/PANN-lite online demand model (related-work baseline, §2.2).
    Predictive,
    /// Argo-style two-level stateless manager (related-work baseline, §2.3).
    TwoLevel,
    /// Q-DPM model-free Q-learning with continuous-time state aggregation.
    Qdpm,
    /// Hierarchical sharded DPS: independent per-shard DPS instances under
    /// a top-level budget allocator.
    Sharded,
}

impl ManagerKind {
    /// All implemented managers, in report order.
    pub const ALL: [ManagerKind; 8] = [
        ManagerKind::Constant,
        ManagerKind::Slurm,
        ManagerKind::TwoLevel,
        ManagerKind::Feedback,
        ManagerKind::Predictive,
        ManagerKind::Qdpm,
        ManagerKind::Dps,
        ManagerKind::Oracle,
    ];

    /// Parses a manager name, case-insensitively: the inverse of
    /// `Display`, covering every kind ([`ManagerKind::ALL`] plus
    /// `Sharded`). `None` for an unknown name.
    pub fn from_name(name: &str) -> Option<ManagerKind> {
        Self::ALL
            .into_iter()
            .chain([ManagerKind::Sharded])
            .find(|k| k.to_string().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for ManagerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ManagerKind::Constant => "Constant",
            ManagerKind::Slurm => "SLURM",
            ManagerKind::Dps => "DPS",
            ManagerKind::Oracle => "Oracle",
            ManagerKind::Feedback => "Feedback",
            ManagerKind::Predictive => "Predictive",
            ManagerKind::TwoLevel => "TwoLevel",
            ManagerKind::Qdpm => "QDPM",
            ManagerKind::Sharded => "Sharded",
        };
        f.write_str(s)
    }
}

/// One shard of a hierarchical manager's allocation tree, as exposed for
/// per-level budget-invariant checking: the contiguous flat-unit range the
/// shard owns and the budget it was granted for the cycle that just ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpan {
    /// First flat unit index owned by the shard.
    pub start: usize,
    /// One past the last flat unit index owned by the shard.
    pub end: usize,
    /// Budget granted to the shard for the last cycle (W).
    pub grant: Watts,
}

impl ShardSpan {
    /// Number of units the shard owns.
    pub fn units(&self) -> usize {
        self.end - self.start
    }
}

/// A cluster-level power-cap policy.
///
/// Contract: after [`PowerManager::assign_caps`] returns, every cap lies in
/// its unit's `[min_cap, max_cap]` and the caps sum to at most the cluster
/// budget (up to floating-point slack). `debug_assert_budget` in
/// [`crate::budget`] checks this in tests.
pub trait PowerManager {
    /// Which policy this is.
    fn kind(&self) -> ManagerKind;

    /// Number of managed units.
    fn num_units(&self) -> usize;

    /// The cluster-wide power budget in Watts.
    fn total_budget(&self) -> Watts;

    /// Rebases the manager on a new cluster-wide budget mid-run (facility
    /// brownout, demand-response window, budget restoration). The manager
    /// must refresh every budget-derived internal quantity so that the very
    /// next [`PowerManager::assign_caps`] call produces caps summing to at
    /// most `new_budget` — the bounded-cycles-to-compliance guarantee the
    /// dynamic-budget tests pin is **one cycle** for every shipped manager.
    /// Rejects non-finite or infeasible budgets (below `n × min_cap`)
    /// without changing any state.
    fn set_budget(&mut self, new_budget: Watts) -> Result<(), String>;

    /// One decision cycle: observe `measured` (one sample per unit, the
    /// possibly noisy average power of the last window) and rewrite `caps`
    /// in place. `dt` is the cycle period in seconds.
    fn assign_caps(&mut self, measured: &[Watts], caps: &mut [Watts], dt: Seconds);

    /// Ground-truth demand feed for oracle-class managers; realistic
    /// managers ignore it (default no-op). The cluster simulator calls this
    /// before `assign_caps` every cycle.
    fn observe_demands(&mut self, _demands: &[Watts]) {}

    /// Occupancy update from the scheduler layer: `active[u]` says whether
    /// unit `u` currently hosts a job. Called whenever membership changes
    /// (jobs starting, finishing, or evicted), before the cycle's
    /// `assign_caps`. Stateful managers should drop per-unit learned state
    /// for units whose occupancy flipped — the unit's power dynamics belong
    /// to a different (or no) job now. Default no-op for stateless managers.
    fn observe_membership(&mut self, _active: &[bool]) {}

    /// Per-unit priority flags after the last cycle (DPS logs these in the
    /// artifact's per-cycle records); `None` for managers without priorities.
    fn priorities(&self) -> Option<&[bool]> {
        None
    }

    /// Cap readback after programming: `applied` is the per-unit cap the
    /// hardware reports to be in force. The cluster loop calls this right
    /// after writing the caps so managers with write verification (the
    /// telemetry guard) can detect silently dropped or mangled writes.
    /// Default no-op for managers that trust their actuators.
    fn observe_applied(&mut self, _applied: &[Watts]) {}

    /// Per-unit telemetry health after the last cycle; `None` for managers
    /// without health gating.
    fn health(&self) -> Option<&[HealthState]> {
        None
    }

    /// Cumulative guard counters (rejected samples, quarantines, ...);
    /// `None` for managers without health gating.
    fn guard_stats(&self) -> Option<GuardStats> {
        None
    }

    /// Serializes the manager's dynamic state for crash recovery; `None`
    /// for managers without checkpoint support.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        None
    }

    /// Serializes into a caller-provided buffer, reusing its allocation —
    /// the periodic-watchdog variant of [`PowerManager::checkpoint`].
    /// Returns `false` (leaving `out` untouched) for managers without
    /// checkpoint support. The default delegates to `checkpoint`;
    /// checkpointing managers should override it allocation-free.
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> bool {
        match self.checkpoint() {
            Some(snap) => {
                *out = snap;
                true
            }
            None => false,
        }
    }

    /// Restores dynamic state from a [`PowerManager::checkpoint`] blob.
    /// Default: unsupported.
    fn restore(&mut self, _snapshot: &[u8]) -> Result<(), String> {
        Err("this manager does not support checkpoint/restore".into())
    }

    /// Hierarchical managers expose their per-shard unit spans and budget
    /// grants so external monitors can re-check budget safety at every
    /// tree level (shard caps sum ≤ shard grant, grants sum ≤ cluster
    /// budget); `None` for flat managers.
    fn shard_view(&self) -> Option<&[ShardSpan]> {
        None
    }

    /// Attaches a structured trace sink (`dps-obs`): instrumented managers
    /// emit their per-cycle decision events (cap deltas, priority flips,
    /// restore/readjust outcomes, guard transitions, ...) through it.
    /// Default no-op for uninstrumented managers. Attaching resets the
    /// manager's trace cycle counter to the next `assign_caps` call.
    fn attach_trace(&mut self, _sink: dps_obs::SinkHandle) {}

    /// Resets all internal state (between repetitions).
    fn reset(&mut self);
}

/// Shared precondition for [`PowerManager::set_budget`] implementations:
/// the new budget must be finite, positive, and able to cover every unit at
/// its minimum cap. Returns a descriptive error and leaves the manager
/// untouched otherwise.
pub fn check_new_budget(
    new_budget: Watts,
    num_units: usize,
    limits: UnitLimits,
) -> Result<(), String> {
    if !new_budget.is_finite() || new_budget <= 0.0 {
        return Err(format!(
            "new budget must be finite and positive, got {new_budget}"
        ));
    }
    limits.check_feasible(new_budget, num_units)
}

/// The equal-share cap: `budget / n`, clamped to unit limits — both the
/// constant-allocation policy and the "initial cap" DPS restores to.
pub fn constant_cap(total_budget: Watts, num_units: usize, limits: UnitLimits) -> Watts {
    assert!(num_units > 0, "need at least one unit");
    limits.clamp(total_budget / num_units as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_inverts_display() {
        let kinds = [
            ManagerKind::Constant,
            ManagerKind::Slurm,
            ManagerKind::Dps,
            ManagerKind::Oracle,
            ManagerKind::Feedback,
            ManagerKind::Predictive,
            ManagerKind::TwoLevel,
            ManagerKind::Qdpm,
            ManagerKind::Sharded,
        ];
        for kind in kinds {
            assert_eq!(ManagerKind::from_name(&kind.to_string()), Some(kind));
        }
        assert_eq!(
            ManagerKind::from_name("tWoLeVeL"),
            Some(ManagerKind::TwoLevel)
        );
        assert_eq!(ManagerKind::from_name("qdpm"), Some(ManagerKind::Qdpm));
        assert_eq!(ManagerKind::from_name("nonsense"), None);
    }

    #[test]
    fn limits_clamp() {
        let l = UnitLimits::xeon_gold_6240();
        assert_eq!(l.clamp(200.0), 165.0);
        assert_eq!(l.clamp(10.0), 40.0);
        assert_eq!(l.clamp(110.0), 110.0);
        assert_eq!(l.clamp(f64::NAN), 40.0);
    }

    #[test]
    fn constant_cap_paper_setup() {
        // 20 sockets × 165 W TDP at a 66.7 % budget → 110 W per socket.
        let budget = 20.0 * 165.0 * 2.0 / 3.0;
        let cap = constant_cap(budget, 20, UnitLimits::xeon_gold_6240());
        assert!((cap - 110.0).abs() < 1e-9);
    }

    #[test]
    fn constant_cap_clamped_to_tdp() {
        let cap = constant_cap(10_000.0, 2, UnitLimits::xeon_gold_6240());
        assert_eq!(cap, 165.0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(ManagerKind::Dps.to_string(), "DPS");
        assert_eq!(ManagerKind::Slurm.to_string(), "SLURM");
        assert_eq!(ManagerKind::Constant.to_string(), "Constant");
        assert_eq!(ManagerKind::Oracle.to_string(), "Oracle");
        assert_eq!(ManagerKind::Qdpm.to_string(), "QDPM");
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn constant_cap_zero_units_panics() {
        constant_cap(100.0, 0, UnitLimits::xeon_gold_6240());
    }
}
