//! The per-cycle cluster simulation loop.
//!
//! Wiring per decision cycle (period `dT`, default 1 s):
//!
//! 1. each cluster's job translates its current work position into a power
//!    demand per socket (per-socket program variants);
//! 2. the RAPL domains deliver `min(demand, cap)` (with the idle floor) and
//!    accumulate energy;
//! 3. node clients read the (noisy) energy counters → measurements;
//! 4. the power manager observes the measurements (the oracle additionally
//!    sees true demand) and rewrites the caps;
//! 5. the new caps are programmed into the domains (they take effect next
//!    window, as in a real deployment);
//! 6. each cluster's job advances at the pace of its slowest socket
//!    (barrier-synchronised data-parallel execution);
//! 7. satisfaction trackers record the window; callers read the cycle's
//!    demands, measurements, caps and scheduler events through the
//!    accessors, and the `dps-obs` sink (if attached) traces it.

use crate::chaos::ChaosSchedule;
use crate::invariant::{InvariantConfig, InvariantInputs, InvariantMonitor};
use crate::satisfaction::SatisfactionTracker;
use crate::shocks::BudgetSchedule;
use dps_core::guard::HealthState;
use dps_core::manager::PowerManager;
use dps_core::{ConfidenceReport, ModeConfig, ModeMachine, OperatingMode};
use dps_ctrl::frame::Frame;
use dps_ctrl::{CtrlStats, FramedConfig, FramedControlPlane};
use dps_idle::{Demotion, IdleConfig, IdleFleet, WakeFinished};
use dps_obs::{Event, FaultDomain, PhaseKind, ProvisionKind, SinkHandle};
use dps_rapl::{DomainBank, DomainSpec, NoiseModel, PowerInterface, Topology, UnitFaultSchedule};
use dps_sched::{JobRecord, JobScheduler, SchedConfig, SchedEvent};
use dps_sim_core::rng::RngStream;
use dps_sim_core::units::{Seconds, SimClock, Watts};
use dps_traffic::{RequestStats, TrafficConfig, TrafficDriver};
use dps_workloads::{DemandProgram, PerfModel, Phase, RunningWorkload};

/// How measurements and cap assignments travel between the manager and the
/// units. See the "Control-plane modes" section of `DESIGN.md`.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ControlPlaneMode {
    /// Instantaneous, lossless shared-memory exchange: the manager reads
    /// measurements and writes caps as plain f64s. The default — the
    /// quantization below is far under the measurement noise.
    #[default]
    Direct,
    /// Values round-trip through the 3-byte wire frames
    /// ([`dps_ctrl::frame`]) and quantize to 0.1 W exactly as they would
    /// over the testbed's sockets, but transport is still instantaneous
    /// and lossless.
    Quantized,
    /// The full framed control plane ([`dps_ctrl`]): polls, reports, cap
    /// assignments and acks travel as frames on per-node lossy links with
    /// latency, drops, corruption and a fault schedule; the controller
    /// keeps hold-last telemetry and the budget-safety invariant. With a
    /// zero-fault link this reproduces [`ControlPlaneMode::Quantized`]
    /// bit for bit.
    Framed(FramedConfig),
}

/// Static simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster/node/socket topology.
    pub topology: Topology,
    /// Per-socket power domain spec.
    pub domain_spec: DomainSpec,
    /// RAPL measurement noise.
    pub noise: NoiseModel,
    /// Power→progress model.
    pub perf: PerfModel,
    /// Decision period in seconds.
    pub period: Seconds,
    /// Cluster-wide budget as a fraction of aggregate TDP.
    pub budget_fraction: f64,
    /// Idle seconds between repeated runs of a workload.
    pub idle_gap: Seconds,
    /// How manager and units exchange measurements and caps.
    pub control_plane: ControlPlaneMode,
    /// Scripted sensor/actuator faults injected at the RAPL substrate
    /// (empty = fault-free hardware).
    pub sensor_faults: UnitFaultSchedule,
    /// Optional power-aware job scheduler ([`dps_sched`]): jobs arrive over
    /// time, occupy whole nodes, and drive unit churn. `None` (the default)
    /// keeps the classic one-workload-per-cluster pinning, bit-identical to
    /// pre-scheduler behaviour. Consumed by [`ClusterSim::with_scheduler`].
    pub scheduler: Option<SchedConfig>,
    /// Optional request-driven traffic layer ([`dps_traffic`]): a seeded
    /// arrival stream drives per-socket service demand while an elastic
    /// provisioner powers whole nodes on and off. `None` (the default)
    /// keeps the request layer out entirely. Consumed by
    /// [`ClusterSim::with_traffic`]; mutually exclusive with `scheduler`.
    pub traffic: Option<TrafficConfig>,
    /// Optional per-unit sleep-state management ([`dps_idle`]), traffic
    /// mode only: instead of hard power-off, the provisioner demotes dark
    /// units along a C-state-like ladder, wake latency delays their
    /// readmission, and residency/wake energy is charged to the request
    /// ledger. `None` (the default) keeps hard power-off, bit-identical to
    /// the pre-idle behaviour.
    pub idle: Option<IdleConfig>,
    /// Budget-over-time schedule: a factor multiplying the base budget
    /// each cycle, pushed to the manager through
    /// [`PowerManager::set_budget`]. [`BudgetSchedule::constant`] (the
    /// default) reproduces the fixed-budget world bit for bit.
    pub budget: BudgetSchedule,
    /// Correlated cross-layer chaos windows ([`crate::chaos`]), compiled
    /// into the per-layer fault schedules at construction.
    /// [`ChaosSchedule::none`] (the default) injects nothing.
    pub chaos: ChaosSchedule,
    /// Thresholds for the graceful-degradation operating-mode ladder
    /// (`Normal → Degraded → SafeMode`, [`dps_core::mode`]).
    pub mode: ModeConfig,
}

impl SimConfig {
    /// The paper's setup: 2×5×2 sockets, 165 W TDP, 66.7 % budget
    /// (110 W/socket), 1 s decisions.
    pub fn paper_default() -> Self {
        Self {
            topology: Topology::paper_testbed(),
            domain_spec: DomainSpec::xeon_gold_6240(),
            noise: NoiseModel::default(),
            perf: PerfModel::paper_default(),
            period: 1.0,
            budget_fraction: 2.0 / 3.0,
            idle_gap: 10.0,
            control_plane: ControlPlaneMode::Direct,
            sensor_faults: UnitFaultSchedule::none(),
            scheduler: None,
            traffic: None,
            idle: None,
            budget: BudgetSchedule::constant(),
            chaos: ChaosSchedule::none(),
            mode: ModeConfig::default(),
        }
    }

    /// Nodes across all clusters (the framed control plane's agent count).
    pub fn total_nodes(&self) -> usize {
        self.topology.clusters * self.topology.nodes_per_cluster
    }

    /// The cluster-wide power budget in Watts.
    pub fn total_budget(&self) -> Watts {
        self.topology.total_units() as f64 * self.domain_spec.tdp * self.budget_fraction
    }

    /// Checks the configuration is physically realisable. In particular the
    /// budget must cover every unit's minimum cap — below that no manager
    /// can respect both the budget and the hardware floor, and silently
    /// running anyway would fabricate results.
    pub fn validate(&self) -> Result<(), String> {
        self.domain_spec.validate()?;
        if !(self.period.is_finite() && self.period > 0.0) {
            return Err(format!("period must be positive, got {}", self.period));
        }
        if self.budget_fraction.is_nan() {
            return Err("budget_fraction must not be NaN".to_string());
        }
        if !(self.budget_fraction.is_finite()
            && 0.0 < self.budget_fraction
            && self.budget_fraction <= 1.0)
        {
            return Err(format!(
                "budget_fraction must be finite in (0,1], got {}",
                self.budget_fraction
            ));
        }
        if !(self.idle_gap.is_finite() && self.idle_gap >= 0.0) {
            return Err(format!(
                "idle_gap must be non-negative, got {}",
                self.idle_gap
            ));
        }
        let floor = self.domain_spec.min_cap * self.topology.total_units() as f64;
        if self.total_budget() < floor {
            return Err(format!(
                "budget {:.1} W cannot cover {} units at the {:.0} W minimum cap \
                 ({:.1} W required)",
                self.total_budget(),
                self.topology.total_units(),
                self.domain_spec.min_cap,
                floor
            ));
        }
        self.budget.validate()?;
        self.chaos.validate(&self.topology)?;
        self.mode.validate()?;
        // The schedule's deepest shock (and any concurrent chaos factor)
        // must still cover the hardware floor, or no manager could ever
        // get back under budget.
        let min_budget =
            self.total_budget() * self.budget.min_factor() * self.chaos.min_budget_factor();
        if min_budget < floor {
            return Err(format!(
                "scheduled budget trough {:.1} W cannot cover {} units at the {:.0} W \
                 minimum cap ({:.1} W required)",
                min_budget,
                self.topology.total_units(),
                self.domain_spec.min_cap,
                floor
            ));
        }
        if self.chaos.has_churn() && (self.scheduler.is_some() || self.traffic.is_some()) {
            return Err(
                "chaos node churn requires the pinned placement mode: scheduler and \
                 traffic modes already drive unit membership and would fight over \
                 observe_membership"
                    .to_string(),
            );
        }
        if let ControlPlaneMode::Framed(framed) = &self.control_plane {
            framed.validate(self.total_nodes(), self.period)?;
        }
        self.sensor_faults.validate(self.topology.total_units())?;
        if let Some(sched) = &self.scheduler {
            sched.validate()?;
        }
        if let Some(traffic) = &self.traffic {
            traffic.validate()?;
            if self.scheduler.is_some() {
                return Err(
                    "scheduler and traffic modes are mutually exclusive: both drive \
                     unit membership and would fight over observe_membership"
                        .to_string(),
                );
            }
        }
        if let Some(idle) = &self.idle {
            idle.validate()?;
            if self.traffic.is_none() {
                return Err("idle management requires traffic mode: only the elastic \
                     provisioner produces the dark units the sleep ladder manages"
                    .to_string());
            }
        }
        Ok(())
    }
}

/// Produces the demand program for run `index` of a cluster's workload —
/// per-run realisation variance (§6.1). A fixed program is the degenerate
/// factory that ignores the index.
pub type ProgramFactory = Box<dyn FnMut(usize) -> DemandProgram + Send>;

/// One cluster's job: the shared run state plus per-socket demand variants.
struct ClusterJob {
    run: RunningWorkload,
    socket_programs: Vec<DemandProgram>,
    /// Regenerates the program per run; `None` replays the same program.
    factory: Option<ProgramFactory>,
    /// Run index the current program realises.
    realized_run: usize,
    /// Stream for per-run socket variants.
    variant_rng: RngStream,
}

/// One scheduled job currently running on its allocated sockets
/// (scheduler mode).
struct ActiveJob {
    id: usize,
    run: RunningWorkload,
    socket_programs: Vec<DemandProgram>,
    /// Global unit indices the job occupies (whole nodes).
    units: Vec<usize>,
}

/// Scheduler-mode state: the queue plus the realised running jobs.
struct SchedState {
    scheduler: JobScheduler,
    jobs: Vec<ActiveJob>,
    /// Per-unit occupancy, mirrored to the manager on change.
    occupied: Vec<bool>,
    enforce_walltime: bool,
    /// Stream deriving each job's program realisation and socket variants.
    job_rng: RngStream,
}

/// Traffic-mode state: the request engine plus per-socket serving loops.
struct TrafficState {
    driver: TrafficDriver,
    /// One repeating service workload per unit (per-socket program
    /// variants); each advances at the speed its granted power allows.
    sockets: Vec<RunningWorkload>,
    /// Per-unit occupancy (expanded from the driver's per-node powered
    /// mask), mirrored to the manager on provisioning changes.
    occupied: Vec<bool>,
    /// Sleep-state runtime; `None` keeps the hard power-off model.
    fleet: Option<IdleFleet>,
    /// Scratch for demotions surfaced each cycle (steady state allocates
    /// nothing).
    demotions: Vec<Demotion>,
    /// Scratch for wakes completing each cycle.
    wakes: Vec<WakeFinished>,
}

/// Builds the per-socket demand variants for one base program.
fn make_variants(
    base: &DemandProgram,
    tdp: f64,
    per_cluster: usize,
    rng: &RngStream,
) -> Vec<DemandProgram> {
    (0..per_cluster)
        .map(|s| dps_workloads::generator::socket_variant(base, tdp, s, rng))
        .collect()
}

/// The simulator.
///
/// ```
/// use dps_cluster::{ClusterSim, ExperimentConfig};
/// use dps_core::manager::ManagerKind;
/// use dps_rapl::Topology;
/// use dps_sim_core::RngStream;
/// use dps_workloads::{DemandProgram, Phase};
///
/// // A downsized testbed: 2 clusters × 1 node × 2 sockets under DPS.
/// let mut cfg = ExperimentConfig::paper_default(1, 1);
/// cfg.sim.topology = Topology::new(2, 1, 2);
///
/// let hot = DemandProgram::new(vec![Phase::constant(30.0, 150.0)]);
/// let cool = DemandProgram::new(vec![Phase::constant(30.0, 50.0)]);
/// let mut sim = ClusterSim::new(
///     cfg.sim.clone(),
///     vec![hot, cool],
///     cfg.build_manager(ManagerKind::Dps),
///     &RngStream::new(1, "docs"),
/// );
///
/// // Run until the hot cluster's job completes once.
/// sim.run_until(10_000, |s| s.runs_completed(0) >= 1);
/// assert_eq!(sim.runs_completed(0), 1);
/// assert!(sim.fairness(0, 1) > 0.5);
/// ```
pub struct ClusterSim {
    config: SimConfig,
    bank: DomainBank,
    jobs: Vec<ClusterJob>,
    manager: Box<dyn PowerManager>,
    clock: SimClock,
    caps: Vec<Watts>,
    satisfaction: Vec<SatisfactionTracker>,
    /// The framed control plane; present iff the mode is
    /// [`ControlPlaneMode::Framed`].
    plane: Option<FramedControlPlane>,
    // Scratch buffers reused each cycle (steady state allocates nothing).
    demands: Vec<Watts>,
    measured: Vec<Watts>,
    true_power: Vec<Watts>,
    applied: Vec<Watts>,
    /// Scheduler events drained during the last cycle (swapped with the
    /// scheduler's buffer, so both keep their capacity).
    sched_events: Vec<SchedEvent>,
    /// Checkpoint the manager every N cycles (watchdog); `None` disables.
    watchdog_every: Option<u64>,
    /// Latest watchdog snapshot, if the manager supports checkpointing.
    last_checkpoint: Option<Vec<u8>>,
    /// Scheduler-mode state; `None` in the classic pinned-workload mode.
    sched: Option<SchedState>,
    /// Traffic-mode state; `None` outside traffic mode.
    traffic: Option<TrafficState>,
    /// Structured trace sink (`dps-obs`); no-op unless
    /// [`ClusterSim::set_trace_sink`] was called.
    sink: SinkHandle,
    /// Control-plane counters at the end of the previous cycle, for
    /// per-cycle [`Event::ControlPlaneDelta`] deltas.
    prev_ctrl: CtrlStats,
    /// Caps at the start of the cycle (trace scratch, for `caps_changed`).
    trace_caps: Vec<Watts>,
    /// Per-unit fault-window actives at the last sample (trace scratch,
    /// for [`Event::FaultEdge`] edge detection): sensor then actuator.
    fault_sensor: Vec<bool>,
    fault_actuator: Vec<bool>,
    /// Graceful-degradation ladder state (`Normal → Degraded → SafeMode`).
    mode_machine: ModeMachine,
    /// Confidence report computed at the end of the previous cycle; the
    /// ladder steps on it at the start of the next.
    confidence: ConfidenceReport,
    /// Control-plane gather misses at the end of the previous cycle
    /// (stale-rate confidence input; independent of the tracing deltas,
    /// which only update while a sink is attached).
    prev_gather_misses: u64,
    /// Caps last assigned under `Normal` — what `Degraded` freezes to.
    last_good: Vec<Watts>,
    /// Scratch for shadow assignments in degraded modes (the manager's
    /// statistics advance on these; the hardware never sees them).
    shadow_caps: Vec<Watts>,
    /// Always-on per-cycle safety monitor.
    monitor: InvariantMonitor,
    /// The configured base budget (`SimConfig::total_budget`).
    base_budget: Watts,
    /// Budget currently in force: base × schedule factor × chaos factor.
    current_budget: Watts,
    /// Per-unit chaos-churn state (true = node powered down by a window).
    chaos_down: Vec<bool>,
    /// Scratch for membership updates under chaos churn.
    membership: Vec<bool>,
}

impl ClusterSim {
    /// Builds a simulator running one workload per cluster under `manager`.
    ///
    /// `programs[c]` is cluster `c`'s base demand program; per-socket
    /// variants are derived deterministically from `rng`. The workload
    /// repeats with the configured idle gap.
    ///
    /// # Panics
    /// Panics unless one program per cluster is supplied and the config
    /// validates (see [`SimConfig::validate`]).
    pub fn new(
        config: SimConfig,
        programs: Vec<DemandProgram>,
        manager: Box<dyn PowerManager>,
        rng: &RngStream,
    ) -> Self {
        config.validate().expect("invalid sim config");
        assert_eq!(
            programs.len(),
            config.topology.clusters,
            "one program per cluster"
        );
        assert_eq!(
            manager.num_units(),
            config.topology.total_units(),
            "manager sized for the topology"
        );
        let mut config = config;
        // Compile chaos windows down into the per-layer fault schedules:
        // the RAPL substrate and the framed plane never learn about chaos,
        // they just see faults (and the fault-edge tracing covers both).
        if !config.chaos.is_empty() {
            for ev in config.chaos.unit_fault_events(&config.topology) {
                config.sensor_faults.push(ev);
            }
            let ctrl_events = config.chaos.ctrl_fault_events(&config.topology);
            if let ControlPlaneMode::Framed(framed) = &mut config.control_plane {
                for ev in ctrl_events {
                    framed.faults.push(ev);
                }
            }
        }
        let n = config.topology.total_units();
        let mut bank = DomainBank::homogeneous(n, config.domain_spec, config.noise.clone(), rng);
        if !config.sensor_faults.is_empty() {
            bank.set_faults(config.sensor_faults.clone(), rng);
        }

        let jobs = programs
            .into_iter()
            .enumerate()
            .map(|(c, base)| {
                let variant_rng = rng.child(&format!("cluster/{c}/variants"));
                let socket_programs = make_variants(
                    &base,
                    config.domain_spec.tdp,
                    config.topology.units_per_cluster(),
                    &variant_rng,
                );
                ClusterJob {
                    run: RunningWorkload::repeating(base, config.perf, config.idle_gap),
                    socket_programs,
                    factory: None,
                    realized_run: 0,
                    variant_rng,
                }
            })
            .collect();

        let limits = dps_core::manager::UnitLimits {
            min_cap: config.domain_spec.min_cap,
            max_cap: config.domain_spec.tdp,
        };
        let constant = dps_core::manager::constant_cap(config.total_budget(), n, limits);
        let plane = match &config.control_plane {
            ControlPlaneMode::Framed(framed) => Some(FramedControlPlane::new(
                config.total_nodes(),
                config.topology.sockets_per_node,
                config.total_budget(),
                limits,
                constant,
                framed.clone(),
                &rng.child("ctrl"),
            )),
            _ => None,
        };
        let mut sim = Self {
            plane,
            caps: vec![constant; n],
            satisfaction: (0..config.topology.clusters)
                .map(|_| SatisfactionTracker::new())
                .collect(),
            demands: vec![0.0; n],
            measured: vec![0.0; n],
            true_power: vec![0.0; n],
            applied: vec![0.0; n],
            sched_events: Vec::new(),
            watchdog_every: None,
            last_checkpoint: None,
            sched: None,
            traffic: None,
            sink: SinkHandle::noop(),
            prev_ctrl: CtrlStats::default(),
            trace_caps: Vec::new(),
            fault_sensor: vec![false; n],
            fault_actuator: vec![false; n],
            mode_machine: ModeMachine::new(config.mode),
            confidence: ConfidenceReport::clean(),
            prev_gather_misses: 0,
            last_good: vec![constant; n],
            shadow_caps: vec![constant; n],
            monitor: InvariantMonitor::new(InvariantConfig::for_plane(&config.control_plane, n)),
            base_budget: config.total_budget(),
            current_budget: config.total_budget(),
            chaos_down: vec![false; n],
            membership: vec![true; n],
            clock: SimClock::new(config.period),
            bank,
            jobs,
            manager,
            config,
        };
        for u in 0..n {
            sim.bank.set_cap(u, sim.caps[u]);
        }
        sim
    }

    /// Builds a simulator whose workloads regenerate per run: `factories[c]`
    /// is called with the run index to produce each realisation of cluster
    /// `c`'s program (run 0 is generated immediately).
    ///
    /// Realisations swap at run boundaries, which are only observable when
    /// `idle_gap >= period` (the default setup). With a shorter gap the next
    /// run can start inside the completing window, in which case it reuses
    /// the previous realisation and the swap lands one run later.
    ///
    /// # Panics
    /// Panics unless one factory per cluster is supplied (plus the
    /// [`ClusterSim::new`] conditions).
    pub fn with_factories(
        config: SimConfig,
        mut factories: Vec<ProgramFactory>,
        manager: Box<dyn PowerManager>,
        rng: &RngStream,
    ) -> Self {
        assert_eq!(
            factories.len(),
            config.topology.clusters,
            "one factory per cluster"
        );
        let programs: Vec<DemandProgram> = factories.iter_mut().map(|f| f(0)).collect();
        let mut sim = Self::new(config, programs, manager, rng);
        for (job, factory) in sim.jobs.iter_mut().zip(factories) {
            job.factory = Some(factory);
        }
        sim
    }

    /// Builds a simulator in **scheduler mode**: instead of one pinned
    /// workload per cluster, jobs arrive over time (per
    /// `config.scheduler`, which must be `Some`), are admitted by the
    /// FIFO + EASY-backfill queue under node *and* power-reservation
    /// constraints, and occupy whole nodes while they run. Job starts,
    /// finishes and evictions drive unit churn: the manager learns about
    /// occupancy flips through [`PowerManager::observe_membership`].
    ///
    /// The arrival trace is realised from `rng.child("sched/arrivals")`, so
    /// two managers built from the same `rng` face the identical job
    /// sequence.
    ///
    /// The pinned-mode accessors tied to cluster workloads
    /// ([`ClusterSim::runs_completed`], [`ClusterSim::run_durations`])
    /// have no jobs to report on in this mode and panic if indexed.
    ///
    /// # Panics
    /// Panics when `config.scheduler` is `None`, the config does not
    /// validate, or the arrival trace contains a job that could never fit
    /// the cluster.
    pub fn with_scheduler(
        config: SimConfig,
        manager: Box<dyn PowerManager>,
        rng: &RngStream,
    ) -> Self {
        let sched_cfg = config
            .scheduler
            .clone()
            .expect("SimConfig::scheduler must be Some for scheduler mode");
        config.validate().expect("invalid sim config");
        let n = config.topology.total_units();
        let budget = config.total_budget();
        let share = budget / n as f64;
        let mut arrival_rng = rng.child("sched/arrivals");
        let trace = sched_cfg.arrivals.generate(
            config.total_nodes(),
            config.domain_spec.tdp,
            share,
            sched_cfg.walltime_factor,
            &mut arrival_rng,
        );
        let scheduler = JobScheduler::new(
            trace,
            config.total_nodes(),
            config.topology.sockets_per_node,
            budget,
            sched_cfg.backfill,
        )
        .expect("arrival trace must fit the cluster");

        // Reuse the pinned-mode construction for the plant and control
        // plumbing, then swap the placeholder workloads out for scheduler
        // state (an idle cluster until jobs land).
        let mut base_cfg = config;
        base_cfg.scheduler = None;
        let placeholder: Vec<DemandProgram> = (0..base_cfg.topology.clusters)
            .map(|_| DemandProgram::new(vec![Phase::constant(1.0, 0.0)]))
            .collect();
        let mut sim = Self::new(base_cfg, placeholder, manager, rng);
        sim.config.scheduler = Some(sched_cfg.clone());
        sim.jobs.clear();
        let occupied = vec![false; n];
        sim.manager.observe_membership(&occupied);
        sim.sched = Some(SchedState {
            scheduler,
            jobs: Vec::new(),
            occupied,
            enforce_walltime: sched_cfg.enforce_walltime,
            job_rng: rng.child("sched/jobs"),
        });
        sim
    }

    /// Builds a simulator in **traffic mode**: a seeded request stream
    /// (per `config.traffic`, which must be `Some`) drives per-socket
    /// service demand, and the configured provisioner powers whole nodes
    /// on and off through [`PowerManager::observe_membership`] while DPS
    /// redistributes the budget among the powered sockets each cycle.
    ///
    /// Every unit hosts its own repeating realisation of the service
    /// workload (per-socket variants derived from `rng`), scaled each
    /// window by how much of the fleet's service capacity the request
    /// backlog can fill. The arrival stream is realised from
    /// `rng.child("traffic")`, so two managers built from the same `rng`
    /// face the identical request sequence.
    ///
    /// The pinned-mode accessors tied to cluster workloads
    /// ([`ClusterSim::runs_completed`], [`ClusterSim::run_durations`])
    /// have no jobs to report on in this mode and panic if indexed.
    ///
    /// # Panics
    /// Panics when `config.traffic` is `None` or the config does not
    /// validate.
    pub fn with_traffic(
        config: SimConfig,
        manager: Box<dyn PowerManager>,
        rng: &RngStream,
    ) -> Self {
        let traffic_cfg = config
            .traffic
            .clone()
            .expect("SimConfig::traffic must be Some for traffic mode");
        config.validate().expect("invalid sim config");
        let n = config.topology.total_units();
        let spk = config.topology.sockets_per_node;
        let driver = TrafficDriver::new(
            traffic_cfg.clone(),
            config.total_nodes(),
            spk,
            rng.child("traffic"),
        );

        // Per-unit serving loops: one base realisation of the service
        // workload, a deterministic per-socket variant each, repeating
        // back-to-back (a serving socket never idles between runs; request
        // pressure scales its demand instead).
        let mut service_rng = rng.child("traffic/service");
        let seed = service_rng.next_u64();
        let base = dps_workloads::build_program(&traffic_cfg.service, &config.perf, seed);
        let sockets: Vec<RunningWorkload> = (0..n)
            .map(|u| {
                let program = dps_workloads::generator::socket_variant(
                    &base,
                    config.domain_spec.tdp,
                    u,
                    &service_rng,
                );
                RunningWorkload::repeating(program, config.perf, 0.0)
            })
            .collect();

        // Reuse the pinned-mode construction for the plant and control
        // plumbing, then swap the placeholder workloads out for the
        // request engine.
        let mut base_cfg = config;
        base_cfg.traffic = None;
        let idle_cfg = base_cfg.idle.take();
        let placeholder: Vec<DemandProgram> = (0..base_cfg.topology.clusters)
            .map(|_| DemandProgram::new(vec![Phase::constant(1.0, 0.0)]))
            .collect();
        let mut sim = Self::new(base_cfg, placeholder, manager, rng);
        sim.config.traffic = Some(traffic_cfg);
        sim.config.idle = idle_cfg.clone();
        sim.jobs.clear();
        let mut occupied = vec![false; n];
        for (node, &on) in driver.powered().iter().enumerate() {
            if on {
                occupied[node * spk..(node + 1) * spk].fill(true);
            }
        }
        sim.manager.observe_membership(&occupied);
        // With idle management, the initially dark units start on the
        // sleep ladder rather than hard-off (no sink is attached yet, so
        // these construction-time demotions emit nothing).
        let fleet = idle_cfg.map(|ic| {
            let mut fleet = IdleFleet::new(n, ic, rng.child("idle"));
            for (u, &on) in occupied.iter().enumerate() {
                if !on {
                    fleet.demote(u, 0.0);
                }
            }
            fleet
        });
        sim.traffic = Some(TrafficState {
            driver,
            sockets,
            occupied,
            fleet,
            demotions: Vec::new(),
            wakes: Vec::new(),
        });
        sim
    }

    /// Attaches a structured trace sink (`dps-obs`) to the simulator and
    /// its manager. The simulator emits the cycle envelope (cycle
    /// start/end, fault edges, control-plane deltas, scheduler lifecycle
    /// events, checkpoints); an instrumented manager emits its decision
    /// events (cap deltas, priority flips, readjust outcomes, guard
    /// transitions) through the same sink, so a single trace interleaves
    /// both layers in order. Attach before the first [`ClusterSim::cycle`]
    /// for a trace whose cycle indices start at 0; attaching mid-run is
    /// allowed and starts the envelope at the current timestep (the
    /// manager restarts its own counter at the next `assign_caps`).
    pub fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.sink = sink.clone();
        self.manager.attach_trace(sink);
        // Baseline the delta trackers at the attach point so the first
        // traced cycle reports only what happens from here on.
        self.prev_ctrl = self.control_plane_stats().unwrap_or_default();
        let now = self.clock.now();
        for u in 0..self.fault_sensor.len() {
            let (s, a) = self.config.sensor_faults.active_kinds(u, now);
            self.fault_sensor[u] = s;
            self.fault_actuator[u] = a;
        }
    }

    /// The attached trace sink (a no-op handle unless
    /// [`ClusterSim::set_trace_sink`] was called).
    pub fn trace_sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// The sim config.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current caps (as last assigned by the manager).
    pub fn caps(&self) -> &[Watts] {
        &self.caps
    }

    /// Per-unit true (uncapped) demand of the last cycle's window.
    pub fn demands(&self) -> &[Watts] {
        &self.demands
    }

    /// Per-unit power as the manager measured it in the last cycle (NaN for
    /// a unit whose sensor dropped out).
    pub fn measured(&self) -> &[Watts] {
        &self.measured
    }

    /// Scheduler lifecycle events that fired during the last cycle, in
    /// firing order (empty outside scheduler mode).
    pub fn sched_events(&self) -> &[SchedEvent] {
        &self.sched_events
    }

    /// Completed run count for a cluster's workload.
    pub fn runs_completed(&self, cluster: usize) -> usize {
        self.jobs[cluster].run.runs_completed()
    }

    /// Completed run durations for a cluster's workload.
    pub fn run_durations(&self, cluster: usize) -> &[Seconds] {
        self.jobs[cluster].run.run_durations()
    }

    /// Satisfaction of a cluster so far (Eq. 1).
    pub fn satisfaction(&self, cluster: usize) -> f64 {
        self.satisfaction[cluster].satisfaction()
    }

    /// Fairness between two clusters so far (Eq. 2).
    pub fn fairness(&self, i: usize, j: usize) -> f64 {
        1.0 - (self.satisfaction(i) - self.satisfaction(j)).abs()
    }

    /// Simulated time.
    pub fn now(&self) -> Seconds {
        self.clock.now()
    }

    /// Elapsed decision cycles.
    pub fn timestep(&self) -> u64 {
        self.clock.timestep()
    }

    /// The manager's priority flags (DPS only).
    pub fn priorities(&self) -> Option<&[bool]> {
        self.manager.priorities()
    }

    /// The job scheduler, when running in scheduler mode.
    pub fn scheduler(&self) -> Option<&JobScheduler> {
        self.sched.as_ref().map(|s| &s.scheduler)
    }

    /// Per-unit occupancy in scheduler or traffic mode; `None` in pinned
    /// mode (where every unit hosts its cluster's workload for the whole
    /// run).
    pub fn occupied_units(&self) -> Option<&[bool]> {
        self.sched
            .as_ref()
            .map(|s| s.occupied.as_slice())
            .or_else(|| self.traffic.as_ref().map(|t| t.occupied.as_slice()))
    }

    /// The traffic driver, when running in traffic mode.
    pub fn traffic_driver(&self) -> Option<&TrafficDriver> {
        self.traffic.as_ref().map(|t| &t.driver)
    }

    /// Cumulative request bookkeeping in traffic mode; `None` otherwise.
    pub fn request_stats(&self) -> Option<&RequestStats> {
        self.traffic.as_ref().map(|t| t.driver.stats())
    }

    /// Retired job records in scheduler mode (empty in pinned mode).
    pub fn job_records(&self) -> &[JobRecord] {
        self.sched
            .as_ref()
            .map(|s| s.scheduler.records())
            .unwrap_or(&[])
    }

    /// True when the scheduler has no arrivals, queued, or running jobs
    /// left (always false in pinned mode).
    pub fn scheduler_drained(&self) -> bool {
        self.sched
            .as_ref()
            .is_some_and(|s| s.scheduler.is_drained())
    }

    /// The framed control plane, when one is running
    /// ([`ControlPlaneMode::Framed`]); `None` in the other modes.
    pub fn control_plane(&self) -> Option<&FramedControlPlane> {
        self.plane.as_ref()
    }

    /// Control-plane statistics (framed mode only).
    pub fn control_plane_stats(&self) -> Option<CtrlStats> {
        self.plane.as_ref().map(|p| p.stats())
    }

    /// Per-unit caps actually in force at the hardware after the last
    /// cycle's programming (the readback that write verification sees).
    /// Diverges from [`ClusterSim::caps`] exactly when actuator faults are
    /// swallowing or mangling writes.
    pub fn applied_caps(&self) -> &[Watts] {
        &self.applied
    }

    /// Per-unit telemetry health as judged by the manager's guard; `None`
    /// for managers without health gating.
    pub fn health(&self) -> Option<&[HealthState]> {
        self.manager.health()
    }

    /// The operating mode the next cycle will run under (the ladder steps
    /// at cycle start, so after [`ClusterSim::cycle`] returns this is the
    /// mode that just ran).
    pub fn operating_mode(&self) -> OperatingMode {
        self.mode_machine.mode()
    }

    /// The budget currently in force (base × schedule × chaos factors).
    pub fn current_budget(&self) -> Watts {
        self.current_budget
    }

    /// Total invariant violations reported by the always-on monitor.
    pub fn invariant_violations(&self) -> u64 {
        self.monitor.violations()
    }

    /// The manager's shard tree (`None` for flat managers) — lets
    /// differential harnesses assert the per-level budget invariant
    /// against [`ClusterSim::caps`] from outside the simulator.
    pub fn shard_view(&self) -> Option<&[dps_core::manager::ShardSpan]> {
        self.manager.shard_view()
    }

    /// Toggle panicking on hard invariant-check failures (defaults to on
    /// only inside this crate's own test build; integration harnesses that
    /// want the fail-fast behaviour opt in here).
    pub fn set_invariant_fail_fast(&mut self, on: bool) {
        self.monitor.set_fail_fast(on);
    }

    /// The confidence report computed at the end of the last cycle (what
    /// the ladder will step on next).
    pub fn confidence(&self) -> ConfidenceReport {
        self.confidence
    }

    /// Cumulative guard counters; `None` for managers without health gating.
    pub fn guard_stats(&self) -> Option<dps_core::GuardStats> {
        self.manager.guard_stats()
    }

    /// Enables the controller watchdog: every `every_cycles` cycles the
    /// manager is checkpointed (if it supports it; see
    /// [`PowerManager::checkpoint`]). The latest snapshot is what
    /// [`ClusterSim::crash_and_restore`] resumes from.
    ///
    /// # Panics
    /// Panics if `every_cycles` is 0.
    pub fn enable_watchdog(&mut self, every_cycles: u64) {
        assert!(every_cycles > 0, "watchdog period must be positive");
        self.watchdog_every = Some(every_cycles);
    }

    /// The latest watchdog snapshot, when one has been taken.
    pub fn last_checkpoint(&self) -> Option<&[u8]> {
        self.last_checkpoint.as_deref()
    }

    /// Simulates a controller crash-and-restart: the running manager is
    /// dropped (all its in-memory state lost) and replaced by `fresh` — a
    /// newly constructed manager with the same configuration — which is
    /// restored from the latest watchdog snapshot before taking over.
    ///
    /// Returns an error (leaving the old manager in place) if no snapshot
    /// has been taken, the snapshot fails validation, or `fresh` has the
    /// wrong shape.
    pub fn crash_and_restore(&mut self, mut fresh: Box<dyn PowerManager>) -> Result<(), String> {
        if fresh.num_units() != self.config.topology.total_units() {
            return Err(format!(
                "replacement manager has {} units, topology has {}",
                fresh.num_units(),
                self.config.topology.total_units()
            ));
        }
        let snap = self
            .last_checkpoint
            .as_ref()
            .ok_or_else(|| "no watchdog checkpoint to restore from".to_string())?;
        fresh.restore(snap)?;
        // The restored manager adopted the snapshot's budget; re-apply the
        // budget currently in force so a crash straddling a shock cannot
        // silently revert it.
        fresh.set_budget(self.current_budget)?;
        // The replacement inherits the trace sink (its per-process trace
        // cycle counter restarts at 0 — a restored controller is a new
        // process, and the envelope's `ControllerRestored` marks the seam).
        if self.sink.enabled() {
            fresh.attach_trace(self.sink.clone());
            self.sink.emit(Event::ControllerRestored {
                cycle: self.clock.timestep(),
            });
        }
        self.manager = fresh;
        Ok(())
    }

    /// Start-of-cycle scheduler phase: evict walltime overruns, admit due
    /// arrivals, realise newly started jobs on their sockets, and report
    /// occupancy flips to the manager (before it assigns caps).
    fn sched_begin(&mut self, st: &mut SchedState) {
        let now = self.clock.now();
        let mut membership_dirty = false;

        if st.enforce_walltime {
            for id in st.scheduler.overrunning(now) {
                st.scheduler.evict(id, now);
                if let Some(pos) = st.jobs.iter().position(|j| j.id == id) {
                    for &u in &st.jobs[pos].units {
                        st.occupied[u] = false;
                    }
                    st.jobs.swap_remove(pos);
                    membership_dirty = true;
                }
            }
        }

        let tdp = self.config.domain_spec.tdp;
        let spk = self.config.topology.sockets_per_node;
        for started in st.scheduler.tick(now) {
            // Each job gets its own program realisation (run-to-run
            // variance) and per-socket variants, all derived from the
            // job id so every manager sees the identical workload.
            let mut job_rng = st.job_rng.child(&format!("job{}", started.id));
            let seed = job_rng.next_u64();
            let base = dps_workloads::build_program(&started.spec, &self.config.perf, seed);
            let units: Vec<usize> = started
                .nodes
                .iter()
                .flat_map(|&node| node * spk..(node + 1) * spk)
                .collect();
            let socket_programs: Vec<DemandProgram> = (0..units.len())
                .map(|s| dps_workloads::generator::socket_variant(&base, tdp, s, &job_rng))
                .collect();
            for &u in &units {
                st.occupied[u] = true;
            }
            membership_dirty = true;
            st.jobs.push(ActiveJob {
                id: started.id,
                run: RunningWorkload::once(base, self.config.perf),
                socket_programs,
                units,
            });
        }

        if membership_dirty {
            self.manager.observe_membership(&st.occupied);
        }
    }

    /// Start-of-cycle traffic phase: the provisioner (re)sizes the powered
    /// fleet from last window's evidence and the generator contributes this
    /// window's arrivals. Node flips expand to unit occupancy and reach the
    /// manager (before it assigns caps), and each provisioning decision is
    /// emitted as an [`Event::Provision`].
    fn traffic_begin(&mut self, st: &mut TrafficState) {
        let now = self.clock.now();
        let spk = self.config.topology.sockets_per_node;
        let cycle = self.clock.timestep();
        let tracing = self.sink.enabled();
        let mut dirty = false;

        // Idle pre-phase: sleeping units deepen along their compiled
        // schedules, and wakes begun in earlier cycles complete — those
        // units rejoin the serving fleet this cycle.
        if let Some(fleet) = st.fleet.as_mut() {
            st.demotions.clear();
            fleet.advance(now, &mut st.demotions);
            if tracing {
                for d in &st.demotions {
                    self.sink.emit(Event::SleepTransition {
                        cycle,
                        unit: d.unit as u32,
                        from_state: d.from,
                        to_state: d.to,
                    });
                }
            }
            st.wakes.clear();
            fleet.tick_wakes(self.config.period, &mut st.wakes);
            for w in &st.wakes {
                st.occupied[w.unit] = true;
                dirty = true;
                if tracing {
                    self.sink.emit(Event::WakeDone {
                        cycle,
                        unit: w.unit as u32,
                        state: w.state,
                        energy_j: w.energy_j,
                    });
                    self.sink.emit(Event::PredictorSample {
                        cycle,
                        unit: w.unit as u32,
                        predicted_s: w.predicted_s,
                        actual_s: w.actual_s,
                    });
                }
            }
        }

        let begin = st.driver.begin_cycle(now, self.config.period);
        if begin.changes.is_empty() && !dirty {
            return;
        }
        for change in &begin.changes {
            for &node in &change.nodes {
                for u in node * spk..(node + 1) * spk {
                    match (st.fleet.as_mut(), change.power_on) {
                        // Sleep-managed power-on: begin the wake; the unit
                        // stays out of the serving fleet until the state's
                        // latency elapses (see the pre-phase above).
                        (Some(fleet), true) => {
                            if let Some(w) = fleet.begin_wake(u, now) {
                                if tracing {
                                    self.sink.emit(Event::WakeStart {
                                        cycle,
                                        unit: u as u32,
                                        state: w.state,
                                        latency_s: w.latency_s,
                                    });
                                }
                            }
                        }
                        // Sleep-managed power-off: demote onto the ladder
                        // instead of hard-off (a mid-wake unit is
                        // re-demoted — provisioner flapping).
                        (Some(fleet), false) => {
                            st.occupied[u] = false;
                            if let Some(d) = fleet.demote(u, now) {
                                if tracing {
                                    self.sink.emit(Event::SleepTransition {
                                        cycle,
                                        unit: u as u32,
                                        from_state: d.from,
                                        to_state: d.to,
                                    });
                                }
                            }
                        }
                        (None, on) => st.occupied[u] = on,
                    }
                }
            }
            dirty = true;
            if tracing {
                self.sink.emit(Event::Provision {
                    cycle,
                    kind: if change.power_on {
                        ProvisionKind::PowerOn
                    } else {
                        ProvisionKind::PowerOff
                    },
                    nodes: change.nodes.len() as u32,
                    active_nodes: change.active_after as u32,
                    utilization: change.utilization,
                });
            }
        }
        if dirty {
            self.manager.observe_membership(&st.occupied);
        }
    }

    /// Runs one decision cycle.
    pub fn cycle(&mut self) {
        let topo = self.config.topology;
        let period = self.config.period;
        let idle = self.config.domain_spec.idle_power;

        let tracing = self.sink.enabled();
        let timing = tracing && self.sink.timing();
        let t_cycle = timing.then(std::time::Instant::now);
        let cycle = self.clock.timestep();
        if tracing {
            self.sink.emit(Event::CycleStart {
                cycle,
                time_s: self.clock.now(),
            });
            // Scripted fault windows opening or closing at this timestep.
            if !self.config.sensor_faults.is_empty() {
                let now = self.clock.now();
                for u in 0..self.fault_sensor.len() {
                    let (s, a) = self.config.sensor_faults.active_kinds(u, now);
                    if s != self.fault_sensor[u] {
                        self.fault_sensor[u] = s;
                        self.sink.emit(Event::FaultEdge {
                            cycle,
                            unit: u as u32,
                            domain: FaultDomain::Sensor,
                            active: s,
                        });
                    }
                    if a != self.fault_actuator[u] {
                        self.fault_actuator[u] = a;
                        self.sink.emit(Event::FaultEdge {
                            cycle,
                            unit: u as u32,
                            domain: FaultDomain::Actuator,
                            active: a,
                        });
                    }
                }
            }
            // Caps entering the cycle, for the `caps_changed` churn count.
            self.trace_caps.clear();
            self.trace_caps.extend_from_slice(&self.caps);
        }

        // (0a) Effective budget for this cycle: base × schedule × chaos.
        // Changes are pushed to the manager (one-cycle compliance
        // contract, see `PowerManager::set_budget`) and the framed
        // controller before any caps are assigned.
        if !(self.config.budget.is_constant() && self.config.chaos.is_empty()) {
            let now = self.clock.now();
            let target = self.base_budget
                * self.config.budget.factor_at(now)
                * self.config.chaos.budget_factor_at(now);
            if (target - self.current_budget).abs() > dps_core::budget::BUDGET_EPSILON {
                self.manager
                    .set_budget(target)
                    .expect("scheduled budget was validated at construction");
                if let Some(plane) = self.plane.as_mut() {
                    plane.set_budget(target);
                }
                if tracing {
                    self.sink.emit(Event::BudgetShock {
                        cycle,
                        from_w: self.current_budget,
                        to_w: target,
                    });
                }
                self.current_budget = target;
            }
        }

        // (0b) Operating mode for this cycle, stepped on the previous
        // cycle's confidence report (immediate descent, hysteretic
        // re-ascent; see `dps_core::mode`).
        if let Some((from, to)) = self.mode_machine.step(&self.confidence) {
            if tracing {
                self.sink.emit(Event::ModeChange {
                    cycle,
                    from: from.to_obs(),
                    to: to.to_obs(),
                });
            }
        }
        let mode = self.mode_machine.mode();

        // (0c) Chaos node churn: units on powered-down racks leave managed
        // membership (and demand nothing below); they rejoin when the
        // window closes.
        if self.config.chaos.has_churn() {
            let now = self.clock.now();
            let mut dirty = false;
            for u in 0..self.chaos_down.len() {
                let down = self.config.chaos.unit_down(&topo, u, now);
                if down != self.chaos_down[u] {
                    self.chaos_down[u] = down;
                    dirty = true;
                }
            }
            if dirty {
                for u in 0..self.membership.len() {
                    self.membership[u] = !self.chaos_down[u];
                }
                self.manager.observe_membership(&self.membership);
            }
        }

        // (0) Scheduler/traffic phase (those modes only). Taken out of
        // `self` for the duration of the cycle to keep the borrows disjoint.
        let mut sched = self.sched.take();
        if let Some(st) = sched.as_mut() {
            self.sched_begin(st);
        }
        let mut traffic = self.traffic.take();
        if let Some(st) = traffic.as_mut() {
            self.traffic_begin(st);
        }

        // (1) Demands from job positions.
        if let Some(st) = traffic.as_ref() {
            // Traffic mode: every powered socket runs its serving loop at
            // the fraction of its capacity the request backlog can fill,
            // but never below the service's resident footprint — a powered
            // socket is not energy-proportional. Dark nodes demand nothing.
            let busy = st.driver.busy_fraction(period);
            let floor = st.driver.config().service_floor;
            for u in 0..self.demands.len() {
                self.demands[u] = if st.occupied[u] {
                    (busy * st.sockets[u].demand()).max(floor)
                } else {
                    0.0
                };
            }
        } else if let Some(st) = sched.as_ref() {
            // Scheduler mode: unoccupied sockets demand nothing.
            self.demands.fill(0.0);
            for job in &st.jobs {
                if job.run.demand() > 0.0 {
                    let pos = job.run.position();
                    for (k, &u) in job.units.iter().enumerate() {
                        self.demands[u] = job.socket_programs[k].demand_at(pos);
                    }
                }
            }
        } else {
            for (c, job) in self.jobs.iter().enumerate() {
                let active = job.run.demand() > 0.0;
                let pos = job.run.position();
                let range = topo.cluster_range(c);
                for (s, u) in range.enumerate() {
                    self.demands[u] = if active {
                        job.socket_programs[s].demand_at(pos)
                    } else {
                        0.0
                    };
                }
            }
        }
        if self.config.chaos.has_churn() {
            for u in 0..self.demands.len() {
                if self.chaos_down[u] {
                    self.demands[u] = 0.0;
                }
            }
        }

        // (2) Domains deliver power for this window.
        self.bank
            .step_all_into(&self.demands, period, &mut self.true_power);

        // (3)–(5) Measurements travel to the manager and caps travel back,
        // through whichever control plane the config selects.
        let quantized = self.config.control_plane == ControlPlaneMode::Quantized;
        if mode != OperatingMode::Normal {
            // Degraded/SafeMode: node-local failsafe. The framed plane (if
            // any) is bypassed — a degraded controller has stopped
            // trusting its telemetry path — and measurements are read
            // directly. The manager still runs a *shadow* assignment so
            // its statistics (above all the guard's health machines, whose
            // recovery the re-ascent depends on) keep advancing, but the
            // hardware never sees those caps. What is programmed is
            // mode-determined: `Degraded` holds the last-known-good caps
            // (re-squeezed if a shock shrank the budget under them);
            // `SafeMode` applies the telemetry-blind uniform split that
            // satisfies the budget with zero sensor trust.
            for u in 0..self.measured.len() {
                self.measured[u] = self.bank.read_power(u);
            }
            self.manager.observe_demands(&self.demands);
            self.shadow_caps.copy_from_slice(&self.caps);
            self.manager
                .assign_caps(&self.measured, &mut self.shadow_caps, period);
            let limits = dps_core::manager::UnitLimits {
                min_cap: self.config.domain_spec.min_cap,
                max_cap: self.config.domain_spec.tdp,
            };
            if mode == OperatingMode::SafeMode {
                let uniform =
                    dps_core::manager::constant_cap(self.current_budget, self.caps.len(), limits);
                self.caps.fill(uniform);
            } else {
                self.caps.copy_from_slice(&self.last_good);
                let sum: f64 = self.caps.iter().sum();
                if sum > self.current_budget + dps_core::budget::BUDGET_EPSILON {
                    dps_core::budget::enforce_budget(&mut self.caps, self.current_budget, limits);
                }
            }
            for (u, &cap) in self.caps.iter().enumerate() {
                self.bank.set_cap(u, cap);
            }
        } else if let Some(plane) = self.plane.as_mut() {
            // Framed: raw readings go to the node agents; the manager sees
            // the controller's hold-last telemetry, and the domains get
            // whatever caps the agents actually acknowledged.
            for u in 0..self.measured.len() {
                self.measured[u] = self.bank.read_power(u);
            }
            self.manager.observe_demands(&self.demands);
            plane.run_cycle(
                self.clock.now(),
                period,
                &self.measured,
                self.manager.as_mut(),
                &mut self.caps,
            );
            self.measured.copy_from_slice(plane.telemetry());
            for (u, &cap) in plane.applied_caps().iter().enumerate() {
                self.bank.set_cap(u, cap);
            }
        } else {
            // Direct/quantized: instantaneous exchange, optionally
            // round-tripped through the 3-byte wire frames.
            for u in 0..self.measured.len() {
                let reading = self.bank.read_power(u);
                self.measured[u] = if quantized {
                    let frame = Frame::power_report(reading);
                    Frame::decode(frame.encode())
                        .expect("own frame decodes")
                        .watts()
                } else {
                    reading
                };
            }
            self.manager.observe_demands(&self.demands);
            self.manager
                .assign_caps(&self.measured, &mut self.caps, period);
            for (u, &cap) in self.caps.iter().enumerate() {
                let cap = if quantized {
                    let frame = Frame::set_cap(cap);
                    Frame::decode(frame.encode())
                        .expect("own frame decodes")
                        .watts()
                } else {
                    cap
                };
                self.bank.set_cap(u, cap);
            }
        }

        // (5b) Write verification: read the programmed caps back from the
        // hardware and hand them to the manager. A telemetry-guarded
        // manager compares them against its requests to catch silently
        // dropped, clamped or delayed cap writes; other managers ignore
        // the call (default no-op). Skipped in degraded modes, where the
        // hardware deliberately holds caps the manager did not request —
        // feeding those back would poison write verification.
        for u in 0..self.applied.len() {
            self.applied[u] = self.bank.domain(u).cap();
        }
        if mode == OperatingMode::Normal {
            self.manager.observe_applied(&self.applied);
        }

        // Always-on safety monitor: re-derive the budget and cap
        // invariants from ground truth, chaos or not. The near-miss flag
        // feeds the mode ladder below.
        let near_miss = {
            let limits = dps_core::manager::UnitLimits {
                min_cap: self.config.domain_spec.min_cap,
                max_cap: self.config.domain_spec.tdp,
            };
            let fallback =
                dps_core::manager::constant_cap(self.current_budget, self.caps.len(), limits);
            let inputs = InvariantInputs {
                cycle,
                budget: self.current_budget,
                requested: &self.caps,
                applied: &self.applied,
                limits,
                mode,
                health: self.manager.health(),
                fallback_cap: fallback,
                shards: self.manager.shard_view(),
            };
            self.monitor.check(&inputs, &self.sink)
        };

        // Frame accounting for this cycle (framed mode only): deltas of the
        // cumulative control-plane counters, emitted only on activity.
        if tracing {
            if let Some(stats) = self.plane.as_ref().map(|p| p.stats()) {
                let sent = stats.frames_sent - self.prev_ctrl.frames_sent;
                let delivered = stats.frames_delivered - self.prev_ctrl.frames_delivered;
                let lost = (stats.frames_dropped + stats.frames_blocked + stats.frames_corrupted)
                    - (self.prev_ctrl.frames_dropped
                        + self.prev_ctrl.frames_blocked
                        + self.prev_ctrl.frames_corrupted);
                let retries = stats.retries - self.prev_ctrl.retries;
                if sent | delivered | lost | retries != 0 {
                    self.sink.emit(Event::ControlPlaneDelta {
                        cycle,
                        sent,
                        delivered,
                        dropped: lost,
                        retries,
                    });
                }
                self.prev_ctrl = stats;
            }
        }

        // (6) Jobs advance at the pace of their slowest socket: Spark
        // stages and NPB iterations are barrier-synchronised, so a single
        // starved socket stalls the whole job. This is the straggler effect
        // the paper's readjusting module explicitly repairs ("fix any major
        // unfairness due to the Stateless Module's random ordering",
        // §4.3.4).
        if let Some(st) = traffic.as_mut() {
            // Traffic mode: serving sockets are independent (no barrier —
            // each request runs on one socket), so each loop advances at
            // its own achieved rate. The summed rates set how many queued
            // requests drain this window, and only powered sockets charge
            // energy to the request bill (a powered-off node draws
            // nothing as far as the service is concerned).
            let mut speed_sum = 0.0;
            let mut joules = 0.0;
            for u in 0..self.demands.len() {
                if st.occupied[u] {
                    let rate = self.config.perf.rate(self.demands[u], self.true_power[u]);
                    speed_sum += rate;
                    joules += self.true_power[u] * period;
                    st.sockets[u].advance_with_rate(rate, period);
                }
            }
            // Sleep-managed fleets are not free when dark: residency power
            // accrues every window and each begun wake charges its one-shot
            // energy, all billed to the same request-energy ledger.
            if let Some(fleet) = st.fleet.as_mut() {
                joules += fleet.sleep_power_w() * period + fleet.drain_wake_energy();
            }
            let end = st
                .driver
                .end_cycle(self.clock.now(), period, speed_sum, joules);
            if tracing {
                if let Some(m) = end.milestone {
                    self.sink.emit(Event::RequestMilestone {
                        cycle,
                        served: m.served,
                        slo_ok: m.slo_ok,
                        backlog: m.backlog,
                    });
                }
            }

            // (7) Satisfaction accounting (dark sockets demand 0 and are
            // counted as satisfied, same as a pinned workload's gap).
            for c in 0..topo.clusters {
                for u in topo.cluster_range(c) {
                    self.satisfaction[c].record(self.demands[u], self.true_power[u], idle);
                }
            }
        } else if let Some(st) = sched.as_mut() {
            // Scheduler mode: the same barrier rule per scheduled job, over
            // its allocated sockets. Completions retire through the queue
            // (freeing nodes and power reservation) and flip occupancy.
            let end = self.clock.now() + period;
            let mut membership_dirty = false;
            let mut i = 0;
            while i < st.jobs.len() {
                let job = &mut st.jobs[i];
                if job.run.demand() > 0.0 {
                    let mut rate: f64 = 1.0;
                    for &u in &job.units {
                        rate = rate.min(self.config.perf.rate(self.demands[u], self.true_power[u]));
                    }
                    job.run.advance_with_rate(rate, period);
                } else {
                    job.run.advance_with_rate(1.0, period);
                }
                if job.run.is_done() {
                    st.scheduler.finish(job.id, end);
                    for &u in &st.jobs[i].units {
                        st.occupied[u] = false;
                    }
                    st.jobs.swap_remove(i);
                    membership_dirty = true;
                } else {
                    i += 1;
                }
            }
            if membership_dirty {
                self.manager.observe_membership(&st.occupied);
            }

            // (7) Satisfaction accounting (idle sockets demand 0 and are
            // counted as satisfied, same as a pinned workload's gap).
            for c in 0..topo.clusters {
                for u in topo.cluster_range(c) {
                    self.satisfaction[c].record(self.demands[u], self.true_power[u], idle);
                }
            }
        } else {
            for (c, job) in self.jobs.iter_mut().enumerate() {
                let range = topo.cluster_range(c);
                let active = job.run.demand() > 0.0;
                if active {
                    let mut rate: f64 = 1.0;
                    for u in range.clone() {
                        rate = rate.min(self.config.perf.rate(self.demands[u], self.true_power[u]));
                    }
                    job.run.advance_with_rate(rate, period);
                } else {
                    // Gap or pre-start: rate is irrelevant, time still passes.
                    job.run.advance_with_rate(1.0, period);
                }

                // (7) Satisfaction accounting.
                for u in range {
                    self.satisfaction[c].record(self.demands[u], self.true_power[u], idle);
                }
            }
        }

        // (8) Per-run realisation swap: a completed run's successor gets a
        // freshly generated program (and socket variants) at the run
        // boundary.
        let tdp = self.config.domain_spec.tdp;
        let per_cluster = topo.units_per_cluster();
        for job in &mut self.jobs {
            if let Some(factory) = job.factory.as_mut() {
                let completed = job.run.runs_completed();
                if completed > job.realized_run && job.run.position() == 0.0 {
                    let base = factory(completed);
                    let run_rng = job.variant_rng.child(&format!("run{completed}"));
                    job.socket_programs = make_variants(&base, tdp, per_cluster, &run_rng);
                    job.run.replace_program(base);
                    job.realized_run = completed;
                }
            }
        }

        // Scheduler events are drained every cycle into the reused buffer
        // behind `sched_events()`, so a long run never accumulates them.
        let queue_depth = match sched.as_mut() {
            Some(st) => {
                st.scheduler.drain_events_into(&mut self.sched_events);
                st.scheduler.queue_depth()
            }
            None => 0,
        };
        if tracing {
            for ev in &self.sched_events {
                self.sink.emit(ev.to_trace(cycle));
            }
        }

        // (9) Watchdog: periodically snapshot the manager so a crashed
        // controller can be restored (see `crash_and_restore`).
        if let Some(every) = self.watchdog_every {
            if (self.clock.timestep() + 1).is_multiple_of(every) {
                // Reuse the previous snapshot's allocation; a manager without
                // checkpoint support leaves the old snapshot (if any) in place.
                let mut buf = self.last_checkpoint.take().unwrap_or_default();
                if self.manager.checkpoint_into(&mut buf) {
                    if tracing {
                        self.sink.emit(Event::CheckpointTaken {
                            cycle,
                            bytes: buf.len() as u64,
                        });
                    }
                    self.last_checkpoint = Some(buf);
                } else if !buf.is_empty() {
                    self.last_checkpoint = Some(buf);
                }
            }
        }

        if tracing {
            let slack = self.manager.total_budget() - self.caps.iter().sum::<f64>();
            let caps_changed = self
                .caps
                .iter()
                .zip(&self.trace_caps)
                .filter(|(now, before)| now.to_bits() != before.to_bits())
                .count() as u32;
            self.sink.emit(Event::CycleEnd {
                cycle,
                budget_slack_w: slack,
                caps_changed,
                queue_depth: queue_depth as u32,
            });
            if let (true, Some(t0)) = (timing, t_cycle) {
                self.sink.emit(Event::PhaseEnd {
                    cycle,
                    phase: PhaseKind::SimCycle,
                    nanos: t0.elapsed().as_nanos() as u64,
                });
            }
        }

        // Mode-ladder inputs for the next cycle, from this cycle's ground
        // truth: the guard's isolation fraction, the control plane's
        // gather-miss rate, and the monitor's near-miss flag.
        if mode == OperatingMode::Normal {
            self.last_good.copy_from_slice(&self.caps);
        }
        let quarantined_frac = self
            .manager
            .health()
            .map(|h| h.iter().filter(|s| s.is_isolated()).count() as f64 / h.len().max(1) as f64)
            .unwrap_or(0.0);
        let stale_frac = match self.plane.as_ref() {
            // While the plane is bypassed (degraded modes) its counters
            // hold still, so the delta is computed only under Normal.
            Some(p) if mode == OperatingMode::Normal => {
                let misses = p.stats().gather_misses;
                let delta = misses - self.prev_gather_misses;
                self.prev_gather_misses = misses;
                (delta as f64 / self.config.total_nodes() as f64).min(1.0)
            }
            _ => 0.0,
        };
        self.confidence = ConfidenceReport {
            quarantined_frac,
            stale_frac,
            near_miss,
        };

        self.sched = sched;
        self.traffic = traffic;
        self.clock.advance();
    }

    /// Runs cycles until `stop` returns true or `max_steps` elapse. Returns
    /// the number of cycles executed.
    pub fn run_until(&mut self, max_steps: u64, mut stop: impl FnMut(&ClusterSim) -> bool) -> u64 {
        let mut steps = 0;
        while steps < max_steps && !stop(self) {
            self.cycle();
            steps += 1;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::manager::UnitLimits;
    use dps_core::{ConstantManager, DpsConfig, DpsManager, SlurmManager};
    use dps_workloads::{Phase, PhaseShape};

    fn flat(duration: f64, watts: f64) -> DemandProgram {
        DemandProgram::new(vec![Phase {
            duration,
            shape: PhaseShape::Constant(watts),
        }])
    }

    fn small_config() -> SimConfig {
        SimConfig {
            topology: Topology::new(2, 1, 2), // 4 units
            noise: NoiseModel::None,
            ..SimConfig::paper_default()
        }
    }

    fn constant_mgr(cfg: &SimConfig) -> Box<dyn PowerManager> {
        Box::new(ConstantManager::new(
            cfg.topology.total_units(),
            cfg.total_budget(),
            UnitLimits {
                min_cap: cfg.domain_spec.min_cap,
                max_cap: cfg.domain_spec.tdp,
            },
        ))
    }

    #[test]
    fn constant_caps_stay_constant() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(1, "sim-test");
        let mut sim = ClusterSim::new(
            cfg.clone(),
            vec![flat(50.0, 150.0), flat(50.0, 60.0)],
            mgr,
            &rng,
        );
        for _ in 0..30 {
            sim.cycle();
        }
        for &c in sim.caps() {
            assert!((c - 110.0).abs() < 1e-9);
        }
    }

    #[test]
    fn workload_completes_and_repeats() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(2, "sim-test");
        let mut sim = ClusterSim::new(cfg, vec![flat(20.0, 100.0), flat(30.0, 100.0)], mgr, &rng);
        // Demand 100 < cap 110 → full speed; 20 s run + 10 s gap → 2 runs by ~65.
        let steps = sim.run_until(200, |s| s.runs_completed(0) >= 2);
        assert!(steps < 200, "should finish early");
        assert_eq!(sim.runs_completed(0), 2);
        let d = sim.run_durations(0)[0];
        assert!((d - 20.0).abs() < 1.5, "nominal duration, got {d}");
    }

    #[test]
    fn throttled_cluster_runs_longer() {
        let cfg = small_config();
        let rng = RngStream::new(3, "sim-test");
        // Cluster 0 demands 160 W vs 110 W constant caps → stretched.
        let mgr = constant_mgr(&cfg);
        let mut sim = ClusterSim::new(cfg, vec![flat(50.0, 160.0), flat(50.0, 60.0)], mgr, &rng);
        sim.run_until(400, |s| {
            s.runs_completed(0) >= 1 && s.runs_completed(1) >= 1
        });
        let d_hot = sim.run_durations(0)[0];
        let d_cool = sim.run_durations(1)[0];
        assert!(d_hot > d_cool + 5.0, "hot {d_hot} vs cool {d_cool}");
        assert!(sim.satisfaction(0) < 0.85, "{}", sim.satisfaction(0));
        assert!(sim.satisfaction(1) > 0.99);
    }

    #[test]
    fn slurm_shifts_power_to_hot_cluster() {
        let cfg = small_config();
        let budget = cfg.total_budget();
        let rng = RngStream::new(4, "sim-test");
        let mgr: Box<dyn PowerManager> = Box::new(SlurmManager::new(
            cfg.topology.total_units(),
            budget,
            UnitLimits {
                min_cap: cfg.domain_spec.min_cap,
                max_cap: cfg.domain_spec.tdp,
            },
            Default::default(),
            rng.child("mgr"),
        ));
        let mut sim = ClusterSim::new(cfg, vec![flat(400.0, 160.0), flat(400.0, 30.0)], mgr, &rng);
        for _ in 0..40 {
            sim.cycle();
        }
        // Hot cluster's sockets (units 0,1) should have grown past 110;
        // idle cluster's (units 2,3) shrunk.
        assert!(sim.caps()[0] > 130.0, "{:?}", sim.caps());
        assert!(sim.caps()[2] < 70.0, "{:?}", sim.caps());
    }

    #[test]
    fn dps_budget_always_respected() {
        let cfg = small_config();
        let budget = cfg.total_budget();
        let rng = RngStream::new(5, "sim-test");
        let mgr: Box<dyn PowerManager> = Box::new(DpsManager::new(
            cfg.topology.total_units(),
            budget,
            UnitLimits {
                min_cap: cfg.domain_spec.min_cap,
                max_cap: cfg.domain_spec.tdp,
            },
            DpsConfig::default(),
            rng.child("mgr"),
        ));
        let mut sim = ClusterSim::new(cfg, vec![flat(200.0, 160.0), flat(200.0, 150.0)], mgr, &rng);
        for _ in 0..150 {
            sim.cycle();
            let sum: f64 = sim.caps().iter().sum();
            assert!(sum <= budget + 1e-6, "cycle {}: {sum}", sim.timestep());
        }
    }

    #[test]
    fn accessors_expose_each_cycle() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(6, "sim-test");
        let mut sim = ClusterSim::new(cfg, vec![flat(20.0, 120.0), flat(20.0, 50.0)], mgr, &rng);
        let half = sim.config().topology.units_per_cluster();
        for _ in 0..10 {
            sim.cycle();
            assert_eq!(sim.measured().len(), 4);
            assert_eq!(sim.demands().len(), 4);
            assert_eq!(sim.caps().len(), 4);
            let demands = sim.demands();
            assert!(demands[..half].iter().all(|&d| d > 100.0), "{demands:?}");
            assert!(demands[half..].iter().all(|&d| d < 100.0), "{demands:?}");
        }
    }

    #[test]
    fn fairness_perfect_when_unconstrained() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(7, "sim-test");
        let mut sim = ClusterSim::new(cfg, vec![flat(50.0, 90.0), flat(50.0, 70.0)], mgr, &rng);
        for _ in 0..60 {
            sim.cycle();
        }
        assert!(sim.fairness(0, 1) > 0.999, "{}", sim.fairness(0, 1));
    }

    #[test]
    fn run_until_respects_max_steps() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(8, "sim-test");
        let mut sim = ClusterSim::new(
            cfg,
            vec![flat(1000.0, 100.0), flat(1000.0, 100.0)],
            mgr,
            &rng,
        );
        let steps = sim.run_until(25, |_| false);
        assert_eq!(steps, 25);
        assert_eq!(sim.timestep(), 25);
    }

    #[test]
    fn wire_protocol_changes_nothing_material() {
        // Same run with and without the 3-byte frames: caps differ by at
        // most the 0.1 W quantization per hop.
        let mut cfg_a = small_config();
        cfg_a.noise = NoiseModel::None;
        let mut cfg_b = cfg_a.clone();
        cfg_b.control_plane = ControlPlaneMode::Quantized;
        let rng = RngStream::new(21, "wire-test");
        let programs = || vec![flat(60.0, 150.0), flat(60.0, 60.0)];
        let mut sim_a = ClusterSim::new(cfg_a.clone(), programs(), constant_mgr(&cfg_a), &rng);
        let mut sim_b = ClusterSim::new(cfg_b.clone(), programs(), constant_mgr(&cfg_b), &rng);
        for _ in 0..50 {
            sim_a.cycle();
            sim_b.cycle();
        }
        for (a, b) in sim_a.caps().iter().zip(sim_b.caps()) {
            assert!((a - b).abs() <= 0.2, "{a} vs {b}");
        }
        assert!((sim_a.satisfaction(0) - sim_b.satisfaction(0)).abs() < 0.01);
    }

    #[test]
    fn wire_protocol_budget_respected_with_dps() {
        let mut cfg = small_config();
        cfg.control_plane = ControlPlaneMode::Quantized;
        let budget = cfg.total_budget();
        let rng = RngStream::new(22, "wire-dps");
        let mgr: Box<dyn PowerManager> = Box::new(DpsManager::new(
            cfg.topology.total_units(),
            budget,
            UnitLimits {
                min_cap: cfg.domain_spec.min_cap,
                max_cap: cfg.domain_spec.tdp,
            },
            DpsConfig::default(),
            rng.child("mgr"),
        ));
        let mut sim = ClusterSim::new(cfg, vec![flat(100.0, 160.0), flat(100.0, 150.0)], mgr, &rng);
        for _ in 0..120 {
            sim.cycle();
            // Wire quantization rounds caps to 0.1 W; allow that slack.
            assert!(sim.caps().iter().sum::<f64>() <= budget + 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "one program per cluster")]
    fn program_count_mismatch_panics() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(9, "sim-test");
        ClusterSim::new(cfg, vec![flat(10.0, 100.0)], mgr, &rng);
    }

    // ---- sensor/actuator fault + guard + watchdog wiring ----

    use dps_core::GuardConfig;
    use dps_rapl::{ActuatorFault, SensorFault, UnitFaultEvent};

    fn guarded_dps(cfg: &SimConfig, rng: &RngStream) -> Box<dyn PowerManager> {
        Box::new(DpsManager::with_guard(
            cfg.topology.total_units(),
            cfg.total_budget(),
            UnitLimits {
                min_cap: cfg.domain_spec.min_cap,
                max_cap: cfg.domain_spec.tdp,
            },
            DpsConfig::default(),
            GuardConfig {
                // Noise-free telemetry looks "stuck" to the zero-variance
                // detector; disable it and rely on the value gates.
                stuck_window: 0,
                quarantine_after: 2,
                probation_after: 3,
                readmit_after: 4,
                ..Default::default()
            },
            rng.child("mgr"),
        ))
    }

    #[test]
    fn sensor_fault_schedule_reaches_the_bank() {
        let mut cfg = small_config();
        cfg.sensor_faults = UnitFaultSchedule::new(vec![UnitFaultEvent::sensor(
            0,
            5.0,
            15.0,
            SensorFault::Dropout,
        )]);
        cfg.validate().unwrap();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(31, "fault-wire");
        let mut sim = ClusterSim::new(cfg, vec![flat(50.0, 100.0), flat(50.0, 100.0)], mgr, &rng);
        let mut series = Vec::new();
        for _ in 0..20 {
            sim.cycle();
            series.push(sim.measured()[0]);
        }
        // Readings inside [5, 15) are NaN, outside they are finite.
        assert!(series[2].is_finite(), "{series:?}");
        assert!(series[8].is_nan(), "{series:?}");
        assert!(series[17].is_finite(), "{series:?}");
    }

    #[test]
    fn guarded_dps_quarantines_dropout_and_respects_budget() {
        let mut cfg = small_config();
        cfg.sensor_faults = UnitFaultSchedule::new(vec![UnitFaultEvent::sensor(
            0,
            10.0,
            40.0,
            SensorFault::Dropout,
        )]);
        let budget = cfg.total_budget();
        let rng = RngStream::new(32, "guard-sim");
        let mgr = guarded_dps(&cfg, &rng);
        let mut sim = ClusterSim::new(cfg, vec![flat(200.0, 160.0), flat(200.0, 150.0)], mgr, &rng);
        let mut quarantined_seen = false;
        for _ in 0..80 {
            sim.cycle();
            assert!(
                sim.caps().iter().sum::<f64>() <= budget + 1e-6,
                "cycle {}: {:?}",
                sim.timestep(),
                sim.caps()
            );
            let health = sim.health().expect("guarded manager reports health");
            if health[0].is_isolated() {
                quarantined_seen = true;
            }
        }
        assert!(quarantined_seen, "dropout unit was never isolated");
        // Long after the window the unit must be healthy again.
        assert_eq!(sim.health().unwrap()[0], HealthState::Healthy);
    }

    #[test]
    fn actuator_drop_writes_diverge_applied_from_requested() {
        let mut cfg = small_config();
        cfg.sensor_faults = UnitFaultSchedule::new(vec![UnitFaultEvent::actuator(
            0,
            0.0,
            1000.0,
            ActuatorFault::DropWrites,
        )]);
        let rng = RngStream::new(33, "act-wire");
        let mgr = guarded_dps(&cfg, &rng);
        // Hot demand everywhere: DPS wants to move unit 0's cap, but the
        // write never lands; the readback must expose the stale cap.
        let mut sim = ClusterSim::new(cfg, vec![flat(200.0, 160.0), flat(200.0, 30.0)], mgr, &rng);
        let mut diverged = false;
        for _ in 0..60 {
            sim.cycle();
            if (sim.applied_caps()[0] - sim.caps()[0]).abs() > 1.0 {
                diverged = true;
            }
            // Honest units' readbacks track their requests.
            assert!((sim.applied_caps()[2] - sim.caps()[2]).abs() < 0.5);
        }
        assert!(diverged, "dropped writes never showed up in the readback");
    }

    #[test]
    fn watchdog_restore_resumes_identical_trajectory() {
        // Checkpoint every cycle, crash after 30, restore a fresh manager
        // from the snapshot: the remaining trajectory must match an
        // uninterrupted twin bit for bit (fault-free plant, shared seed).
        let cfg = small_config();
        let budget = cfg.total_budget();
        let rng = RngStream::new(34, "watchdog");
        let programs = || vec![flat(300.0, 160.0), flat(300.0, 140.0)];
        let mut crashed = ClusterSim::new(cfg.clone(), programs(), guarded_dps(&cfg, &rng), &rng);
        let mut twin = ClusterSim::new(cfg.clone(), programs(), guarded_dps(&cfg, &rng), &rng);
        crashed.enable_watchdog(1);
        for _ in 0..30 {
            crashed.cycle();
            twin.cycle();
        }
        crashed
            .crash_and_restore(guarded_dps(&cfg, &rng))
            .expect("restore from watchdog snapshot");
        for _ in 0..40 {
            crashed.cycle();
            twin.cycle();
            assert_eq!(crashed.caps(), twin.caps(), "t={}", crashed.timestep());
            assert!(crashed.caps().iter().sum::<f64>() <= budget + 1e-6);
        }
    }

    #[test]
    fn crash_without_snapshot_is_rejected() {
        let cfg = small_config();
        let rng = RngStream::new(35, "watchdog-none");
        let mut sim = ClusterSim::new(
            cfg.clone(),
            vec![flat(50.0, 100.0), flat(50.0, 100.0)],
            guarded_dps(&cfg, &rng),
            &rng,
        );
        // Watchdog never enabled → no snapshot → restore must fail and the
        // incumbent manager keeps running.
        for _ in 0..5 {
            sim.cycle();
        }
        let err = sim.crash_and_restore(guarded_dps(&cfg, &rng)).unwrap_err();
        assert!(err.contains("no watchdog checkpoint"), "{err}");
        sim.cycle(); // still functional
    }

    // ---- structured trace (dps-obs) wiring ----

    #[test]
    fn trace_envelope_brackets_every_cycle() {
        let mut cfg = small_config();
        cfg.sensor_faults = UnitFaultSchedule::new(vec![UnitFaultEvent::sensor(
            0,
            5.0,
            15.0,
            SensorFault::Dropout,
        )]);
        let rng = RngStream::new(41, "trace-sim");
        // Asymmetric demand so DPS actually moves caps (a uniformly hot
        // cluster equalizes at the constant cap and produces no deltas).
        let mut sim = ClusterSim::new(
            cfg.clone(),
            vec![flat(200.0, 160.0), flat(200.0, 30.0)],
            guarded_dps(&cfg, &rng),
            &rng,
        );
        sim.enable_watchdog(8);
        let sink = SinkHandle::recording(4096);
        sim.set_trace_sink(sink.clone());
        for _ in 0..30 {
            sim.cycle();
        }

        let bytes = sink.export().expect("recording sink exports");
        let decoded = dps_obs::codec::decode(&bytes).expect("trace decodes");
        assert_eq!(decoded.dropped, 0);

        let mut starts = 0u64;
        let mut ends = 0u64;
        let mut fault_edges = Vec::new();
        let mut checkpoints = 0u64;
        let mut open = false;
        for ev in &decoded.events {
            match *ev {
                Event::CycleStart { cycle, time_s } => {
                    assert!(!open, "nested CycleStart at cycle {cycle}");
                    assert_eq!(cycle, starts, "cycle indices are dense");
                    assert!((time_s - cycle as f64).abs() < 1e-9, "1 s period");
                    open = true;
                    starts += 1;
                }
                Event::CycleEnd {
                    cycle,
                    budget_slack_w,
                    queue_depth,
                    ..
                } => {
                    assert!(open, "CycleEnd without CycleStart");
                    assert_eq!(cycle, ends);
                    assert!(budget_slack_w > -1e-6, "budget overrun in trace");
                    assert_eq!(queue_depth, 0, "pinned mode has no queue");
                    open = false;
                    ends += 1;
                }
                Event::FaultEdge {
                    cycle,
                    unit,
                    domain,
                    active,
                } => {
                    assert_eq!(unit, 0);
                    assert_eq!(domain, FaultDomain::Sensor);
                    fault_edges.push((cycle, active));
                }
                Event::CheckpointTaken { bytes, .. } => {
                    assert!(bytes > 0, "checkpoint blob is never empty");
                    checkpoints += 1;
                }
                Event::PhaseEnd { .. } => {
                    panic!("timing spans must stay off without with_timing()")
                }
                _ => {}
            }
        }
        assert_eq!(starts, 30);
        assert_eq!(ends, 30);
        // The [5, 15) s window opens at the cycle sampled at t=5 and closes
        // at the one sampled at t=15 (1 s period → cycles 5 and 15).
        assert_eq!(fault_edges, vec![(5, true), (15, false)]);
        // Watchdog every 8 cycles → snapshots at timesteps 7, 15, 23.
        assert_eq!(checkpoints, 3);
        let reg = sink.as_ring().unwrap().registry();
        assert_eq!(reg.checkpoints(), 3);
        assert_eq!(reg.fault_edges(), 2);
        assert!(reg.cap_deltas() > 0, "DPS moved caps under load");
    }

    #[test]
    fn trace_sink_does_not_perturb_the_simulation() {
        let cfg = small_config();
        let rng = RngStream::new(42, "trace-twin");
        let programs = || vec![flat(120.0, 160.0), flat(120.0, 60.0)];
        let mut traced = ClusterSim::new(cfg.clone(), programs(), guarded_dps(&cfg, &rng), &rng);
        let mut plain = ClusterSim::new(cfg.clone(), programs(), guarded_dps(&cfg, &rng), &rng);
        traced.set_trace_sink(SinkHandle::recording(8192));
        for _ in 0..60 {
            traced.cycle();
            plain.cycle();
            assert_eq!(traced.caps(), plain.caps(), "t={}", plain.timestep());
        }
        assert_eq!(traced.satisfaction(0), plain.satisfaction(0));
    }

    #[test]
    fn scheduler_mode_traces_job_lifecycle() {
        let mut cfg = SimConfig {
            topology: Topology::new(2, 4, 2),
            noise: NoiseModel::None,
            ..SimConfig::paper_default()
        };
        cfg.scheduler = Some(SchedConfig::default_poisson(6, 100.0));
        let rng = RngStream::new(43, "trace-sched");
        let mut sim = ClusterSim::with_scheduler(cfg.clone(), guarded_dps(&cfg, &rng), &rng);
        let sink = SinkHandle::recording(1 << 16);
        sim.set_trace_sink(sink.clone());
        for _ in 0..4000 {
            sim.cycle();
            if sim.scheduler_drained() {
                break;
            }
        }
        assert!(sim.scheduler_drained(), "queue failed to drain");
        let reg = sink.as_ring().unwrap().registry();
        assert_eq!(reg.sched_arrivals(), 6);
        assert_eq!(reg.sched_starts(), 6);
        assert_eq!(
            reg.sched_finishes() + reg.sched_evictions(),
            6,
            "every job retires"
        );
        assert!(
            reg.membership_flips() > 0,
            "job churn must reach the manager's membership trace"
        );
    }

    #[test]
    fn scheduler_events_match_job_records() {
        use dps_sched::{JobOutcome, SchedEventKind};
        let mut cfg = SimConfig {
            topology: Topology::new(2, 4, 2),
            noise: NoiseModel::None,
            ..SimConfig::paper_default()
        };
        cfg.scheduler = Some(SchedConfig::default_poisson(6, 100.0));
        let rng = RngStream::new(44, "sched-events");
        let mut sim = ClusterSim::with_scheduler(cfg.clone(), guarded_dps(&cfg, &rng), &rng);
        let mut events = Vec::new();
        for _ in 0..4000 {
            sim.cycle();
            events.extend_from_slice(sim.sched_events());
            if sim.scheduler_drained() {
                break;
            }
        }
        assert!(sim.scheduler_drained(), "queue failed to drain");
        let completed: Vec<_> = sim
            .job_records()
            .iter()
            .filter(|r| r.outcome == JobOutcome::Completed)
            .collect();
        assert!(!completed.is_empty(), "no job completed");
        let times = |id: usize, kind: SchedEventKind| -> Vec<f64> {
            events
                .iter()
                .filter(|e| e.job == id && e.kind == kind)
                .map(|e| e.time)
                .collect()
        };
        for r in completed {
            // A job is admitted at the first cycle boundary at or after its
            // submission time, and the arrival event carries that tick.
            let arrived = times(r.id, SchedEventKind::Arrived);
            assert_eq!(arrived.len(), 1, "job {} arrived {arrived:?}", r.id);
            assert!(
                arrived[0] >= r.arrival && arrived[0] < r.arrival + cfg.period,
                "job {} arrived at {} for submission {}",
                r.id,
                arrived[0],
                r.arrival
            );
            assert_eq!(times(r.id, SchedEventKind::Started), vec![r.start]);
            assert_eq!(times(r.id, SchedEventKind::Finished), vec![r.end]);
        }
    }

    // ---- traffic mode (dps-traffic) wiring ----

    use dps_traffic::{ProvisionerConfig, ProvisionerMode, TrafficPattern};

    fn flash_crowd_traffic(total_sockets: usize) -> TrafficConfig {
        let mut cfg = TrafficConfig::default_diurnal(total_sockets, 100.0);
        cfg.pattern = TrafficPattern::FlashCrowd {
            base_rps: 100.0,
            peak_rps: 0.9 * total_sockets as f64 * 100.0,
            start: 20.0,
            ramp: 10.0,
            hold: 60.0,
            decay: 10.0,
        };
        cfg.provisioner = ProvisionerMode::Reactive(ProvisionerConfig {
            target_utilization: 0.7,
            headroom_nodes: 0,
            power_off_after: 15.0,
            min_nodes: 1,
        });
        cfg.milestone_every = 10_000;
        cfg
    }

    #[test]
    fn traffic_mode_provisions_and_stays_under_budget() {
        let mut cfg = SimConfig {
            topology: Topology::new(2, 4, 2), // 8 nodes × 2 sockets
            noise: NoiseModel::None,
            ..SimConfig::paper_default()
        };
        cfg.traffic = Some(flash_crowd_traffic(cfg.topology.total_units()));
        let budget = cfg.total_budget();
        let rng = RngStream::new(51, "traffic-sim");
        let mut sim = ClusterSim::with_traffic(cfg.clone(), guarded_dps(&cfg, &rng), &rng);
        let sink = SinkHandle::recording(1 << 16);
        sim.set_trace_sink(sink.clone());
        let mut peak_active = 0;
        for _ in 0..200 {
            sim.cycle();
            assert!(
                sim.caps().iter().sum::<f64>() <= budget + 1e-6,
                "budget overrun at cycle {}",
                sim.timestep()
            );
            peak_active = peak_active.max(sim.traffic_driver().unwrap().active_nodes());
        }
        // The crowd forced the fleet up, the hysteresis brought it back.
        assert!(peak_active >= 5, "fleet never grew: peak {peak_active}");
        assert!(
            sim.traffic_driver().unwrap().active_nodes() <= 2,
            "fleet never shrank: {} nodes",
            sim.traffic_driver().unwrap().active_nodes()
        );
        let stats = sim.request_stats().unwrap();
        assert!(stats.served > 10_000.0, "served {}", stats.served);
        assert!(stats.joules > 0.0);
        let reg = sink.as_ring().unwrap().registry();
        assert!(reg.provision_power_ons() > 0, "no power-ons traced");
        assert!(reg.provision_power_offs() > 0, "no power-offs traced");
        assert!(reg.request_milestones() > 0, "no milestones traced");
        assert!(
            reg.membership_flips() > 0,
            "provisioning must reach the manager's membership trace"
        );
    }

    #[test]
    fn traffic_mode_is_deterministic_per_seed() {
        let mut cfg = SimConfig {
            topology: Topology::new(2, 2, 2),
            noise: NoiseModel::None,
            ..SimConfig::paper_default()
        };
        cfg.traffic = Some(flash_crowd_traffic(cfg.topology.total_units()));
        let run = |seed: u64| {
            let rng = RngStream::new(seed, "traffic-det");
            let mut sim = ClusterSim::with_traffic(cfg.clone(), guarded_dps(&cfg, &rng), &rng);
            for _ in 0..150 {
                sim.cycle();
            }
            (
                sim.request_stats().unwrap().arrived,
                sim.request_stats().unwrap().served,
                sim.caps().to_vec(),
            )
        };
        let (a1, s1, c1) = run(7);
        let (a2, s2, c2) = run(7);
        let (a3, _, _) = run(8);
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
        assert_ne!(a1, a3, "different seeds must diverge");
    }

    #[test]
    fn scheduler_and_traffic_are_mutually_exclusive() {
        let mut cfg = small_config();
        cfg.scheduler = Some(SchedConfig::default_poisson(2, 50.0));
        cfg.traffic = Some(TrafficConfig::default_diurnal(4, 100.0));
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn crash_restore_is_marked_in_the_trace() {
        let cfg = small_config();
        let rng = RngStream::new(44, "trace-crash");
        let mut sim = ClusterSim::new(
            cfg.clone(),
            vec![flat(300.0, 160.0), flat(300.0, 140.0)],
            guarded_dps(&cfg, &rng),
            &rng,
        );
        sim.enable_watchdog(1);
        let sink = SinkHandle::recording(1 << 14);
        sim.set_trace_sink(sink.clone());
        for _ in 0..10 {
            sim.cycle();
        }
        sim.crash_and_restore(guarded_dps(&cfg, &rng))
            .expect("restore from snapshot");
        for _ in 0..10 {
            sim.cycle();
        }
        let reg = sink.as_ring().unwrap().registry();
        assert_eq!(reg.controller_restores(), 1);
        let events = sink.as_ring().unwrap().ring().snapshot();
        let marker = events
            .iter()
            .position(|e| matches!(e, Event::ControllerRestored { .. }))
            .expect("restore marker present");
        assert!(
            matches!(events[marker], Event::ControllerRestored { cycle: 10 }),
            "marker carries the crash timestep"
        );
        // The envelope keeps counting across the seam (sim-owned indices).
        let last_end = events
            .iter()
            .rev()
            .find_map(|e| match e {
                Event::CycleEnd { cycle, .. } => Some(*cycle),
                _ => None,
            })
            .unwrap();
        assert_eq!(last_end, 19);
    }
}
