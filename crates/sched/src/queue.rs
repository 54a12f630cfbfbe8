//! FIFO + EASY-backfill queue with node *and* power admission.
//!
//! The admission test is two-dimensional: a job starts only when enough
//! whole nodes are free **and** its conservative power reservation fits
//! under the cluster budget next to the reservations of everything already
//! running. Backfill follows the classic EASY rule extended with power: when
//! the queue head cannot start, compute its *shadow time* (the earliest
//! instant at which finishing jobs free enough nodes and reserved power for
//! it) and the *extra* node/power allowance left over at that instant; a
//! later job may jump the queue iff it fits right now and either (a) its
//! walltime ends by the shadow time, or (b) it consumes only the extra
//! allowance — so the head is never pushed past its shadow.
//!
//! The guarantee holds when walltimes are enforced (overrunning jobs are
//! evicted, so `start + walltime` really is an upper bound on occupancy).
//! With [`crate::SchedConfig::enforce_walltime`] disabled it degrades to a
//! best-effort heuristic, as on real systems that let jobs overrun.
//!
//! Everything is deterministic: arrivals are admitted in trace order, nodes
//! are allocated lowest-index-first, and no randomness is consumed.

use std::collections::VecDeque;

use crate::job::{JobOutcome, JobRecord, JobRequest, SchedEvent, SchedEventKind};
use dps_sim_core::{Seconds, Watts};
use dps_workloads::WorkloadSpec;

/// Float slack for power comparisons (reservations are sums of `f64`s).
const POWER_EPS: Watts = 1e-9;

/// A job the scheduler just started, for the simulator to realise.
#[derive(Debug, Clone, PartialEq)]
pub struct StartedJob {
    /// Submission identifier.
    pub id: usize,
    /// The workload to instantiate on each allocated socket.
    pub spec: WorkloadSpec,
    /// Allocated node indices (each spans `sockets_per_node` units).
    pub nodes: Vec<usize>,
    /// Requested walltime (eviction deadline when enforced).
    pub walltime: Seconds,
    /// Start time.
    pub start: Seconds,
}

#[derive(Debug, Clone)]
struct RunningJob {
    request: JobRequest,
    nodes: Vec<usize>,
    start: Seconds,
}

impl RunningJob {
    fn expected_end(&self) -> Seconds {
        self.start + self.request.walltime
    }
}

/// Deterministic FIFO + EASY-backfill scheduler over whole nodes and a
/// power-reservation budget.
#[derive(Debug, Clone)]
pub struct JobScheduler {
    /// Arrivals not yet submitted, earliest first.
    future: VecDeque<JobRequest>,
    /// Submitted, waiting jobs in FIFO order.
    queue: VecDeque<JobRequest>,
    running: Vec<RunningJob>,
    node_free: Vec<bool>,
    sockets_per_node: usize,
    budget: Watts,
    backfill: bool,
    records: Vec<JobRecord>,
    events: Vec<SchedEvent>,
    /// `(job id, shadow)` recorded the first time each head blocks — the
    /// EASY guarantee the proptests check (`start ≤ shadow`).
    head_guarantees: Vec<(usize, Seconds)>,
}

impl JobScheduler {
    /// Builds a scheduler over `total_nodes` whole nodes and a cluster-wide
    /// power `budget`, fed by a pre-sorted arrival `trace`.
    ///
    /// Rejects jobs that could never start (more nodes than the cluster or
    /// a reservation above the whole budget) so they cannot wedge the FIFO
    /// head forever.
    pub fn new(
        trace: Vec<JobRequest>,
        total_nodes: usize,
        sockets_per_node: usize,
        budget: Watts,
        backfill: bool,
    ) -> Result<Self, String> {
        if total_nodes == 0 || sockets_per_node == 0 {
            return Err("cluster must have at least one node and socket".into());
        }
        if !(budget.is_finite() && budget > 0.0) {
            return Err(format!("bad budget {budget}"));
        }
        for job in &trace {
            job.validate()?;
            if job.nodes > total_nodes {
                return Err(format!(
                    "job {} requests {} nodes but the cluster has {}",
                    job.id, job.nodes, total_nodes
                ));
            }
            let res = job.reservation(sockets_per_node);
            if res > budget + POWER_EPS {
                return Err(format!(
                    "job {} reserves {res:.1} W but the budget is {budget:.1} W",
                    job.id
                ));
            }
        }
        for w in trace.windows(2) {
            if w[0].arrival > w[1].arrival {
                return Err("arrival trace is not sorted".into());
            }
        }
        Ok(Self {
            future: trace.into(),
            queue: VecDeque::new(),
            running: Vec::new(),
            node_free: vec![true; total_nodes],
            sockets_per_node,
            budget,
            backfill,
            records: Vec::new(),
            events: Vec::new(),
            head_guarantees: Vec::new(),
        })
    }

    /// Admits arrivals due by `now` and starts whatever the FIFO + EASY
    /// rules allow. Returns the jobs that started this tick.
    pub fn tick(&mut self, now: Seconds) -> Vec<StartedJob> {
        while let Some(next) = self.future.front() {
            if next.arrival > now {
                break;
            }
            let job = self.future.pop_front().expect("checked front");
            self.events.push(SchedEvent {
                time: now,
                job: job.id,
                nodes: job.nodes,
                kind: SchedEventKind::Arrived,
            });
            self.queue.push_back(job);
        }

        let mut started = Vec::new();
        // Start the head while it fits.
        while let Some(head) = self.queue.front() {
            if !self.fits(head) {
                break;
            }
            let job = self.queue.pop_front().expect("checked front");
            started.push(self.start_job(job, now));
        }

        // Head blocked: one EASY backfill pass. Backfill only consumes
        // resources, so the head cannot become startable mid-pass and a
        // single pass suffices.
        if self.backfill {
            if let Some(head) = self.queue.front().cloned() {
                let (shadow, mut extra_nodes, mut extra_power) = self.shadow_for(&head, now);
                if self.head_guarantees.last().map(|(id, _)| *id) != Some(head.id) {
                    self.head_guarantees.push((head.id, shadow));
                }
                let mut i = 1;
                while i < self.queue.len() {
                    let cand = &self.queue[i];
                    let res = cand.reservation(self.sockets_per_node);
                    let ends_by_shadow = now + cand.walltime <= shadow + POWER_EPS;
                    let within_extra = cand.nodes <= extra_nodes && res <= extra_power + POWER_EPS;
                    if self.fits(cand) && (ends_by_shadow || within_extra) {
                        if !ends_by_shadow {
                            extra_nodes -= cand.nodes;
                            extra_power -= res;
                        }
                        let job = self.queue.remove(i).expect("index in bounds");
                        started.push(self.start_job(job, now));
                    } else {
                        i += 1;
                    }
                }
            }
        }
        started
    }

    /// Marks a running job completed, freeing its nodes and reservation.
    pub fn finish(&mut self, id: usize, now: Seconds) {
        self.retire(id, now, JobOutcome::Completed);
    }

    /// Kills a running job (walltime overrun), freeing its nodes and
    /// reservation.
    pub fn evict(&mut self, id: usize, now: Seconds) {
        self.retire(id, now, JobOutcome::Evicted);
    }

    /// Ids of running jobs whose wall-clock runtime has reached their
    /// requested walltime (eviction candidates).
    pub fn overrunning(&self, now: Seconds) -> Vec<usize> {
        self.running
            .iter()
            .filter(|r| now - r.start >= r.request.walltime)
            .map(|r| r.request.id)
            .collect()
    }

    fn retire(&mut self, id: usize, now: Seconds, outcome: JobOutcome) {
        let pos = self
            .running
            .iter()
            .position(|r| r.request.id == id)
            .unwrap_or_else(|| panic!("job {id} is not running"));
        let job = self.running.swap_remove(pos);
        for &n in &job.nodes {
            self.node_free[n] = true;
        }
        self.records.push(JobRecord {
            id: job.request.id,
            name: job.request.spec.name.to_string(),
            nodes: job.request.nodes,
            arrival: job.request.arrival,
            start: job.start,
            end: now,
            walltime: job.request.walltime,
            outcome,
        });
        self.events.push(SchedEvent {
            time: now,
            job: id,
            nodes: job.request.nodes,
            kind: match outcome {
                JobOutcome::Completed => SchedEventKind::Finished,
                JobOutcome::Evicted => SchedEventKind::Evicted,
            },
        });
    }

    fn fits(&self, job: &JobRequest) -> bool {
        self.free_nodes() >= job.nodes
            && self.reserved_power() + job.reservation(self.sockets_per_node)
                <= self.budget + POWER_EPS
    }

    /// Earliest instant at which the head fits (assuming running jobs end
    /// by `start + walltime`), plus the node/power allowance left over for
    /// backfill at that instant.
    fn shadow_for(&self, head: &JobRequest, now: Seconds) -> (Seconds, usize, Watts) {
        let need_nodes = head.nodes;
        let need_power = head.reservation(self.sockets_per_node);
        let mut free = self.free_nodes();
        let mut avail = self.budget - self.reserved_power();
        let mut shadow = now;
        let mut ends: Vec<(Seconds, usize, Watts)> = self
            .running
            .iter()
            .map(|r| {
                (
                    r.expected_end(),
                    r.nodes.len(),
                    r.request.reservation(self.sockets_per_node),
                )
            })
            .collect();
        ends.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for (end, n, p) in ends {
            if free >= need_nodes && avail >= need_power - POWER_EPS {
                break;
            }
            free += n;
            avail += p;
            shadow = shadow.max(end);
        }
        (shadow, free - need_nodes, avail - need_power)
    }

    fn start_job(&mut self, job: JobRequest, now: Seconds) -> StartedJob {
        let mut nodes = Vec::with_capacity(job.nodes);
        for (n, free) in self.node_free.iter_mut().enumerate() {
            if *free {
                *free = false;
                nodes.push(n);
                if nodes.len() == job.nodes {
                    break;
                }
            }
        }
        debug_assert_eq!(nodes.len(), job.nodes, "fits() guaranteed the nodes");
        self.events.push(SchedEvent {
            time: now,
            job: job.id,
            nodes: job.nodes,
            kind: SchedEventKind::Started,
        });
        let started = StartedJob {
            id: job.id,
            spec: job.spec.clone(),
            nodes: nodes.clone(),
            walltime: job.walltime,
            start: now,
        };
        self.running.push(RunningJob {
            request: job,
            nodes,
            start: now,
        });
        started
    }

    /// Number of currently free nodes.
    pub fn free_nodes(&self) -> usize {
        self.node_free.iter().filter(|f| **f).count()
    }

    /// Sum of power reservations currently held by running jobs.
    /// Recomputed from scratch so repeated start/finish cycles cannot
    /// accumulate float drift against the budget invariant.
    pub fn reserved_power(&self) -> Watts {
        self.running
            .iter()
            .map(|r| r.request.reservation(self.sockets_per_node))
            .sum()
    }

    /// Jobs submitted but not yet started.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently running.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Arrivals not yet submitted.
    pub fn pending_arrivals(&self) -> usize {
        self.future.len()
    }

    /// True once every job has arrived, run, and retired.
    pub fn is_drained(&self) -> bool {
        self.future.is_empty() && self.queue.is_empty() && self.running.is_empty()
    }

    /// Lifecycle records of retired jobs, in retirement order.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Moves the events accumulated since the last call into `out`,
    /// replacing its contents. The two buffers are swapped, so a caller
    /// that passes the same `out` every cycle allocates nothing in steady
    /// state.
    pub fn drain_events_into(&mut self, out: &mut Vec<SchedEvent>) {
        out.clear();
        std::mem::swap(out, &mut self.events);
    }

    /// `(job id, shadow time)` recorded the first time each queue head
    /// blocked — under enforced walltimes the head must start by its shadow.
    pub fn head_guarantees(&self) -> &[(usize, Seconds)] {
        &self.head_guarantees
    }

    /// The cluster power budget the admission test reserves against.
    pub fn budget(&self) -> Watts {
        self.budget
    }

    /// Sockets per node (reservation granularity).
    pub fn sockets_per_node(&self) -> usize {
        self.sockets_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_workloads::catalog;

    fn job(id: usize, arrival: Seconds, nodes: usize, walltime: Seconds, rsv: Watts) -> JobRequest {
        JobRequest {
            id,
            spec: catalog::find("Sort").unwrap().clone(),
            arrival,
            nodes,
            walltime,
            reserve_per_socket: rsv,
        }
    }

    /// 4 nodes × 2 sockets, 800 W budget (100 W/socket fair share).
    fn sched(trace: Vec<JobRequest>, backfill: bool) -> JobScheduler {
        JobScheduler::new(trace, 4, 2, 800.0, backfill).unwrap()
    }

    #[test]
    fn fifo_starts_in_order() {
        let mut s = sched(
            vec![
                job(0, 0.0, 2, 50.0, 100.0),
                job(1, 0.0, 1, 50.0, 100.0),
                job(2, 0.0, 1, 50.0, 100.0),
            ],
            false,
        );
        let started = s.tick(0.0);
        let ids: Vec<usize> = started.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(s.free_nodes(), 0);
        assert_eq!(s.queue_depth(), 0);
    }

    #[test]
    fn power_reservation_blocks_admission() {
        // Both jobs fit by nodes, but together they exceed the budget:
        // 2 nodes × 2 sockets × 150 W = 600 W each, budget 800 W.
        let mut s = sched(
            vec![job(0, 0.0, 2, 50.0, 150.0), job(1, 0.0, 2, 50.0, 150.0)],
            false,
        );
        let started = s.tick(0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(s.queue_depth(), 1);
        assert!(s.reserved_power() <= s.budget());
        s.finish(0, 30.0);
        assert_eq!(s.tick(30.0).len(), 1);
    }

    #[test]
    fn backfill_lets_short_job_jump_but_not_delay_head() {
        // Job 0 takes the whole cluster until t=100. Head (job 1) needs it
        // all too, so its shadow is 100. Job 2 (1 node, ends by 100)
        // backfills; job 3 (1 node, walltime 200 > shadow, no extra
        // allowance since head takes everything) must wait.
        let mut s = sched(
            vec![
                job(0, 0.0, 4, 100.0, 90.0),
                job(1, 1.0, 4, 50.0, 90.0),
                job(2, 2.0, 1, 50.0, 90.0),
                job(3, 2.0, 1, 200.0, 90.0),
            ],
            true,
        );
        assert_eq!(s.tick(0.0).len(), 1);
        s.finish(0, 40.0); // finishes early; expected end stays 100 for shadow math
                           // Re-run the clock: at t=2 job 0 still runs, 1 is head, 2 backfills.
        let mut s = sched(
            vec![
                job(0, 0.0, 3, 100.0, 90.0),
                job(1, 1.0, 4, 50.0, 90.0),
                job(2, 2.0, 1, 50.0, 90.0),
                job(3, 2.0, 1, 200.0, 90.0),
            ],
            true,
        );
        assert_eq!(s.tick(0.0).len(), 1); // job 0 on 3 nodes
        let started: Vec<usize> = s.tick(2.0).iter().map(|j| j.id).collect();
        assert_eq!(started, vec![2], "short job backfills, long job waits");
        assert_eq!(s.head_guarantees(), &[(1, 100.0)]);
        // Long job 3 would occupy the free node past t=100 and stall the
        // 4-node head — EASY must hold it back.
        assert_eq!(s.queue_depth(), 2);
    }

    #[test]
    fn backfill_uses_extra_allowance() {
        // Head needs 3 of 4 nodes at shadow; one node is extra, so even a
        // long job can backfill onto it.
        let mut s = sched(
            vec![
                job(0, 0.0, 3, 100.0, 90.0),
                job(1, 1.0, 3, 50.0, 90.0),
                job(2, 2.0, 1, 500.0, 90.0),
            ],
            true,
        );
        assert_eq!(s.tick(0.0).len(), 1);
        let started: Vec<usize> = s.tick(2.0).iter().map(|j| j.id).collect();
        assert_eq!(started, vec![2], "extra-node allowance admits the long job");
    }

    #[test]
    fn nodes_allocated_lowest_index_first() {
        let mut s = sched(vec![job(0, 0.0, 2, 50.0, 90.0)], true);
        let started = s.tick(0.0);
        assert_eq!(started[0].nodes, vec![0, 1]);
    }

    #[test]
    fn finish_and_evict_record_outcomes() {
        let mut s = sched(
            vec![job(0, 0.0, 1, 50.0, 90.0), job(1, 0.0, 1, 10.0, 90.0)],
            true,
        );
        s.tick(0.0);
        assert_eq!(s.overrunning(5.0), Vec::<usize>::new());
        assert_eq!(s.overrunning(10.0), vec![1]);
        s.evict(1, 10.0);
        s.finish(0, 20.0);
        assert!(s.is_drained());
        let outcomes: Vec<(usize, JobOutcome)> =
            s.records().iter().map(|r| (r.id, r.outcome)).collect();
        assert_eq!(
            outcomes,
            vec![(1, JobOutcome::Evicted), (0, JobOutcome::Completed)]
        );
        let mut events = Vec::new();
        s.drain_events_into(&mut events);
        let kinds: Vec<SchedEventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SchedEventKind::Arrived,
                SchedEventKind::Arrived,
                SchedEventKind::Started,
                SchedEventKind::Started,
                SchedEventKind::Evicted,
                SchedEventKind::Finished,
            ]
        );
        s.drain_events_into(&mut events);
        assert!(events.is_empty(), "events drain");
    }

    #[test]
    fn rejects_impossible_jobs() {
        assert!(JobScheduler::new(vec![job(0, 0.0, 5, 50.0, 90.0)], 4, 2, 800.0, true).is_err());
        assert!(JobScheduler::new(vec![job(0, 0.0, 4, 50.0, 200.0)], 4, 2, 800.0, true).is_err());
        assert!(JobScheduler::new(
            vec![job(0, 5.0, 1, 50.0, 90.0), job(1, 1.0, 1, 50.0, 90.0)],
            4,
            2,
            800.0,
            true
        )
        .is_err());
    }
}
