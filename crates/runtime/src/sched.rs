//! Per-worker scheduling: local work queues, lazy work distribution, and
//! the baselines it is measured against.
//!
//! §4.2: "we will implement local work queues per worker and infer
//! (approximately) the status of remote workers via the status of the
//! local queue, using techniques inspired by Lazy Scheduling \[9\]" — i.e.
//! tasks enqueue locally with no global coordination, and idle workers
//! pull work with cheap probes. [`ClusterSim`] simulates a Compute Node's
//! workers executing a task trace under one of three [`SchedPolicy`]s
//! (experiment E8):
//!
//! * [`SchedPolicy::LazyLocal`] — the ECOSCALE design: local queues +
//!   randomized stealing by idle workers,
//! * [`SchedPolicy::Centralized`] — one global queue behind a serializing
//!   dispatcher (what it replaces),
//! * [`SchedPolicy::RandomPush`] — blind load spreading with no stealing.
//!
//! With [`ClusterSim::with_faults`] the simulation additionally draws
//! worker crashes and stalls from a seeded
//! [`CampaignSpec`] and recovers
//! through the [`resilience`](crate::resilience) policy: queued work on a
//! dead worker is re-homed with bounded retry, persistent offenders are
//! quarantined, and the report carries completed/lost counts plus an
//! availability figure.

use std::collections::{HashSet, VecDeque};

use ecoscale_noc::NodeId;
use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::fault::{salt, CampaignSpec, FaultClock};
use ecoscale_sim::{
    Counter, Duration, Histogram, MetricsRegistry, OnlineStats, SimRng, Time, TimingWheel, Tracer,
    TrackId,
};

use crate::device::CpuModel;
use crate::resilience::{Backoff, Domain, ResilienceConfig, ResilienceManager, RetryPolicy};
use crate::task::Task;

/// A task plus its arrival time at the runtime.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// The task.
    pub task: Task,
    /// When it becomes ready.
    pub arrival: Time,
}

/// The scheduling policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Local queues; idle workers steal after probing up to `probes`
    /// random victims.
    LazyLocal {
        /// Max victims probed per steal attempt.
        probes: u32,
    },
    /// One global queue; every dispatch serializes through a central
    /// dispatcher.
    Centralized,
    /// Push each arrival to a uniformly random worker; no stealing.
    RandomPush,
}

/// What one simulated run produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedReport {
    /// Completion time of the last task.
    pub makespan: Time,
    /// Total scheduler-induced overhead (probes, dispatch serialization).
    pub sched_overhead: Duration,
    /// Remote probes / dispatch messages sent.
    pub messages: u64,
    /// Max over workers of busy time divided by makespan.
    pub max_utilization: f64,
    /// Mean worker utilization.
    pub mean_utilization: f64,
    /// Coefficient of variation of per-worker busy time (imbalance).
    pub imbalance: f64,
    /// Tasks that ran to completion.
    pub completed: u64,
    /// Tasks abandoned to faults (retry budget exhausted, or no
    /// recovery armed when their worker died). Zero without faults.
    pub lost: u64,
    /// Fraction of worker-time the machine was in service: `1.0` minus
    /// crash/stall/quarantine downtime over `workers × makespan`.
    /// Exactly `1.0` when no fault campaign is installed.
    pub availability: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrive(usize),
    /// Worker finished its current task.
    Finish(usize),
    /// An idle worker wakes to look for work again: a lazy steal retry,
    /// or a stall clearing.
    Retry(usize),
    /// Centralized only: the dispatcher finished handing out a task.
    Dispatched {
        worker: usize,
        task: usize,
    },
}

/// Cost of one remote queue probe by an idle lazy worker.
const PROBE_LATENCY: Duration = Duration::from_ns(300);
/// Time the central dispatcher spends on one grant.
const DISPATCH_LATENCY: Duration = Duration::from_ns(800);

/// Simulates one Compute Node's workers executing a task trace.
///
/// # Example
///
/// ```
/// use ecoscale_noc::NodeId;
/// use ecoscale_runtime::{ClusterSim, SchedPolicy, Task, TaskId, TaskSpec};
/// use ecoscale_sim::Time;
///
/// let tasks: Vec<TaskSpec> = (0..64)
///     .map(|i| TaskSpec {
///         task: Task::new(TaskId(i), "work", vec![], 200_000, 10_000, NodeId(0)),
///         arrival: Time::ZERO,
///     })
///     .collect();
/// let report = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 42).run(&tasks);
/// // all tasks land on worker 0's queue but stealing spreads them:
/// // several workers end up busy, so the run beats serial execution
/// assert!(report.mean_utilization > 2.0 / 8.0);
/// ```
#[derive(Debug)]
pub struct ClusterSim {
    workers: usize,
    policy: SchedPolicy,
    cpu: CpuModel,
    rng: SimRng,
    ins: SchedInstruments,
    tracer: Tracer,
    trace_label: String,
    faults: Option<WorkerFaults>,
    check: CheckPlane,
}

/// Worker fault injection installed by [`ClusterSim::with_faults`]:
/// crash and stall arrival clocks, the victim-pick stream, and the
/// resilience manager that decides recovery.
#[derive(Debug)]
struct WorkerFaults {
    crash_clock: FaultClock,
    stall_clock: FaultClock,
    pick: SimRng,
    stall_for: Duration,
    mgr: ResilienceManager,
}

/// Scheduler instruments accumulated by [`ClusterSim::run`] and read
/// back through [`ClusterSim::export_metrics`].
#[derive(Debug, Clone, Default)]
struct SchedInstruments {
    tasks: Counter,
    steals: Counter,
    probes: Counter,
    migrations: Counter,
    wait_ns: OnlineStats,
    exec_ns: OnlineStats,
    queue_depth: Histogram,
}

impl ClusterSim {
    /// Creates a simulator for `workers` workers under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize, policy: SchedPolicy, seed: u64) -> ClusterSim {
        assert!(workers > 0, "need at least one worker");
        ClusterSim {
            workers,
            policy,
            cpu: CpuModel::a53_default(),
            rng: SimRng::seed_from(seed),
            ins: SchedInstruments::default(),
            tracer: Tracer::disabled(),
            trace_label: "sched".to_owned(),
            faults: None,
            check: CheckPlane::from_env(),
        }
    }

    /// Installs worker fault injection from `spec` (crash and stall
    /// clocks seeded off the campaign) with `recovery` as the
    /// resilience policy. A spec with both worker fault classes
    /// disabled is a no-op, so fault-free campaigns stay byte-identical
    /// to runs without the FaultPlane at all.
    ///
    /// The campaign is one-shot: fault clocks advance across
    /// [`ClusterSim::run`]; install a fresh campaign per run to repeat
    /// one deterministically.
    pub fn with_faults(mut self, spec: &CampaignSpec, recovery: ResilienceConfig) -> ClusterSim {
        if spec.worker_crash_mtbf.is_zero() && spec.worker_stall_mtbf.is_zero() {
            return self;
        }
        self.faults = Some(WorkerFaults {
            crash_clock: FaultClock::new(spec.worker_crash_mtbf, spec.rng(salt::WORKER_CRASH)),
            stall_clock: FaultClock::new(spec.worker_stall_mtbf, spec.rng(salt::WORKER_STALL)),
            pick: spec.rng(salt::WORKER_PICK),
            stall_for: spec.worker_stall_for,
            mgr: ResilienceManager::new(recovery),
        });
        self
    }

    /// The resilience manager, when a fault campaign is installed.
    pub fn resilience(&self) -> Option<&ResilienceManager> {
        self.faults.as_ref().map(|f| &f.mgr)
    }

    /// Installs a tracer; task executions become spans on per-worker
    /// `{label}/w<N>` tracks and arrivals sample a `{label}/queued`
    /// counter track. `label` keeps lanes distinct when several
    /// simulations share one trace.
    pub fn with_tracer(mut self, tracer: Tracer, label: &str) -> ClusterSim {
        self.tracer = tracer;
        self.trace_label = label.to_owned();
        self
    }

    /// Installs a CheckPlane. [`ClusterSim::run`] then verifies, at the
    /// plane's cadence, that no task is queued or in flight twice across
    /// worker queues, the central queue and execution slots, and — at the
    /// end of each run — that every submitted task was either completed or
    /// declared lost. All checks are read-only: they draw nothing from the
    /// RNG, record no metrics and change no event ordering, so installing
    /// an (enabled or disabled) plane never perturbs golden schedules.
    pub fn with_checks(mut self, check: CheckPlane) -> ClusterSim {
        self.check = check;
        self
    }

    /// The installed CheckPlane (disabled by default); violations collected
    /// by [`ClusterSim::run`] are read back from here.
    pub fn checks(&self) -> &CheckPlane {
        &self.check
    }

    /// Folds the instruments of the most recent [`ClusterSim::run`]
    /// into `m` under `prefix`: task/steal/probe/migration counters,
    /// wait and exec latency stats, and the queue-depth histogram
    /// sampled at each arrival.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.add(&format!("{prefix}.tasks"), self.ins.tasks.get());
        m.add(&format!("{prefix}.steals"), self.ins.steals.get());
        m.add(&format!("{prefix}.probes"), self.ins.probes.get());
        m.add(&format!("{prefix}.migrations"), self.ins.migrations.get());
        m.merge_stats(&format!("{prefix}.wait_ns"), &self.ins.wait_ns);
        m.merge_stats(&format!("{prefix}.exec_ns"), &self.ins.exec_ns);
        m.merge_hist(&format!("{prefix}.queue_depth"), &self.ins.queue_depth);
        // Gated on installation so fault-free captures keep the exact
        // pre-FaultPlane key set (byte-identical JSON).
        if let Some(f) = &self.faults {
            f.mgr.export_metrics(m, &format!("{prefix}.resilience"));
        }
    }

    /// Runs the trace to completion and reports.
    pub fn run(&mut self, tasks: &[TaskSpec]) -> SchedReport {
        self.ins = SchedInstruments::default();
        RunState::new(self, tasks).execute()
    }
}

/// One worker's state during a [`ClusterSim::run`].
#[derive(Debug, Clone, Default)]
struct Worker {
    /// Local queue (LazyLocal and RandomPush).
    queue: VecDeque<usize>,
    /// Executing, or reserved by a central grant until its delivery.
    busy: bool,
    busy_time: Duration,
    /// The task executing now; taken by a crash, whose pending `Finish`
    /// then finds it empty.
    current: Option<usize>,
    /// Crashed or quarantined: takes no new work.
    retired: bool,
    down_since: Option<Time>,
    stalled_until: Time,
    stall_downtime: Duration,
    steal_backoff: Backoff,
}

/// The mutable state of one [`ClusterSim::run`]. Its methods are the
/// only places where a task is enqueued ([`RunState::enqueue`]), started
/// on a worker ([`RunState::start`]), granted by the central dispatcher
/// ([`RunState::grant`]), stolen ([`RunState::steal`]) or re-homed after
/// a worker fault ([`RunState::rehome`]). Each [`SchedPolicy`] is one
/// choice on arrival ([`RunState::on_arrive`]) and one when a worker
/// idles ([`RunState::on_idle`]).
///
/// The FaultPlane state is inert without a campaign: no worker retires
/// or stalls, and the fault guards reduce to the fault-free control flow.
struct RunState<'a> {
    sim: &'a mut ClusterSim,
    tasks: &'a [TaskSpec],
    q: TimingWheel<Ev>,
    /// Wheel key of the next [`RunState::push`].
    seq: u64,
    workers: Vec<Worker>,
    central: VecDeque<usize>,
    /// When the central dispatcher finishes its latest grant.
    dispatcher_free: Time,
    /// Bounded-retry state per task; empty without a fault campaign.
    task_backoff: Vec<Backoff>,
    /// The lazy scheduler's historical probe backoff, expressed as a
    /// resilience retry policy: 8x, 16x, then capped at 32x the probe
    /// latency — bit-identical to the old `(4 << min(k, 3))` ladder.
    steal_policy: RetryPolicy,
    overhead: Duration,
    messages: u64,
    completed: u64,
    lost: u64,
    tracks: Vec<TrackId>,
    queue_track: Option<TrackId>,
    wait_track: Option<TrackId>,
}

impl<'a> RunState<'a> {
    /// Opens the trace tracks and schedules every arrival, plus the lazy
    /// workers' first polls.
    fn new(sim: &'a mut ClusterSim, tasks: &'a [TaskSpec]) -> RunState<'a> {
        let n = sim.workers;
        let (tracks, queue_track, wait_track) = if sim.tracer.is_enabled() {
            let (tracer, label) = (&sim.tracer, &sim.trace_label);
            (
                (0..n)
                    .map(|w| tracer.track(&format!("{label}/w{w}")))
                    .collect(),
                Some(tracer.track(&format!("{label}/queued"))),
                Some(tracer.track(&format!("{label}/wait"))),
            )
        } else {
            (Vec::new(), None, None)
        };
        let mut run = RunState {
            q: TimingWheel::new(),
            seq: 0,
            workers: vec![Worker::default(); n],
            central: VecDeque::new(),
            dispatcher_free: Time::ZERO,
            task_backoff: if sim.faults.is_some() {
                vec![Backoff::new(); tasks.len()]
            } else {
                Vec::new()
            },
            steal_policy: RetryPolicy::new(
                PROBE_LATENCY * 8,
                PROBE_LATENCY * 32,
                RetryPolicy::UNBOUNDED,
            ),
            overhead: Duration::ZERO,
            messages: 0,
            completed: 0,
            lost: 0,
            tracks,
            queue_track,
            wait_track,
            sim,
            tasks,
        };
        for (i, t) in tasks.iter().enumerate() {
            run.push(t.arrival, Ev::Arrive(i));
        }
        // Lazy workers poll from the start: without an initial wake-up, a
        // worker that never receives an arrival would never steal.
        if let SchedPolicy::LazyLocal { .. } = run.sim.policy {
            if let Some(first) = tasks.iter().map(|t| t.arrival).min() {
                for w in 0..n {
                    run.push(first, Ev::Retry(w));
                }
            }
        }
        run
    }

    /// Schedules `ev` at `at` under the next sequence key, so events at
    /// equal times are delivered in the order they were scheduled.
    fn push(&mut self, at: Time, ev: Ev) {
        self.q.schedule(at, self.seq, ev);
        self.seq += 1;
    }

    /// Runs the event loop until the wheel drains, then reports.
    fn execute(mut self) -> SchedReport {
        while let Some((now, _, ev)) = self.q.pop() {
            // CheckPlane cadence gate: read-only duplicate-task scan over
            // every queue and execution slot. One branch when disabled.
            if self.sim.check.due() {
                self.check_no_duplicates();
            }
            self.inject_faults(now);
            match ev {
                Ev::Arrive(task) => self.on_arrive(task, now),
                Ev::Dispatched { worker, task } => {
                    if self.workers[worker].retired {
                        // The worker died between grant and delivery:
                        // the dispatch fails and the task is recovered.
                        self.rehome(task, now, now);
                    } else {
                        self.start(worker, task, now);
                    }
                }
                Ev::Finish(w) => {
                    // Empty when the worker crashed mid-execution: the
                    // task already went through recovery.
                    if self.workers[w].current.take().is_some() {
                        self.completed += 1;
                        self.on_idle(w, now, false);
                    }
                }
                Ev::Retry(w) => self.on_idle(w, now, true),
            }
        }
        self.report()
    }

    /// A task arrives: the policy chooses where it queues.
    fn on_arrive(&mut self, task: usize, now: Time) {
        let n = self.workers.len();
        let target = match self.sim.policy {
            SchedPolicy::LazyLocal { .. } => self.tasks[task].task.data_home().0 % n,
            SchedPolicy::RandomPush => {
                self.messages += 1;
                self.sim.rng.gen_range_usize(0, n)
            }
            SchedPolicy::Centralized => {
                self.enqueue(None, task, now);
                let idle = (0..n).find(|&w| {
                    let wk = &self.workers[w];
                    !wk.busy && !wk.retired && now >= wk.stalled_until
                });
                if let Some(w) = idle {
                    self.grant(w, now);
                }
                return;
            }
        };
        // A dead target re-routes to the next worker still in service,
        // or the task is lost.
        let Some(w) = (0..n)
            .map(|k| (target + k) % n)
            .find(|&w| !self.workers[w].retired)
        else {
            self.lose(1);
            return;
        };
        self.enqueue(Some(w), task, now);
        let (busy, stalled_until) = (self.workers[w].busy, self.workers[w].stalled_until);
        if !busy {
            if now < stalled_until {
                self.push(stalled_until, Ev::Retry(w));
            } else {
                self.start_next(w, now);
            }
        }
    }

    /// Worker `w` finished a task, or woke for a `poll`: unless it is out
    /// of service, stalled or (for a stale poll) already busy again, the
    /// policy chooses what it runs next.
    fn on_idle(&mut self, w: usize, now: Time, poll: bool) {
        let wk = &mut self.workers[w];
        if wk.retired || (poll && wk.busy) {
            return;
        }
        wk.busy = false;
        if now < wk.stalled_until {
            // stalled: wake again once the stall clears
            let until = wk.stalled_until;
            self.push(until, Ev::Retry(w));
            return;
        }
        match self.sim.policy {
            SchedPolicy::Centralized => self.grant(w, now),
            SchedPolicy::LazyLocal { probes } if self.workers[w].queue.is_empty() => {
                self.steal(w, now, probes)
            }
            SchedPolicy::LazyLocal { .. } | SchedPolicy::RandomPush => self.start_next(w, now),
        }
    }

    /// Queues `task` on worker `w`'s local queue, or on the central queue
    /// for `None`, and samples the queue depth.
    fn enqueue(&mut self, w: Option<usize>, task: usize, now: Time) {
        let queue = match w {
            Some(w) => &mut self.workers[w].queue,
            None => &mut self.central,
        };
        queue.push_back(task);
        let depth = queue.len();
        self.sim.ins.queue_depth.record(depth as u64);
        if let Some(t) = self.queue_track {
            self.sim.tracer.counter(t, "queued", now, depth as f64);
        }
    }

    /// Starts the head of worker `w`'s local queue, if any.
    fn start_next(&mut self, w: usize, now: Time) {
        if let Some(task) = self.workers[w].queue.pop_front() {
            self.start(w, task, now);
        }
    }

    /// Worker `w` starts executing `task` at `at`. Records the wait
    /// latency (arrival → start), the exec latency, a migration (executed
    /// away from its data home), a span on the worker's track, and — when
    /// the task waited at all — a `wait` span on the shared wait track so
    /// ProfPlane can blame scheduler queueing on the critical path.
    fn start(&mut self, w: usize, task: usize, at: Time) {
        let tasks = self.tasks;
        let spec = &tasks[task];
        let d = self.sim.cpu.exec(spec.task.flops(), spec.task.mem_ops()).0;
        let wk = &mut self.workers[w];
        wk.busy = true;
        wk.busy_time += d;
        wk.current = Some(task);
        let ins = &mut self.sim.ins;
        ins.tasks.incr();
        let waited = at.saturating_since(spec.arrival);
        ins.wait_ns.record(waited.as_ns_f64());
        ins.exec_ns.record(d.as_ns_f64());
        if spec.task.data_home().0 % self.workers.len() != w {
            ins.migrations.incr();
        }
        if let Some(&track) = self.tracks.get(w) {
            self.sim.tracer.complete(track, spec.task.function(), at, d);
        }
        if let Some(track) = self.wait_track {
            if waited > Duration::ZERO {
                self.sim
                    .tracer
                    .complete(track, "wait", spec.arrival, waited);
            }
        }
        self.push(at + d, Ev::Finish(w));
    }

    /// The central dispatcher grants the head of the central queue to
    /// worker `w`, which stays reserved until delivery. Grants serialize
    /// through the dispatcher.
    fn grant(&mut self, w: usize, now: Time) {
        if let Some(task) = self.central.pop_front() {
            self.workers[w].busy = true;
            let done = self.dispatcher_free.max(now) + DISPATCH_LATENCY;
            self.overhead += done - now;
            self.dispatcher_free = done;
            self.messages += 2; // request + grant
            self.push(done, Ev::Dispatched { worker: w, task });
        }
    }

    /// Idle worker `w` probes up to `probes` random victims and takes
    /// half of the first queue holding more than one task (the classic
    /// steal-half heuristic), starting the first stolen task once the
    /// probes return. With nothing stolen it polls again with bounded
    /// backoff while others still hold work: responsive (hot queues
    /// refill constantly) without a probe storm.
    fn steal(&mut self, w: usize, now: Time, probes: u32) {
        let n = self.workers.len();
        let mut victim = None;
        let mut probe_cost = Duration::ZERO;
        for _ in 0..probes {
            let v = self.sim.rng.gen_range_usize(0, n);
            probe_cost += PROBE_LATENCY;
            self.messages += 1;
            self.sim.ins.probes.incr();
            if v != w && self.workers[v].queue.len() > 1 {
                victim = Some(v);
                break;
            }
        }
        self.overhead += probe_cost;
        let at = now + probe_cost;
        if let Some(v) = victim {
            self.workers[w].steal_backoff.reset();
            self.sim.ins.steals.incr();
            let queue = &mut self.workers[v].queue;
            let mut taken = queue.split_off(queue.len() / 2);
            let first = taken.pop_front().expect("len > 1");
            self.workers[w].queue.extend(taken);
            self.start(w, first, at);
        } else if self.workers.iter().any(|wk| wk.queue.len() > 1)
            || (self.completed + (self.workers.iter().filter(|wk| wk.busy).count() as u64)
                < self.tasks.len() as u64
                && self.workers.iter().any(|wk| !wk.queue.is_empty()))
        {
            let wait = self.workers[w]
                .steal_backoff
                .next(&self.steal_policy)
                .expect("steal retry is unbounded");
            self.push(at + wait, Ev::Retry(w));
        }
    }

    /// Drains fault arrivals up to `now`, in time order across the crash
    /// and stall clocks.
    fn inject_faults(&mut self, now: Time) {
        while let Some(f) = self.sim.faults.as_mut() {
            let crash_at = f.crash_clock.peek().filter(|&t| t <= now);
            let stall_at = f.stall_clock.peek().filter(|&t| t <= now);
            let (at, is_crash) = match (crash_at, stall_at) {
                (Some(c), Some(s)) if c <= s => (f.crash_clock.pop_due(now), true),
                (Some(_), Some(_)) => (f.stall_clock.pop_due(now), false),
                (Some(_), None) => (f.crash_clock.pop_due(now), true),
                (None, Some(_)) => (f.stall_clock.pop_due(now), false),
                (None, None) => return,
            };
            let at = at.expect("peeked arrival is due");
            let in_service: Vec<usize> = (0..self.workers.len())
                .filter(|&w| !self.workers[w].retired)
                .collect();
            let Some(&v) = in_service.get(f.pick.gen_range_usize(0, in_service.len().max(1)))
            else {
                continue; // machine already fully down
            };
            let retire = if is_crash {
                // Hard fault: the worker dies with its queue, and any
                // in-flight task fails with it.
                f.mgr.record_failure(Domain::Worker(v), at);
                true
            } else {
                // Transient stall: no new work until it clears. A
                // persistent offender is quarantined.
                let wk = &mut self.workers[v];
                wk.stalled_until = wk.stalled_until.max(at + f.stall_for);
                wk.stall_downtime += f.stall_for;
                f.mgr.record_failure(Domain::Worker(v), at)
            };
            if retire {
                self.retire(v, at, now, is_crash);
            }
        }
    }

    /// Takes worker `v` out of service at `at` and re-homes its queue.
    /// A crash also fails the task in flight; a quarantine is graceful
    /// and lets it complete.
    fn retire(&mut self, v: usize, at: Time, now: Time, crash: bool) {
        let wk = &mut self.workers[v];
        wk.retired = true;
        wk.down_since = Some(at);
        let inflight = if crash { wk.current.take() } else { None };
        let orphans: Vec<usize> = wk.queue.drain(..).chain(inflight).collect();
        for task in orphans {
            self.rehome(task, at, now);
        }
    }

    /// Recovers a task orphaned by a worker fault at `at`: re-injects
    /// it as a fresh arrival after the bounded-retry delay (never
    /// before `now` — the fault may predate the event being handled),
    /// or counts it lost once the budget (or the whole retry
    /// mechanism) is absent.
    fn rehome(&mut self, task: usize, at: Time, now: Time) {
        let mgr = &mut self.sim.faults.as_mut().expect("only faults orphan").mgr;
        match mgr
            .config()
            .retry
            .and_then(|p| self.task_backoff[task].next(&p))
        {
            Some(delay) => {
                let fire = (at + delay).max(now);
                mgr.note_retry();
                mgr.note_recovery(fire.since(at));
                self.push(fire, Ev::Arrive(task));
            }
            None => self.lose(1),
        }
    }

    /// Counts `n` tasks lost to faults.
    fn lose(&mut self, n: u64) {
        self.lost += n;
        if let Some(f) = self.sim.faults.as_mut() {
            for _ in 0..n {
                f.mgr.note_lost();
            }
        }
    }

    /// Read-only scan asserting no task index appears twice across worker
    /// queues, the central queue and in-flight execution slots.
    fn check_no_duplicates(&mut self) {
        let mut seen: HashSet<usize> = HashSet::new();
        let queued = self.workers.iter().flat_map(|wk| &wk.queue);
        let running = self.workers.iter().filter_map(|wk| wk.current.as_ref());
        for &t in queued.chain(&self.central).chain(running) {
            self.sim
                .check
                .check(invariant::SCHED_NO_DUPLICATE_TASKS, seen.insert(t), || {
                    format!("task {t} queued or running twice")
                });
        }
    }

    /// Counts work still queued when the event stream dried up — possible
    /// only once every worker has died — as lost, runs the end-of-run
    /// checks, and reports.
    fn report(mut self) -> SchedReport {
        if self.sim.faults.is_some() {
            let queued = self.workers.iter().map(|wk| wk.queue.len()).sum::<usize>();
            self.lose((queued + self.central.len()) as u64);
        }
        if self.sim.check.is_enabled() {
            self.check_no_duplicates();
            let (completed, lost, submitted) = (self.completed, self.lost, self.tasks.len());
            self.sim.check.check(
                invariant::SCHED_TASK_CONSERVATION,
                completed + lost == submitted as u64,
                || format!("completed {completed} + lost {lost} != submitted {submitted}"),
            );
        }

        let makespan = self.q.now();
        let span = makespan.saturating_since(Time::ZERO);
        let utils: Vec<f64> = self
            .workers
            .iter()
            .map(|wk| {
                if span.is_zero() {
                    0.0
                } else {
                    wk.busy_time / span
                }
            })
            .collect();
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        let max = utils.iter().cloned().fold(0.0, f64::max);
        let var = utils.iter().map(|u| (u - mean) * (u - mean)).sum::<f64>() / utils.len() as f64;
        let imbalance = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        let availability = if self.sim.faults.is_some() && !span.is_zero() {
            let mut down = Duration::ZERO;
            for wk in &self.workers {
                let mut d = wk.stall_downtime;
                if let Some(t0) = wk.down_since {
                    d += makespan.saturating_since(t0);
                }
                down += d.min(span);
            }
            (1.0 - down / (span * self.workers.len() as u64)).max(0.0)
        } else {
            1.0
        };
        SchedReport {
            makespan,
            sched_overhead: self.overhead,
            messages: self.messages,
            max_utilization: max,
            mean_utilization: mean,
            imbalance,
            completed: self.completed,
            lost: self.lost,
            availability,
        }
    }
}

/// Builds a synthetic task trace: `count` tasks of `flops` work arriving
/// at `home` workers round-robin-skewed by a Zipf draw (irregular load,
/// the case hierarchical HPC apps present). Arrivals are spaced so the
/// offered load slightly exceeds the machine's aggregate capacity (the
/// interesting scheduling regime).
pub fn skewed_trace(
    count: usize,
    workers: usize,
    flops: u64,
    skew: f64,
    seed: u64,
) -> Vec<TaskSpec> {
    // mean task time on an A53-class core ≈ 1.15 flops-equivalents at
    // 1.2 GHz (flops + mem ops + size jitter)
    let task_ns = (flops as f64 * 1.15 / 1.2).ceil() as u64;
    let spacing = (task_ns / workers as u64).max(1) * 9 / 10;
    skewed_trace_with_spacing(count, workers, flops, skew, spacing, seed)
}

/// [`skewed_trace`] with explicit inter-arrival spacing in nanoseconds.
pub fn skewed_trace_with_spacing(
    count: usize,
    workers: usize,
    flops: u64,
    skew: f64,
    spacing_ns: u64,
    seed: u64,
) -> Vec<TaskSpec> {
    use crate::task::TaskId;
    let mut rng = SimRng::seed_from(seed);
    (0..count)
        .map(|i| {
            let home = rng.gen_zipf(workers, skew);
            let jitter = rng.gen_range_u64(0, spacing_ns.max(2) / 2);
            TaskSpec {
                task: Task::new(
                    TaskId(i as u64),
                    "work",
                    vec![flops as f64],
                    flops + rng.gen_range_u64(0, flops / 2 + 1),
                    flops / 10,
                    NodeId(home),
                ),
                arrival: Time::from_ns(i as u64 * spacing_ns + jitter),
            }
        })
        .collect()
}

/// One [`skewed_trace_with_spacing`] per cluster, each with its own seed
/// drawn from `seed` *in cluster index order*. Every cluster's trace is a
/// pure function of `(seed, cluster index)` — independent of how clusters
/// are later packed onto shards — which is what the sharded engine's
/// byte-identity guarantee needs from its workload generator.
pub fn partitioned_traces(
    clusters: usize,
    per_cluster: usize,
    workers: usize,
    flops: u64,
    skew: f64,
    spacing_ns: u64,
    seed: u64,
) -> Vec<Vec<TaskSpec>> {
    let mut root = SimRng::seed_from(seed);
    (0..clusters)
        .map(|_| {
            let s = root.next_u64();
            skewed_trace_with_spacing(per_cluster, workers, flops, skew, spacing_ns, s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn uniform_trace(count: usize, flops: u64) -> Vec<TaskSpec> {
        (0..count)
            .map(|i| TaskSpec {
                task: Task::new(TaskId(i as u64), "w", vec![], flops, flops / 10, NodeId(i)),
                arrival: Time::ZERO,
            })
            .collect()
    }

    #[test]
    fn partitioned_traces_are_per_cluster_stable() {
        let all = partitioned_traces(6, 40, 4, 50_000, 1.1, 800, 99);
        assert_eq!(all.len(), 6);
        assert!(all.iter().all(|t| t.len() == 40));
        // each cluster's trace depends only on (seed, index), so a prefix
        // regeneration reproduces the same leading clusters
        let prefix = partitioned_traces(3, 40, 4, 50_000, 1.1, 800, 99);
        for (a, b) in prefix.iter().zip(&all) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.arrival, y.arrival);
                assert_eq!(x.task.flops(), y.task.flops());
                assert_eq!(x.task.data_home(), y.task.data_home());
            }
        }
        // distinct clusters get distinct streams
        assert!(all[0]
            .iter()
            .zip(&all[1])
            .any(|(x, y)| x.arrival != y.arrival || x.task.flops() != y.task.flops()));
    }

    #[test]
    fn all_tasks_complete_under_every_policy() {
        let trace = skewed_trace(200, 8, 100_000, 1.0, 7);
        for policy in [
            SchedPolicy::LazyLocal { probes: 2 },
            SchedPolicy::Centralized,
            SchedPolicy::RandomPush,
        ] {
            let r = ClusterSim::new(8, policy, 1).run(&trace);
            assert!(r.makespan > Time::ZERO, "{policy:?}");
            assert!(r.mean_utilization > 0.0, "{policy:?}");
            assert_eq!(r.completed, 200, "{policy:?}");
            assert_eq!(r.lost, 0, "{policy:?}");
            assert_eq!(r.availability, 1.0, "{policy:?}");
        }
    }

    #[test]
    fn lazy_balances_skewed_load() {
        let trace = skewed_trace(400, 16, 200_000, 1.2, 11);
        let lazy = ClusterSim::new(16, SchedPolicy::LazyLocal { probes: 3 }, 1).run(&trace);
        let pushy = ClusterSim::new(16, SchedPolicy::RandomPush, 1).run(&trace);
        // stealing repairs the Zipf skew that random push leaves on the
        // home distribution... random push actually spreads uniformly, so
        // compare against *no* stealing by noting lazy completes sooner
        // than the skewed home assignment would serially imply.
        assert!(lazy.imbalance < 1.0);
        assert!(lazy.makespan.as_ns() <= pushy.makespan.as_ns() * 2);
    }

    #[test]
    fn centralized_pays_dispatch_overhead() {
        let trace = uniform_trace(256, 50_000);
        let central = ClusterSim::new(16, SchedPolicy::Centralized, 1).run(&trace);
        let lazy = ClusterSim::new(16, SchedPolicy::LazyLocal { probes: 2 }, 1).run(&trace);
        assert!(central.sched_overhead > lazy.sched_overhead);
        assert!(central.messages > 0);
    }

    #[test]
    fn centralized_serializes_at_scale() {
        // with many tiny tasks the dispatcher becomes the bottleneck
        let trace = uniform_trace(2000, 5_000);
        let small = ClusterSim::new(4, SchedPolicy::Centralized, 1).run(&trace);
        let big = ClusterSim::new(64, SchedPolicy::Centralized, 1).run(&trace);
        // adding workers cannot help once the dispatcher saturates:
        // makespan stays within 3x instead of scaling by 16x
        assert!(big.makespan.as_ns() as f64 > small.makespan.as_ns() as f64 / 8.0);
    }

    #[test]
    fn single_worker_degenerate() {
        let trace = uniform_trace(10, 10_000);
        let r = ClusterSim::new(1, SchedPolicy::LazyLocal { probes: 1 }, 1).run(&trace);
        assert!(r.max_utilization > 0.9);
        assert!(r.imbalance < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = skewed_trace(100, 8, 80_000, 1.0, 3);
        let a = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 5).run(&trace);
        let b = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 5).run(&trace);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.messages, b.messages);
    }

    /// Golden values pinning the lazy scheduler's probe-backoff timing
    /// before the resilience layer generalized it: the `RetryPolicy`
    /// rewrite must not move a single picosecond or message.
    #[test]
    fn pins_lazy_backoff_golden_values() {
        let trace = skewed_trace(300, 8, 120_000, 1.3, 21);
        let r = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 9).run(&trace);
        assert_eq!(r.makespan.as_ps(), 5_417_607_987);
        assert_eq!(r.sched_overhead.as_ps(), 59_100_000);
        assert_eq!(r.messages, 197);

        let trace = skewed_trace(64, 4, 60_000, 1.0, 5);
        let r = ClusterSim::new(4, SchedPolicy::LazyLocal { probes: 3 }, 2).run(&trace);
        assert_eq!(r.makespan.as_ps(), 1_159_461_494);
        assert_eq!(r.sched_overhead.as_ps(), 14_700_000);
        assert_eq!(r.messages, 49);
    }

    #[test]
    fn skewed_trace_is_skewed() {
        let trace = skewed_trace(1000, 8, 1000, 1.5, 9);
        let mut counts = [0u32; 8];
        for t in &trace {
            counts[t.task.data_home().0] += 1;
        }
        assert!(counts[0] > counts[7] * 2);
    }

    #[test]
    fn instruments_and_trace_capture_executions() {
        let trace = skewed_trace(100, 8, 80_000, 1.0, 3);
        let tracer = Tracer::buffering();
        let mut sim = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 5)
            .with_tracer(tracer, "lane0");
        sim.run(&trace);
        let mut m = MetricsRegistry::new();
        sim.export_metrics(&mut m, "sched");
        assert_eq!(m.counter("sched.tasks"), Some(100));
        assert!(m.counter("sched.probes").unwrap() > 0);
        match m.get("sched.wait_ns") {
            Some(ecoscale_sim::Instrument::Stats(s)) => assert_eq!(s.count(), 100),
            other => panic!("unexpected: {other:?}"),
        }
        // no fault campaign installed: no resilience keys appear
        assert!(m.counter("sched.resilience.failures").is_none());
        let buf = sim.tracer.take();
        let tracks = buf.tracks();
        let complete = |e: &&ecoscale_sim::trace::TraceEvent| {
            matches!(e.kind, ecoscale_sim::trace::EventKind::Complete { .. })
        };
        let exec_spans = buf
            .events()
            .iter()
            .filter(complete)
            .filter(|e| {
                let t = &tracks[e.track.0 as usize];
                t.starts_with("lane0/w") && t != "lane0/wait"
            })
            .count();
        assert_eq!(exec_spans, 100, "one exec span per task");
        // queued tasks additionally record wait spans for ProfPlane
        let wait_spans = buf
            .events()
            .iter()
            .filter(complete)
            .filter(|e| tracks[e.track.0 as usize] == "lane0/wait")
            .count();
        assert!(wait_spans > 0, "overloaded workers must record waits");
        assert!(buf
            .events()
            .iter()
            .filter(complete)
            .all(|e| { tracks[e.track.0 as usize] != "lane0/wait" || e.name == "wait" }));
        assert!(tracks.iter().any(|t| t == "lane0/w0"));
        assert!(tracks.iter().any(|t| t == "lane0/queued"));
    }

    #[test]
    fn empty_trace_is_empty_report() {
        let r = ClusterSim::new(4, SchedPolicy::RandomPush, 1).run(&[]);
        assert_eq!(r.makespan, Time::ZERO);
        assert_eq!(r.messages, 0);
        assert_eq!(r.availability, 1.0);
    }

    #[test]
    fn off_campaign_is_a_no_op() {
        let trace = skewed_trace(200, 8, 100_000, 1.1, 13);
        let base = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 3).run(&trace);
        let mut faulted = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 3)
            .with_faults(&CampaignSpec::off(), ResilienceConfig::full());
        let same = faulted.run(&trace);
        assert_eq!(base, same);
        assert!(faulted.resilience().is_none());
    }

    #[test]
    fn crashes_recover_through_retry() {
        let spec = CampaignSpec::parse("seed=3,crash=1ms").expect("valid spec");
        let trace = skewed_trace(300, 8, 120_000, 1.2, 7);
        let mut sim = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
            .with_faults(&spec, ResilienceConfig::full());
        let r = sim.run(&trace);
        let mgr = sim.resilience().expect("campaign installed");
        assert!(mgr.failures() > 0, "campaign produced no crashes");
        assert_eq!(r.completed + r.lost, 300, "every task accounted for");
        assert!(r.completed > 0);
        assert!(mgr.retries() > 0, "orphans were re-homed");
        assert!(r.availability < 1.0, "downtime must show up");
        assert!(r.availability > 0.5, "bounded availability loss");
    }

    #[test]
    fn no_recovery_loses_orphaned_work() {
        let spec = CampaignSpec::parse("seed=3,crash=1ms").expect("valid spec");
        let trace = skewed_trace(300, 8, 120_000, 1.2, 7);
        let mut none = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
            .with_faults(&spec, ResilienceConfig::none());
        let bare = none.run(&trace);
        let mut full = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
            .with_faults(&spec, ResilienceConfig::full());
        let recovered = full.run(&trace);
        assert_eq!(bare.completed + bare.lost, 300);
        assert!(
            bare.lost > recovered.lost,
            "recovery must save tasks: bare={} full={}",
            bare.lost,
            recovered.lost
        );
    }

    #[test]
    fn stalls_quarantine_persistent_offenders() {
        let spec = CampaignSpec::parse("seed=9,stall=100us,stall_for=200us").expect("valid spec");
        let config = ResilienceConfig {
            quarantine_after: 2,
            ..ResilienceConfig::retry_only()
        };
        let trace = skewed_trace(300, 8, 120_000, 1.2, 7);
        let mut sim =
            ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 1).with_faults(&spec, config);
        let r = sim.run(&trace);
        let mgr = sim.resilience().expect("campaign installed");
        assert!(mgr.quarantines() > 0, "repeat offenders get quarantined");
        assert_eq!(r.completed + r.lost, 300);
        assert!(r.availability < 1.0);
    }

    #[test]
    fn centralized_survives_crashes() {
        let spec = CampaignSpec::parse("seed=5,crash=2ms").expect("valid spec");
        let trace = uniform_trace(256, 50_000);
        let mut sim = ClusterSim::new(8, SchedPolicy::Centralized, 1)
            .with_faults(&spec, ResilienceConfig::full());
        let r = sim.run(&trace);
        assert_eq!(r.completed + r.lost, 256);
        assert!(r.completed > 0);
    }

    #[test]
    fn fault_campaign_is_deterministic() {
        let trace = skewed_trace(200, 8, 100_000, 1.1, 13);
        let run = || {
            let spec = CampaignSpec::parse("seed=7,crash=1ms,stall=500us,stall_for=100us")
                .expect("valid spec");
            let mut sim = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 3)
                .with_faults(&spec, ResilienceConfig::full());
            let r = sim.run(&trace);
            let mgr = sim.resilience().expect("campaign installed");
            (r, mgr.failures(), mgr.retries(), mgr.lost())
        };
        assert_eq!(run(), run());
    }

    /// One pinned row: every [`SchedReport`] field (`f64`s as bits), then
    /// the fnv1a64 of the exported metrics JSON and of the Chrome trace.
    type PinRow = [u64; 11];

    /// Runs each policy under crash + stall faults and each recovery
    /// config, returning one [`PinRow`] per run.
    fn faulted_pin_rows() -> Vec<PinRow> {
        use ecoscale_sim::snap::fnv1a64;
        let trace = skewed_trace(300, 8, 120_000, 1.2, 7);
        let configs = [
            ResilienceConfig::none(),
            ResilienceConfig::full(),
            ResilienceConfig {
                quarantine_after: 2,
                ..ResilienceConfig::retry_only()
            },
        ];
        let mut rows = Vec::new();
        for policy in [
            SchedPolicy::LazyLocal { probes: 2 },
            SchedPolicy::Centralized,
            SchedPolicy::RandomPush,
        ] {
            for config in configs {
                let spec = CampaignSpec::parse("seed=7,crash=1ms,stall=500us,stall_for=100us")
                    .expect("valid spec");
                let tracer = Tracer::buffering();
                let mut sim = ClusterSim::new(8, policy, 1)
                    .with_faults(&spec, config)
                    .with_tracer(tracer.clone(), "pin");
                let r = sim.run(&trace);
                let mut m = MetricsRegistry::new();
                sim.export_metrics(&mut m, "sched");
                rows.push([
                    r.makespan.as_ps(),
                    r.sched_overhead.as_ps(),
                    r.messages,
                    r.max_utilization.to_bits(),
                    r.mean_utilization.to_bits(),
                    r.imbalance.to_bits(),
                    r.completed,
                    r.lost,
                    r.availability.to_bits(),
                    fnv1a64(m.to_json().as_bytes()),
                    fnv1a64(tracer.take().to_chrome_json().as_bytes()),
                ]);
            }
        }
        rows
    }

    /// Golden values for the fault paths (crash orphan re-homing, stall
    /// wake-ups, quarantine, failed central dispatch), which the
    /// fault-free benchmark digests do not reach: the event order, every
    /// RNG draw, every report field, metric and trace span must hold.
    #[test]
    fn pins_faulted_runs() {
        #[rustfmt::skip]
        const PINNED: [PinRow; 9] = [
            // lazy, none
            [7447983877, 14400000, 48, 4606913434085850410, 4601036698444535186, 4604659362134472374, 171, 129, 4600802709430345796,
             16072162612737348703, 3931424681589645660],
            // lazy, full
            [4808505140, 14100000, 47, 4606908743692916596, 4602810777199461646, 4603162680778699390, 139, 161, 4602779690541527984,
             46361813482792918, 1740102752302594710],
            // lazy, retry_only + quarantine_after 2
            [4093968780, 14100000, 47, 4606163211182113790, 4603162187676006664, 4602606473242648477, 127, 173, 4603176768032030018,
             8982819906540718500, 8674280371635430339],
            // central, none
            [7437495544, 145550117, 362, 4606791332862530561, 4601158103119703724, 4604406998003946355, 173, 127, 4600812765670516536,
             6535724360482428914, 7052249669900421792],
            // central, full
            [4819755440, 121594882, 300, 4606898647195190921, 4602974453719946575, 4603089670507262888, 144, 156, 4602768942759675980,
             8744399912105368418, 9572487012786631757],
            // central, retry_only + quarantine_after 2
            [3965007948, 111339500, 274, 4606973953954109734, 4603487459497579829, 4602663600558312374, 131, 169, 4603339442070165411,
             15698556634730814145, 15380999487645348364],
            // random, none
            [7482254710, 0, 300, 4606846414201341570, 4600952483870133518, 4604977812471427013, 169, 131, 4600770047032811766,
             15183372600420883851, 7435131689085809462],
            // random, full
            [4815829306, 0, 643, 4606896237473088960, 4602770055965015767, 4603671905120417446, 137, 163, 4602772687820340022,
             13722967386518703670, 4192954516115061062],
            // random, retry_only + quarantine_after 2
            [3990495449, 0, 668, 4607133807877708576, 4603223437322648933, 4603308505801751222, 124, 176, 4603306457913573950,
             17692269935868606055, 14561942920180613839],
        ];
        assert_eq!(faulted_pin_rows(), PINNED);
    }

    #[test]
    fn faulted_run_exports_resilience_metrics() {
        let spec = CampaignSpec::parse("seed=3,crash=1ms").expect("valid spec");
        let trace = skewed_trace(300, 8, 120_000, 1.2, 7);
        let mut sim = ClusterSim::new(8, SchedPolicy::LazyLocal { probes: 2 }, 1)
            .with_faults(&spec, ResilienceConfig::full());
        sim.run(&trace);
        let mut m = MetricsRegistry::new();
        sim.export_metrics(&mut m, "sched");
        assert!(m.counter("sched.resilience.failures").unwrap() > 0);
        assert!(m.counter("sched.resilience.retries").unwrap() > 0);
    }
}
