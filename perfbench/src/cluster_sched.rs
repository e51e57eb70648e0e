//! `cluster_sched`: the scheduler and event-kernel path, in two parts.
//!
//! 1. `ClusterSim::run` under the three E8 policies on a fine-grain
//!    (~7 µs) zipf-skewed trace, where the centralized dispatcher is the
//!    bottleneck.
//! 2. `run_shard_sim_with` at one shard on P1's `scaling_config` with
//!    64 clusters of 8,192 tasks: the timing wheel, the sharded engine's
//!    rounds and per-task UNIMEM reads, with no kernel interpretation.
//!
//! One shard, because on a two-core host the spread of a two-shard run
//! is wider than any parallel speed-up it could show.

use ecoscale_bench::shard_exp::scaling_config;
use ecoscale_core::{run_shard_sim_observed, run_shard_sim_with, ShardSimConfig};
use ecoscale_runtime::{skewed_trace, ClusterSim, SchedPolicy, SchedReport, TaskSpec};
use ecoscale_sim::prof::Phase;
use ecoscale_sim::{CheckPlane, MetricsRegistry, SimRng};

use crate::cpu;
use crate::digest::Digest;
use crate::spans::{SpanLog, EXPORT};
use crate::{Metric, Pass, Workload};

const WORKERS: usize = 64;
const TASKS: usize = 12_000;
const FINE_FLOPS: u64 = 8_000;
const SKEW: f64 = 1.1;
const CLUSTERS: usize = 64;
const TASKS_PER_CLUSTER: usize = 8_192;
/// Set-up (`ClusterSim` construction and the shard run's lookahead) is
/// about a microsecond; it is timed over a batch of repetitions.
const SETUP_REPS: usize = 64;

const POLICIES: [(&str, &str, SchedPolicy); 3] = [
    (
        "lazy",
        "runtime.sched.lazy",
        SchedPolicy::LazyLocal { probes: 2 },
    ),
    ("central", "runtime.sched.central", SchedPolicy::Centralized),
    ("random", "runtime.sched.random", SchedPolicy::RandomPush),
];
const SHARD: &str = "sim.shard.run";

pub struct ClusterSched {
    trace: Vec<TaskSpec>,
    policy_seed: u64,
    shard: ShardSimConfig,
}

impl ClusterSched {
    pub fn new(seed: u64) -> ClusterSched {
        let mut rng = SimRng::seed_from(seed);
        let trace = skewed_trace(TASKS, WORKERS, FINE_FLOPS, SKEW, rng.next_u64());
        let policy_seed = rng.next_u64();
        let mut shard = scaling_config(CLUSTERS, TASKS_PER_CLUSTER);
        shard.seed = rng.next_u64();
        ClusterSched {
            trace,
            policy_seed,
            shard,
        }
    }

    fn sims(&self) -> Vec<ClusterSim> {
        POLICIES
            .iter()
            .map(|&(_, _, policy)| ClusterSim::new(WORKERS, policy, self.policy_seed))
            .collect()
    }
}

fn digest_report(d: &mut Digest, r: &SchedReport) {
    d.u64(r.makespan.as_ps());
    d.u64(r.sched_overhead.as_ps());
    d.u64(r.messages);
    d.f64(r.max_utilization);
    d.f64(r.mean_utilization);
    d.f64(r.imbalance);
    d.u64(r.completed);
    d.u64(r.lost);
}

impl Workload for ClusterSched {
    fn name(&self) -> &'static str {
        "cluster_sched"
    }

    fn pass(&mut self, log: &mut SpanLog) -> Pass {
        // One set-up sample is the mean of a batch, so the clock's own
        // cost and granularity do not dominate it.
        let c = cpu::now();
        let mut sims = Vec::new();
        for _ in 0..SETUP_REPS {
            sims = self.sims();
            std::hint::black_box((&sims, self.shard.lookahead()));
        }
        let mut p = Pass::new((cpu::now() - c).as_secs_f64() / SETUP_REPS as f64);
        let mut digest = Digest::new();
        log.begin_pass();
        let tasks = self.trace.len() as u64;
        for (sim, &(key, span, _)) in sims.iter_mut().zip(&POLICIES) {
            let (r, run) = log.time(span, || sim.run(&self.trace));
            p.timed_s += run.cpu.as_secs_f64();
            p.attempted += tasks;
            p.failed += tasks - r.completed.min(tasks);
            p.work += r.completed as f64;
            p.counts
                .push((key, run.wall.as_nanos() as f64 / tasks as f64));
            digest_report(&mut digest, &r);
        }
        let mut cp = CheckPlane::disabled();
        let log_enabled = log.enabled();
        let ((out, prof), run) = log.time(SHARD, || {
            if log_enabled {
                let (out, prof) = run_shard_sim_observed(&self.shard, &mut cp);
                (out, Some(prof))
            } else {
                (run_shard_sim_with(&self.shard, Some(1), &mut cp), None)
            }
        });
        p.timed_s += run.cpu.as_secs_f64();
        let tasks = (CLUSTERS * TASKS_PER_CLUSTER) as u64;
        p.attempted += tasks;
        p.failed += tasks - out.completed.min(tasks);
        p.work += out.completed as f64;
        let shard_ns = run.wall.as_nanos() as f64;
        p.counts.push(("shard_ns", shard_ns));
        p.counts.push(("events", out.events as f64));
        p.counts.push(("rounds", out.rounds as f64));
        if let Some(prof) = prof {
            for (key, phase) in [
                ("drain", Phase::Drain),
                ("decide", Phase::Decide),
                ("process", Phase::Process),
            ] {
                p.counts.push((key, prof.ns(phase) as f64 / shard_ns));
            }
        }

        let ((sched_json, shard_json), export) = log.time(EXPORT, || {
            let mut m = MetricsRegistry::new();
            for (sim, &(key, _, _)) in sims.iter().zip(&POLICIES) {
                sim.export_metrics(&mut m, key);
            }
            (m.to_json(), out.metrics.to_json())
        });
        log.end_pass();
        p.timed_s += export.cpu.as_secs_f64();
        p.op_us.push(p.timed_s * 1e6);
        digest.str(&out.report());
        digest.str(&sched_json);
        digest.str(&shard_json);
        if cp.violation_count() > 0 {
            p.failed = p.attempted;
        }
        p.digest = digest.finish();
        p
    }

    fn layer_metrics(&self, _log: &SpanLog, traced: &[Pass], out: &mut Vec<Metric>) {
        let mean = |key| crate::mean_count(traced, key);
        for (key, _, _) in POLICIES {
            out.push(Metric::new(
                &format!("runtime.sched.ns_per_task.{key}"),
                mean(key),
                "ns",
            ));
        }
        out.push(Metric::new(
            "sim.shard.ns_per_event",
            mean("shard_ns") / mean("events").max(1.0),
            "ns",
        ));
        out.push(Metric::new(
            "sim.shard.events_per_round",
            mean("events") / mean("rounds").max(1.0),
            "events",
        ));
        for key in ["drain", "decide", "process"] {
            out.push(Metric::new(
                &format!("sim.shard.{key}_share"),
                mean(key),
                "fraction",
            ));
        }
    }
}
