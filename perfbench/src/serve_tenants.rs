//! `serve_tenants`: `run_serve_sim` over `serve_mix` with thousands of
//! tenants sending about one single-item request each.
//!
//! At equal offered load the serve plane's host cost per request grows
//! with the tenant count, because its per-step scans visit every tenant;
//! one-item requests keep the interpreter's share small. The traced run
//! drives [`drive_copy`], a copy of `CellSim::run` built only from the
//! public `ServePlane` and `EcoscaleSystem` methods, so each serve-plane
//! step can be timed from outside. Its report must hash identically to
//! `run_serve_sim`'s.

use std::time::Instant;

use ecoscale_apps::mix::serve_mix;
use ecoscale_core::{run_serve_sim, CellSim, EcoscaleSystem, ServeSimConfig, SystemBuilder};
use ecoscale_noc::NodeId;
use ecoscale_runtime::{Batch, ServePlane, ServeSpec};
use ecoscale_sim::{CheckPlane, MetricsRegistry, Time};

use crate::cpu;
use crate::digest::Digest;
use crate::spans::{SpanLog, EXPORT};
use crate::{Metric, Pass, Workload};

const SPEC: &str = "tenants=8000,rate=250,horizon=4ms,batch=8,queue=32,deadline=300us";

const POP: &str = "runtime.serve.pop_arrivals";
const TAKE: &str = "runtime.serve.take_batch";
const COMPLETE: &str = "runtime.serve.complete_batch";
const LOOKUP: &str = "runtime.serve.lookup";
const CHECK: &str = "runtime.serve.check";
const LOOP: &str = "core.serve_model.loop";
const BIND: &str = "apps.mix.bind";
const CALL: &str = "core.system.call";
const TICK: &str = "runtime.daemon.tick";

pub struct ServeTenants {
    cfg: ServeSimConfig,
}

/// The serve config the workload runs at `seed`, over `spec`.
pub fn config(seed: u64, spec: &str) -> ServeSimConfig {
    let spec = ServeSpec::parse(&format!("seed={seed},{spec}")).expect("benchmark spec parses");
    let mut cfg = ServeSimConfig::new(spec, serve_mix());
    cfg.items = 1;
    cfg
}

impl ServeTenants {
    pub fn new(seed: u64) -> ServeTenants {
        ServeTenants {
            cfg: config(seed, SPEC),
        }
    }

    fn tenants(&self) -> Vec<u32> {
        (0..self.cfg.spec.tenants as u32).collect()
    }
}

/// What a serving run left behind: `run_serve_sim` or the copy.
pub struct Served {
    pub serving_json: String,
    pub metrics_json: String,
    pub submitted: u64,
    pub failed: u64,
    pub ok: bool,
    pub batches: u64,
    pub completed: u64,
}

fn digest(s: &Served) -> u64 {
    let mut d = Digest::new();
    d.str(&s.serving_json);
    d.str(&s.metrics_json);
    d.finish()
}

/// `CellSim`'s system provisioning: the whole mix resident on every lane.
fn build_cell_system(cfg: &ServeSimConfig) -> EcoscaleSystem {
    let mut b = SystemBuilder::new()
        .workers_per_node(cfg.workers_per_node)
        .compute_nodes(cfg.compute_nodes);
    for k in &cfg.kernels {
        b = b.kernel(k.source, k.hints.clone());
    }
    let mut system = b.build().expect("serving kernel mix must build");
    for lane in 0..system.num_workers() {
        for k in &cfg.kernels {
            let _ = system.load_module(NodeId(lane), k.name);
        }
    }
    system
}

/// One clean serving cell driven step by step, with every call into the
/// serve plane, the system and the mix binders recorded in `log`.
/// Mirrors `CellSim::run(None)` followed by its result fold for a
/// fault-free, telemetry-free config.
///
/// # Panics
///
/// Panics on a config with a fault campaign or telemetry armed.
pub fn drive_copy(cfg: &ServeSimConfig, ids: &[u32], log: &mut SpanLog) -> (Served, f64) {
    assert!(
        cfg.faults.is_off() && cfg.telemetry.is_none(),
        "clean configs only"
    );
    let c = cpu::now();
    let mut system = build_cell_system(cfg);
    let mut plane = ServePlane::for_tenants(&cfg.spec, cfg.kernels.len(), ids);
    let setup_s = (cpu::now() - c).as_secs_f64();
    let mut cp = CheckPlane::enabled(1);
    let mut free_at = vec![Time::ZERO; system.num_workers()];
    let mut in_flight: Vec<(Time, u64, Batch)> = Vec::new();
    let (mut seq, mut now) = (0u64, Time::ZERO);
    let mut next_tick = Time::ZERO + cfg.cadence;
    let mut last_resil = 0;
    let mut batches = 0u64;
    log.begin_pass();
    loop {
        // 1. retire completions due
        let t0 = Instant::now();
        let mut due: Vec<(Time, u64, Batch)> = Vec::new();
        if in_flight.iter().any(|(t, _, _)| *t <= now) {
            in_flight.retain_mut(|entry| {
                if entry.0 <= now {
                    let batch = Batch {
                        kernel: entry.2.kernel,
                        requests: std::mem::take(&mut entry.2.requests),
                    };
                    due.push((entry.0, entry.1, batch));
                    false
                } else {
                    true
                }
            });
            due.sort_by_key(|(t, s, _)| (*t, *s));
        }
        let t1 = Instant::now();
        log.record(LOOP, t0, t1);
        if !due.is_empty() {
            for (t, _, b) in &due {
                plane.complete_batch(b, *t);
            }
            let t2 = Instant::now();
            log.record(COMPLETE, t1, t2);
        }

        // 2. arrivals up to now
        let t0 = Instant::now();
        plane.pop_arrivals(now);
        log.record(POP, t0, Instant::now());

        // 3. cadence maintenance
        while next_tick <= now {
            let t0 = Instant::now();
            system.fault_tick();
            system.daemon_tick();
            let resil = system
                .resilience()
                .map(|r| r.failures() + r.fallbacks() + r.quarantines())
                .unwrap_or(0);
            let t1 = Instant::now();
            plane.set_pressure(resil > last_resil);
            last_resil = resil;
            plane.check_invariants(&mut cp);
            let t2 = Instant::now();
            log.record(TICK, t0, t1);
            log.record(CHECK, t1, t2);
            next_tick += cfg.cadence;
        }

        // 4. dispatch ripe batches onto free lanes
        let lanes = free_at.len();
        loop {
            let t0 = Instant::now();
            let ready = plane.dispatch_ready(now);
            let t1 = Instant::now();
            log.record(LOOKUP, t0, t1);
            if !ready {
                break;
            }
            let lane = match (0..lanes).find(|&l| free_at[l] <= now) {
                Some(l) => l,
                None => break,
            };
            let t0 = Instant::now();
            let batch = plane.take_batch(now).expect("ready implies queued");
            let t1 = Instant::now();
            let kernel = &cfg.kernels[batch.kernel as usize];
            let mut args = (kernel.bind)(cfg.items * batch.len());
            let t2 = Instant::now();
            let res = system.call(NodeId(lane), kernel.name, &mut args);
            let t3 = Instant::now();
            log.record(TAKE, t0, t1);
            log.record(BIND, t1, t2);
            log.record(CALL, t2, t3);
            batches += 1;
            match res {
                Ok(out) => {
                    let done = now + cfg.spec.overhead + out.latency;
                    free_at[lane] = done;
                    in_flight.push((done, seq, batch));
                    seq += 1;
                }
                Err(_) => plane.fail_batch(&batch, now),
            }
        }

        // 5. advance to the next interesting instant
        let t0 = Instant::now();
        let mut next: Option<Time> = None;
        let mut fold = |t: Time| next = Some(next.map_or(t, |n: Time| n.min(t)));
        if let Some(a) = plane.next_arrival() {
            fold(a);
        }
        let queued = plane.queued() > 0;
        let ripe = if queued { plane.ripe_at(now) } else { None };
        let t1 = Instant::now();
        for (t, _, _) in &in_flight {
            fold(*t);
        }
        if queued {
            let lane = free_at.iter().copied().min().expect("lanes");
            fold(ripe.expect("queued").max(lane));
        }
        let t2 = Instant::now();
        log.record(LOOKUP, t0, t1);
        log.record(LOOP, t1, t2);
        match next {
            Some(t) => {
                let t = t.min(next_tick);
                now = if t > now {
                    t
                } else {
                    Time::from_ps(now.as_ps() + 1)
                };
            }
            None => break,
        }
    }
    log.time(CHECK, || plane.check_invariants(&mut cp));
    let ((metrics_json, serving_json, report), _) = log.time(EXPORT, || {
        let mut metrics: MetricsRegistry = system.export_metrics();
        plane.export_metrics(&mut metrics);
        let report = plane.report();
        (metrics.to_json(), report.to_json(), report)
    });
    log.end_pass();
    let ok = report.conserved() && cp.violation_count() == 0;
    let served = Served {
        serving_json,
        metrics_json,
        submitted: report.submitted(),
        failed: report.failed(),
        ok,
        batches,
        completed: report.completed(),
    };
    (served, setup_s)
}

impl Workload for ServeTenants {
    fn name(&self) -> &'static str {
        "serve_tenants"
    }

    fn pass(&mut self, log: &mut SpanLog) -> Pass {
        if log.enabled() {
            let c = cpu::now();
            let (s, setup_s) = drive_copy(&self.cfg, &self.tenants(), log);
            let mut p = Pass::new(setup_s);
            p.whole((cpu::now() - c).as_secs_f64() - setup_s, s.submitted);
            p.counts.push(("batches", s.batches as f64));
            p.counts.push(("completed", s.completed as f64));
            finish(&mut p, &s);
            return p;
        }
        // Set-up is measured on its own: `run_serve_sim` builds its cell
        // inside the timed call.
        let c = cpu::now();
        drop(CellSim::new(&self.cfg, self.tenants()));
        let setup_s = (cpu::now() - c).as_secs_f64();
        let c = cpu::now();
        let out = run_serve_sim(&self.cfg);
        let run_s = (cpu::now() - c).as_secs_f64();
        let s = Served {
            serving_json: out.serving.to_json(),
            metrics_json: out.metrics.to_json(),
            submitted: out.serving.submitted(),
            failed: out.serving.failed() + out.lost,
            ok: out.serving.conserved() && out.lost == 0 && out.violations == 0,
            batches: 0,
            completed: out.serving.completed(),
        };
        let mut p = Pass::new(setup_s);
        p.whole(run_s, s.submitted);
        finish(&mut p, &s);
        p
    }

    fn layer_metrics(&self, log: &SpanLog, traced: &[Pass], out: &mut Vec<Metric>) {
        let requests: f64 = traced.iter().map(|p| p.work).sum::<f64>().max(1.0);
        for (name, span) in [
            ("runtime.serve.pop_arrivals_ns", POP),
            ("runtime.serve.take_batch_ns", TAKE),
            ("runtime.serve.complete_batch_ns", COMPLETE),
            ("runtime.serve.lookup_ns", LOOKUP),
        ] {
            out.push(Metric::new(name, log.ns(span) as f64 / requests, "ns"));
        }
        let batches: f64 = traced
            .iter()
            .map(|p| p.count("batches"))
            .sum::<f64>()
            .max(1.0);
        let completed: f64 = traced.iter().map(|p| p.count("completed")).sum();
        out.push(Metric::new(
            "runtime.serve.calls_per_request",
            batches / requests,
            "ratio",
        ));
        out.push(Metric::new(
            "runtime.serve.batch_mean",
            completed / batches,
            "requests",
        ));
        out.push(Metric::new(
            "core.system.call_us",
            log.ns(CALL) as f64 / batches / 1e3,
            "us",
        ));
    }
}

fn finish(p: &mut Pass, s: &Served) {
    p.failed = if s.ok { s.failed } else { s.submitted.max(1) };
    p.work = s.submitted as f64;
    p.digest = digest(s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_reproduces_run_serve_sim_byte_for_byte() {
        let cfg = config(
            5,
            "tenants=300,rate=2000,horizon=1ms,batch=8,queue=32,deadline=300us",
        );
        let ids: Vec<u32> = (0..300).collect();
        let out = run_serve_sim(&cfg);
        let mut log = SpanLog::on();
        let (copy, _) = drive_copy(&cfg, &ids, &mut log);
        assert!(out.serving.submitted() > 100);
        assert_eq!(copy.serving_json, out.serving.to_json());
        assert_eq!(copy.metrics_json, out.metrics.to_json());
        assert!(copy.ok);
        assert!(log.count(CALL) > 0 && log.count(POP) > 0);
    }
}
