//! `kernel_calls`: a seeded trace of `EcoscaleSystem::call` over
//! Black–Scholes, FIR and E16b's `scale` kernel.
//!
//! This is the E07/E16b path that dominates the experiment registry:
//! nearly all of a call's host time is the functional execution of the
//! kernel by the HLS interpreter. It bypasses the serve plane, the
//! event kernel and the SMMU.

use std::collections::HashMap;

use ecoscale_apps::{blackscholes, fir};
use ecoscale_core::{EcoscaleSystem, SystemBuilder};
use ecoscale_hls::{parse_kernel, Kernel, KernelAnalysis, KernelArgs};
use ecoscale_noc::NodeId;
use ecoscale_sim::SimRng;

use crate::calib::Probe;
use crate::cpu;
use crate::digest::Digest;
use crate::spans::{SpanLog, EXPORT};
use crate::zipf::ZipfTable;
use crate::{Metric, Pass, Workload};

/// E16b's kernel.
const SCALE_KERNEL: &str = "kernel scale(in float a[], out float b[], int n) {
        for (i in 0 .. n) { b[i] = sqrt(a[i] + 1.0) * 2.0; }
    }";
/// Items per call, drawn zipf(0.8): small calls are the most frequent,
/// large calls carry most of the items.
const SIZES: [usize; 4] = [256, 1_024, 4_096, 16_384];
const SIZE_SKEW: f64 = 0.8;
const FIR_TAPS: usize = 16;
/// Calls per pass. Short passes let the host-speed probes between them
/// follow the host's drift (`calib.rs`); twenty passes give the 1,000
/// calls a p99 needs.
const CALLS: usize = 50;
const TICK_EVERY: usize = 10;
/// The two calling Workers sit on different Compute Nodes.
const WORKERS: [NodeId; 2] = [NodeId(0), NodeId(4)];

const CALL: &str = "core.system.call";
const INTERP: &str = "hls.interp";
const ANALYSIS: &str = "hls.analysis";
const TICK: &str = "runtime.daemon.tick";
/// Device-share counters of `export_metrics`. (The remote-FPGA path
/// stays at zero: the daemon only ever loads modules locally here.)
const DEVICE_COUNTS: [&str; 2] = ["system.calls_cpu", "system.calls_fpga_local"];

/// One (kernel, size) input: bound arguments and the reference output.
struct Input {
    function: &'static str,
    kernel: Kernel,
    hints: HashMap<String, f64>,
    args: KernelArgs,
    out: &'static str,
    expect: Vec<f64>,
    items: usize,
}

pub struct KernelCalls {
    inputs: Vec<Input>,
    calls: Vec<(usize, NodeId)>,
    /// Per traced call: call time minus the replayed interpretation and
    /// analysis (wall clock), in microseconds.
    residual_us: Vec<f64>,
    /// Brackets every untraced call: a call of 1 ms follows the host's
    /// sub-second speed bursts, which a probe per pass cannot see.
    probe: Probe,
}

fn scalar_hints(kernel: &Kernel, args: &KernelArgs) -> HashMap<String, f64> {
    kernel
        .scalars()
        .filter_map(|p| args.scalar(&p.name).map(|v| (p.name.clone(), v)))
        .collect()
}

fn input(
    function: &'static str,
    source: &str,
    args: KernelArgs,
    out: &'static str,
    expect: Vec<f64>,
) -> Input {
    let kernel = parse_kernel(source).expect("benchmark kernels parse");
    let items = expect.len();
    Input {
        function,
        hints: scalar_hints(&kernel, &args),
        kernel,
        args,
        out,
        expect,
        items,
    }
}

impl KernelCalls {
    pub fn new(seed: u64) -> KernelCalls {
        let mut rng = SimRng::seed_from(seed);
        let mut inputs = Vec::new();
        for &n in &SIZES {
            let (spots, strikes) = blackscholes::generate(n, rng.next_u64());
            let expect = blackscholes::reference(&spots, &strikes, 0.02, 0.3, 1.0);
            let args = blackscholes::bind_args(&spots, &strikes, 0.02, 0.3, 1.0);
            inputs.push(input(
                "blackscholes",
                blackscholes::KERNEL,
                args,
                "price",
                expect,
            ));

            let (x, h) = fir::generate(n, FIR_TAPS, rng.next_u64());
            let expect = fir::reference(&x, &h, n);
            inputs.push(input(
                "fir",
                fir::KERNEL,
                fir::bind_args(&x, &h, n),
                "y",
                expect,
            ));

            let a: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(0.0, 1_000.0)).collect();
            let expect = a.iter().map(|v| (v + 1.0).sqrt() * 2.0).collect();
            let mut args = KernelArgs::new();
            args.bind_array("a", a)
                .bind_array("b", vec![0.0; n])
                .bind_scalar("n", n as f64);
            inputs.push(input("scale", SCALE_KERNEL, args, "b", expect));
        }
        // Every pass makes the same mix of calls — the zipf(0.8) size
        // histogram, rounded by largest remainder, with the kernels in
        // turn within each size — so seeds differ in data, order and
        // calling Worker but not in the work a pass does.
        let sizes = ZipfTable::new(SIZES.len(), SIZE_SKEW);
        let mut calls: Vec<(usize, NodeId)> = quotas(&sizes, CALLS)
            .into_iter()
            .enumerate()
            .flat_map(|(size, n)| (0..n).map(move |i| (size * 3 + i % 3, WORKERS[0])))
            .collect();
        rng.shuffle(&mut calls);
        for call in &mut calls {
            call.1 = WORKERS[rng.gen_range_usize(0, WORKERS.len())];
        }
        KernelCalls {
            inputs,
            calls,
            residual_us: Vec::new(),
            probe: Probe::new(),
        }
    }

    fn build() -> EcoscaleSystem {
        SystemBuilder::new()
            .workers_per_node(4)
            .compute_nodes(2)
            .kernel(blackscholes::KERNEL, blackscholes::kernel_hints(4_096))
            .kernel(fir::KERNEL, fir::kernel_hints(4_096, FIR_TAPS as u64))
            .kernel(SCALE_KERNEL, HashMap::from([("n".to_owned(), 4_096.0)]))
            .build()
            .expect("benchmark kernels synthesize")
    }
}

/// Calls per size rank out of `total`, proportional to the zipf pmf
/// (largest-remainder rounding, so the counts sum to `total`).
fn quotas(sizes: &ZipfTable, total: usize) -> Vec<usize> {
    let exact: Vec<f64> = (0..SIZES.len())
        .map(|k| sizes.pmf(k) * total as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..SIZES.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &k in order.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// Outputs agree with the native reference to rounding.
fn matches(got: Option<&[f64]>, expect: &[f64]) -> bool {
    got.is_some_and(|g| {
        g.len() == expect.len()
            && g.iter()
                .zip(expect)
                .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0))
    })
}

impl Workload for KernelCalls {
    fn name(&self) -> &'static str {
        "kernel_calls"
    }

    fn min_passes(&self) -> usize {
        1_000usize.div_ceil(CALLS)
    }

    fn pass(&mut self, log: &mut SpanLog) -> Pass {
        let c = cpu::now();
        let mut sys = KernelCalls::build();
        let mut p = Pass::new((cpu::now() - c).as_secs_f64());
        let mut digest = Digest::new();
        // Traced passes report no call latency, and a probe there would
        // be traced wall time outside every layer.
        let mut before = (!log.enabled()).then(|| self.probe.time());
        log.begin_pass();
        for (i, &(which, worker)) in self.calls.iter().enumerate() {
            let input = &self.inputs[which];
            let mut args = input.args.clone();
            let (res, call) = log.time(CALL, || sys.call(worker, input.function, &mut args));
            match before {
                Some(b) => {
                    let after = self.probe.time();
                    p.op_scaled(call.cpu, Probe::factor(b, after));
                    before = Some(after);
                }
                None => p.op(call.cpu),
            }
            match res {
                Ok(out) => {
                    digest.str(&format!("{:?}", out.device));
                    digest.u64(out.served_by.0 as u64);
                    digest.u64(out.latency.as_ps());
                    digest.f64(out.energy.as_pj());
                    digest.u64(out.completed_at.as_ps());
                    if matches(args.array(input.out), &input.expect) {
                        p.work += input.items as f64;
                    } else {
                        p.failed += 1;
                    }
                }
                Err(e) => {
                    digest.str(&e.to_string());
                    p.failed += 1;
                }
            }
            if log.enabled() {
                // Replay the call's two host-heavy steps as siblings of
                // the call span, to apportion the call's time. A fresh
                // clone, as `call` interprets a fresh clone: the
                // interpreter walks the tree per item, so layout matters.
                let kernel = input.kernel.clone();
                let mut replay = input.args.clone();
                let (ok, interp) = log.time(INTERP, || replay.run(&kernel).is_ok());
                let (analysis, analyze) = log.time(ANALYSIS, || {
                    KernelAnalysis::analyze(&input.kernel, &input.hints)
                });
                std::hint::black_box(&analysis);
                self.residual_us.push(
                    (call.wall.as_secs_f64() - (interp.wall + analyze.wall).as_secs_f64()) * 1e6,
                );
                if !ok || !matches(replay.array(input.out), &input.expect) {
                    p.failed += 1;
                }
            }
            if (i + 1) % TICK_EVERY == 0 {
                let (_, tick) = log.time(TICK, || sys.daemon_tick());
                p.timed_s += tick.cpu.as_secs_f64();
            }
        }
        let ((metrics, json), export) = log.time(EXPORT, || {
            let m = sys.export_metrics();
            let json = m.to_json();
            (m, json)
        });
        log.end_pass();
        p.timed_s += export.cpu.as_secs_f64();
        digest.str(&json);
        p.digest = digest.finish();
        for key in DEVICE_COUNTS {
            p.counts
                .push((key, metrics.counter(key).unwrap_or(0) as f64));
        }
        p
    }

    fn layer_metrics(&self, log: &SpanLog, traced: &[Pass], out: &mut Vec<Metric>) {
        let calls = log.count(CALL).max(1) as f64;
        let items: f64 = traced.iter().map(|p| p.work).sum();
        let (call, interp, analysis) = (
            log.ns(CALL) as f64,
            log.ns(INTERP) as f64,
            log.ns(ANALYSIS) as f64,
        );
        out.push(Metric::new(
            "hls.interp.ns_per_item",
            interp / items.max(1.0),
            "ns",
        ));
        out.push(Metric::new(
            "hls.interp.share",
            interp / call.max(1.0),
            "fraction",
        ));
        out.push(Metric::new(
            "hls.analysis.us_per_call",
            analysis / calls / 1e3,
            "us",
        ));
        // The median per-call residual: a difference of sums would be
        // swamped by run-to-run noise on the largest calls.
        let self_us = if self.residual_us.is_empty() {
            0.0
        } else {
            crate::stats::median(&self.residual_us)
        };
        out.push(Metric::new("core.system.call_self_us", self_us, "us"));
        out.push(Metric::new(
            "runtime.daemon.tick_us",
            log.ns(TICK) as f64 / log.count(TICK).max(1) as f64 / 1e3,
            "us",
        ));
        for key in DEVICE_COUNTS {
            out.push(Metric::new(key, crate::mean_count(traced, key), "count"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_mix_follows_the_zipf_histogram_at_every_seed() {
        let sizes = ZipfTable::new(SIZES.len(), SIZE_SKEW);
        let q = quotas(&sizes, CALLS);
        assert_eq!(q.iter().sum::<usize>(), CALLS);
        assert!(q.windows(2).all(|w| w[0] > w[1]), "{q:?}");
        let mix = |seed| {
            let mut m: Vec<usize> = KernelCalls::new(seed).calls.iter().map(|c| c.0).collect();
            m.sort_unstable();
            m
        };
        assert_eq!(mix(1), mix(2));
    }
}
