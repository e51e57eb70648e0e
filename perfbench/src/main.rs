//! Host-cost benchmark of the ECOSCALE simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernel_calls --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload generates its inputs from `--seed` before anything is
//! timed, then repeats a fixed pass over them — fresh simulator state,
//! the same seeded ops — until `--seconds` have passed. Every output is
//! checked, and every pass hashes its simulated statistics; the hashes
//! must agree with each other and with `digests.txt`. Host costs are
//! process CPU time, which leaves out time a shared host's hypervisor
//! takes away, scaled to a reference host speed by the probes timed
//! around the measured work (`calib.rs`).
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` prints the
//! per-layer metrics, measured by spans recorded around each call into a
//! layer's public API: the named workload runs untraced and traced for
//! its tracing overhead and coverage, and every other workload runs one
//! traced pass, so every layer is measured. The spans are written under
//! the build directory at exit. The last stdout line is
//! the JSON result; the lines above it are for people.

mod calib;
mod cluster_sched;
mod cpu;
mod digest;
mod kernel_calls;
mod pgas_traffic;
mod serve_tenants;
mod spans;
mod stats;
mod zipf;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::Probe;
use spans::{SpanLog, EXPORT};

/// End-to-end metrics, in output order.
const END_TO_END: [&str; 5] = [
    "throughput",
    "call_p50_us",
    "call_p99_us",
    "setup_s",
    "peak_rss_mb",
];
/// Per-layer metrics a traced run reports for its named workload only.
const NAMED_LAYER_METRICS: [&str; 3] = [
    "sim.metrics.export_us",
    "bench.other_share",
    "bench.trace_overhead",
];

pub const WORKLOADS: [&str; 4] = [
    "kernel_calls",
    "serve_tenants",
    "cluster_sched",
    "pgas_traffic",
];

/// What one pass over a workload's fixed op sequence measured.
pub struct Pass {
    /// Host CPU seconds of the pass's set-up, before its timed phase.
    pub setup_s: f64,
    /// Host CPU seconds spent inside the simulator's API during the pass.
    pub timed_s: f64,
    /// Simulated work completed, in the workload's throughput unit.
    pub work: f64,
    /// Host microseconds of each timed call (CPU time), for workloads
    /// whose passes are too short to resolve a p99 by themselves.
    pub op_us: Vec<f64>,
    /// Whether `op_us` is already at the reference host speed, each call
    /// scaled by the probes around it ([`Pass::op_scaled`]).
    ops_scaled: bool,
    /// This pass's own (p50, p99) call latency in microseconds, set by a
    /// workload whose passes time enough calls to resolve a p99 each.
    pub tail_us: Option<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Hash of the simulated statistics.
    pub digest: u64,
    /// Workload-specific quantities the per-layer metrics are built from.
    pub counts: Vec<(&'static str, f64)>,
    /// The factor [`Pass::scale`] applied to this pass's host costs.
    pub speed: f64,
}

impl Pass {
    pub fn new(setup_s: f64) -> Pass {
        Pass {
            setup_s,
            timed_s: 0.0,
            work: 0.0,
            op_us: Vec::new(),
            ops_scaled: false,
            tail_us: None,
            attempted: 0,
            failed: 0,
            digest: 0,
            counts: Vec::new(),
            speed: 1.0,
        }
    }

    /// Accounts one timed call.
    pub fn op(&mut self, d: Duration) {
        self.timed_s += d.as_secs_f64();
        self.op_us.push(d.as_secs_f64() * 1e6);
        self.attempted += 1;
    }

    /// Accounts one timed call whose latency the probes around it have
    /// already scaled by `f`. The pass's host time is scaled as a whole.
    pub fn op_scaled(&mut self, d: Duration, f: f64) {
        self.op(d);
        *self.op_us.last_mut().expect("just pushed") *= f;
        self.ops_scaled = true;
    }

    /// Accounts a pass that is one timed call covering `attempted` ops.
    pub fn whole(&mut self, cpu_s: f64, attempted: u64) {
        self.timed_s += cpu_s;
        self.op_us.push(cpu_s * 1e6);
        self.attempted += attempted;
    }

    /// Scales the pass's host costs by `f`, taking them to the reference
    /// host speed (see `calib.rs`).
    fn scale(&mut self, f: f64) {
        self.speed = f;
        self.setup_s *= f;
        self.timed_s *= f;
        if !self.ops_scaled {
            for us in &mut self.op_us {
                *us *= f;
            }
        }
        if let Some((p50, p99)) = &mut self.tail_us {
            *p50 *= f;
            *p99 *= f;
        }
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.iter().find(|c| c.0 == key).map_or(0.0, |c| c.1)
    }

    fn throughput(&self) -> f64 {
        self.work / self.timed_s
    }
}

/// Mean of a per-pass count over passes.
pub fn mean_count(passes: &[Pass], key: &str) -> f64 {
    passes.iter().map(|p| p.count(key)).sum::<f64>() / passes.len().max(1) as f64
}

pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

pub trait Workload {
    fn name(&self) -> &'static str;

    /// Passes every run makes, however short `--seconds` is.
    fn min_passes(&self) -> usize {
        1
    }

    /// One pass on fresh simulator state; spans go to `log`.
    fn pass(&mut self, log: &mut SpanLog) -> Pass;

    /// This workload's per-layer metrics, from its traced passes.
    fn layer_metrics(&self, log: &SpanLog, traced: &[Pass], out: &mut Vec<Metric>);
}

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kernel_calls" => Box::new(kernel_calls::KernelCalls::new(seed)),
        "serve_tenants" => Box::new(serve_tenants::ServeTenants::new(seed)),
        "cluster_sched" => Box::new(cluster_sched::ClusterSched::new(seed)),
        "pgas_traffic" => Box::new(pgas_traffic::PgasTraffic::new(seed)),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown flag {flag}")),
        };
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = seed
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed wants an unsigned integer")?;
    let seconds: f64 = seconds
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|_| "--seconds wants a number")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return Err("--trace wants 0 or 1".to_owned()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Host seconds of warm-up passes before any measured pass. The first
/// passes of a process run slower (first-touch page faults, allocator
/// growth); they are checked like any other but not measured.
const WARMUP_S: f64 = 2.0;

/// Runs passes until `budget` has elapsed and at least `min` were made.
/// Each pass's host costs are taken to the reference host speed by the
/// probes on either side of it.
fn run_passes(
    w: &mut dyn Workload,
    log: &mut SpanLog,
    probe: &mut Probe,
    budget: f64,
    min: usize,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut before = probe.time();
    while passes.len() < min || start.elapsed().as_secs_f64() < budget {
        let mut p = w.pass(log);
        let after = probe.time();
        p.scale(Probe::factor(before, after));
        before = after;
        passes.push(p);
    }
    passes
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .map(|l| l[..l.find(' ').unwrap_or(0)].to_owned())
                })
                .unwrap_or_else(|| "unknown".to_owned()),
            None => head,
        },
        None => "unknown (not a git checkout)".to_owned(),
    }
}

/// Checks that every pass simulated the same statistics, and that they
/// match the digest recorded for this seed when there is one.
fn check_digests(name: &str, seed: u64, passes: &[&Pass]) -> Result<u64, String> {
    let first = passes[0].digest;
    if let Some(p) = passes.iter().find(|p| p.digest != first) {
        return Err(format!(
            "{name}: passes disagree ({first:016x} vs {:016x})",
            p.digest
        ));
    }
    match digest::recorded(name, seed) {
        Some(want) if want != first => Err(format!(
            "{name}: digest {first:016x} differs from the recorded {want:016x} at seed {seed}"
        )),
        _ => Ok(first),
    }
}

fn spans_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-spans")
}

fn main() -> ExitCode {
    if std::env::var_os("ECOSCALE_CHECK").is_some() {
        eprintln!("perfbench: refusing to run with ECOSCALE_CHECK set (an armed CheckPlane changes host cost)");
        return ExitCode::from(2);
    }
    // Pinned before any simulator code reads them: single-threaded runs.
    std::env::set_var("ECOSCALE_THREADS", "1");
    std::env::set_var("ECOSCALE_SHARDS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench {} seed={} seconds={} trace={} host_cores={} rustc=\"{}\" commit={} ECOSCALE_THREADS=1 ECOSCALE_SHARDS=1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rustc_version(),
        git_commit(),
    );
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err((e, line)) => {
            eprintln!("perfbench: {e}");
            println!("{line}");
            ExitCode::from(1)
        }
    }
}

type RunResult = Result<String, (String, String)>;

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

fn finish(mut errors: Vec<String>, attempted: u64, failed: u64, metrics: &[Metric]) -> RunResult {
    print_metrics(metrics);
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        errors.push(format!("metric {} is not a finite number", m.name));
    }
    println!(
        "fail_frac {:.6} ({failed} of {attempted} ops)",
        failed as f64 / attempted.max(1) as f64
    );
    let correct = errors.is_empty() && failed == 0;
    let line = result_line(correct, attempted, failed, metrics);
    if correct {
        Ok(line)
    } else if errors.is_empty() {
        Err((
            format!("{failed} of {attempted} ops failed their checks"),
            line,
        ))
    } else {
        Err((errors.join("; "), line))
    }
}

fn untraced(args: &Args) -> RunResult {
    let mut w = workload(&args.workload, args.seed).expect("validated workload");
    let min = w.min_passes();
    let mut probe = Probe::new();
    let warm = run_passes(w.as_mut(), &mut SpanLog::off(), &mut probe, WARMUP_S, 1);
    let passes = run_passes(
        w.as_mut(),
        &mut SpanLog::off(),
        &mut probe,
        args.seconds,
        min,
    );
    let mut errors = Vec::new();
    match check_digests(
        w.name(),
        args.seed,
        &warm.iter().chain(&passes).collect::<Vec<_>>(),
    ) {
        Ok(d) => println!("digest {} {} {d:016x}", w.name(), args.seed),
        Err(e) => errors.push(e),
    }
    let throughputs: Vec<f64> = passes.iter().map(Pass::throughput).collect();
    println!(
        "pass throughputs (1/s): {}",
        throughputs
            .iter()
            .map(|t| format!("{t:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    // Call latency percentiles: the median over passes of each pass's own
    // percentiles when every pass resolves a p99 by itself, otherwise the
    // percentiles of all calls pooled. A pooled tail is the p99 only when
    // ten calls lie beyond it, and else the highest percentile that has
    // ten beyond it: the slowest of a few dozen calls is too noisy to bound.
    let (p50, (p99, tail_pct), calls) = if passes.iter().all(|p| p.tail_us.is_some()) {
        let tails: Vec<(f64, f64)> = passes.iter().filter_map(|p| p.tail_us).collect();
        let p50 = stats::median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
        let p99 = stats::median(&tails.iter().map(|t| t.1).collect::<Vec<_>>());
        (
            p50,
            (p99, 99.0),
            passes.iter().map(|p| p.attempted).sum::<u64>() as usize,
        )
    } else {
        let ops = stats::sorted(
            &passes
                .iter()
                .flat_map(|p| p.op_us.iter().copied())
                .collect::<Vec<_>>(),
        );
        (
            stats::percentile(&ops, 50.0),
            stats::tail(&ops, 99.0),
            ops.len(),
        )
    };
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    println!(
        "host speed: costs scaled by {:.4} (median over passes) to where a probe takes {} ms",
        stats::median(&passes.iter().map(|p| p.speed).collect::<Vec<_>>()),
        calib::REFERENCE_S * 1e3
    );
    println!(
        "passes {}  timed calls {calls}  call_p99_us is the p{tail_pct:.1}, with ten or more calls beyond it",
        passes.len(),
    );
    let values = [
        (stats::median(&throughputs), "1/s"),
        (p50, "us"),
        (p99, "us"),
        (stats::median(&setups), "s"),
        (peak_rss_mb(), "MB"),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(name, (v, unit))| Metric::new(name, v, unit))
        .collect();
    let attempted = warm.iter().chain(&passes).map(|p| p.attempted).sum();
    let failed = warm.iter().chain(&passes).map(|p| p.failed).sum();
    finish(errors, attempted, failed, &metrics)
}

fn traced(args: &Args) -> RunResult {
    let mut metrics = Vec::new();
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut tsv = Vec::new();
    let mut probe = Probe::new();
    for name in WORKLOADS {
        let mut w = workload(name, args.seed).expect("known workload");
        // The named workload fills the run, untraced then traced, for
        // its tracing overhead and coverage. The others get one warm-up
        // and one traced pass, so every layer is measured in every run.
        let named = name == args.workload;
        let warm = run_passes(
            w.as_mut(),
            &mut SpanLog::off(),
            &mut probe,
            if named { WARMUP_S } else { 0.0 },
            1,
        );
        let plain = if named {
            run_passes(
                w.as_mut(),
                &mut SpanLog::off(),
                &mut probe,
                args.seconds / 2.0,
                1,
            )
        } else {
            Vec::new()
        };
        let mut log = SpanLog::on();
        let spanned = run_passes(
            w.as_mut(),
            &mut log,
            &mut probe,
            if named { args.seconds / 2.0 } else { 0.0 },
            1,
        );
        let all: Vec<&Pass> = warm.iter().chain(&plain).chain(&spanned).collect();
        if let Err(e) = check_digests(name, args.seed, &all) {
            errors.push(e);
        }
        attempted += all.iter().map(|p| p.attempted).sum::<u64>();
        failed += all.iter().map(|p| p.failed).sum::<u64>();
        w.layer_metrics(&log, &spanned, &mut metrics);
        if named {
            let tp =
                |ps: &[Pass]| stats::median(&ps.iter().map(Pass::throughput).collect::<Vec<_>>());
            let export_us = log.ns(EXPORT) as f64 / log.count(EXPORT).max(1) as f64 / 1e3;
            let values = [
                (export_us, "us"),
                (log.other_share(), "fraction"),
                (tp(&spanned) / tp(&plain), "ratio"),
            ];
            for (name, (v, unit)) in NAMED_LAYER_METRICS.iter().zip(values) {
                metrics.push(Metric::new(name, v, unit));
            }
        }
        let _ = log.write_tsv(&mut tsv, name);
    }
    let dir = spans_dir();
    let path = dir.join(format!("{}.tsv", args.workload));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &tsv)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => errors.push(format!("writing spans to {}: {e}", path.display())),
    }
    finish(errors, attempted, failed, &metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_sim::json::{self, Value};

    fn valid(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn catalogue(key: &str) -> Vec<String> {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("named")
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn emitted_metric_names_are_valid_and_match_the_catalogue() {
        let mut layer = Vec::new();
        for name in WORKLOADS {
            workload(name, 1)
                .expect("known")
                .layer_metrics(&SpanLog::on(), &[], &mut layer);
        }
        let mut names: Vec<String> = layer.into_iter().map(|m| m.name).collect();
        names.extend(NAMED_LAYER_METRICS.iter().map(|s| s.to_string()));
        assert!(names.iter().all(|n| valid(n)), "{names:?}");
        let mut want = catalogue("per_layer");
        want.sort();
        names.sort();
        assert_eq!(names, want);
        let e2e = catalogue("end_to_end");
        assert!(e2e.iter().all(|n| valid(n)));
        assert_eq!(e2e, END_TO_END);
    }

    #[test]
    fn result_line_is_json() {
        let line = result_line(true, 3, 0, &[Metric::new("a.b", 1.5e-7, "s")]);
        let v = json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(3.0));
        let m = v.get("metrics").and_then(|m| m.get("a.b")).expect("metric");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.5e-7));
    }
}
