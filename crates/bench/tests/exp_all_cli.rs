//! End-to-end tests for the `exp_all` binary: argument validation and
//! the `--trace`/`--metrics` observability outputs (the ISSUE acceptance
//! command, verbatim).

use std::path::PathBuf;
use std::process::Command;

use ecoscale_sim::json::{self, Value};

fn exp_all() -> Command {
    Command::new(env!("CARGO_BIN_EXE_exp_all"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ecoscale-exp-all-{}-{name}", std::process::id()));
    p
}

#[test]
fn unknown_key_exits_2_with_key_list() {
    let out = exp_all().arg("e99").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown experiment `e99`"), "stderr: {err}");
    // usage lists every valid key
    for (key, _) in ecoscale_bench::EXPERIMENTS {
        assert!(err.contains(key), "stderr missing key {key}: {err}");
    }
}

#[test]
fn missing_flag_value_exits_2() {
    let out = exp_all().arg("--trace").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = exp_all().arg("--scale").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = exp_all().arg("--faults").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--faults needs a campaign spec"),
        "stderr: {err}"
    );
    let out = exp_all().arg("--serve").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--serve needs a serving spec"),
        "stderr: {err}"
    );
    let out = exp_all().arg("--serve-out").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn malformed_serve_spec_exits_2_with_offending_pair() {
    let out = exp_all()
        .args(["--serve", "rate"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error: bad --serve spec:"), "stderr: {err}");
    assert!(err.contains("`rate`"), "offending pair quoted: {err}");

    let out = exp_all()
        .args(["--serve", "seed=3,frobnicate=4"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("`frobnicate=4`"), "stderr: {err}");
    assert!(err.contains("usage: exp_all"), "stderr: {err}");
}

#[test]
fn serve_rate_above_the_gap_floor_bound_exits_2() {
    let out = exp_all()
        .args(["--scale", "quick", "--serve"])
        .args(["seed=1,tenants=1,rate=1e30,horizon=2us", "e01"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no tables on a refused spec");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("`rate=1e30`"), "stderr: {err}");
    assert!(err.contains("exceeds the 1e8/s bound"), "stderr: {err}");
}

#[test]
fn repeated_spec_key_exits_2_naming_the_key() {
    for args in [
        ["--serve", "seed=1,seed=2,tenants=2,horizon=100us", "e01"],
        ["--faults", "seed=1,seed=2", "e16"],
    ] {
        let out = exp_all()
            .args(["--scale", "quick"])
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no tables on a refused spec"
        );
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("`seed=2`"), "{args:?}: {err}");
        assert!(
            err.contains("key `seed` given more than once"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn serve_out_without_serve_exits_2() {
    let out = exp_all()
        .args(["--serve-out", "never-written.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--serve-out needs a --serve SPEC"),
        "stderr: {err}"
    );
    assert!(!std::path::Path::new("never-written.json").exists());
}

#[test]
fn serve_run_prints_slo_table_and_exports_conserved_json() {
    let serve_path = tmp("serve.json");
    let out = exp_all()
        .args([
            "--scale",
            "quick",
            "--serve",
            "seed=7,tenants=2,rate=120000,horizon=300us,batch=4",
            "--serve-out",
        ])
        .arg(&serve_path)
        .arg("e01")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== serving =="), "stdout: {stdout}");
    assert!(stdout.contains("goodput"), "stdout: {stdout}");

    let text = std::fs::read_to_string(&serve_path).unwrap();
    let doc = json::parse(&text).expect("serving JSON parses");
    let spec = doc.get("spec").and_then(Value::as_str).expect("spec field");
    assert!(spec.contains("tenants=2"), "spec echoed: {spec}");
    let serving = doc.get("serving").expect("serving section");
    assert_eq!(serving.get("conserved"), Some(&Value::Bool(true)));
    assert!(serving.get("submitted").and_then(Value::as_f64).unwrap() > 0.0);
    assert_eq!(
        serving
            .get("tenants")
            .and_then(Value::as_arr)
            .expect("tenants array")
            .len(),
        2
    );

    std::fs::remove_file(&serve_path).ok();
}

#[test]
fn missing_profile_value_exits_2_with_message() {
    let out = exp_all().arg("--profile").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("error: --profile needs a file path"),
        "stderr: {err}"
    );
    assert!(err.contains("usage: exp_all"), "stderr: {err}");
}

#[test]
fn profile_output_blames_sum_to_100_percent() {
    let profile_path = tmp("p.json");
    let out = exp_all()
        .args(["--scale", "quick", "--profile"])
        .arg(&profile_path)
        .arg("e01")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("critical-path blame"), "stdout: {stdout}");
    assert!(stdout.contains("shard occupancy"), "stdout: {stdout}");
    // wall timers are host-dependent and must only reach stderr
    assert!(!stdout.contains("engine wall phases"), "stdout: {stdout}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("engine wall phases"), "stderr: {err}");

    let text = std::fs::read_to_string(&profile_path).unwrap();
    let doc = json::parse(&text).expect("profile JSON parses");
    let profile = doc.get("profile").expect("profile section");
    assert!(profile.get("total_ps").and_then(Value::as_f64).unwrap() > 0.0);
    let blame = profile
        .get("blame")
        .and_then(Value::as_arr)
        .expect("blame array");
    assert_eq!(blame.len(), 5, "one entry per layer");
    let total: f64 = blame
        .iter()
        .map(|b| b.get("percent").and_then(Value::as_f64).expect("percent"))
        .sum();
    assert!(
        (total - 100.0).abs() < 1e-9,
        "blame percentages sum to {total}"
    );
    let occ = doc.get("occupancy").expect("occupancy section");
    assert!(occ.get("events").and_then(Value::as_f64).unwrap() > 0.0);
    assert!(!occ
        .get("bands")
        .and_then(Value::as_arr)
        .expect("bands")
        .is_empty());
    // the wall section never leaks into the deterministic file
    assert!(doc.get("wall").is_none());

    std::fs::remove_file(&profile_path).ok();
}

#[test]
fn malformed_faults_spec_exits_2_with_offending_pair() {
    // a pair without `=` is rejected with the pair quoted back
    let out = exp_all()
        .args(["--faults", "crash", "e03"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error: bad --faults spec:"), "stderr: {err}");
    assert!(err.contains("`crash`"), "offending pair quoted: {err}");

    // an unknown key is rejected the same way
    let out = exp_all()
        .args(["--faults", "seed=3,frobnicate=1ms"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("`frobnicate=1ms`"), "stderr: {err}");
    // usage follows so the operator sees the expected shape
    assert!(err.contains("usage: exp_all"), "stderr: {err}");

    // so is a zero duration: a fault is turned off by omitting its key
    let out = exp_all()
        .args(["--faults", "seed=1,seu=0s", "e16"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("`seu=0s`"), "stderr: {err}");
}

#[test]
fn trace_and_metrics_outputs_are_valid_and_populated() {
    let trace_path = tmp("t.json");
    let metrics_path = tmp("m.json");
    let out = exp_all()
        .args(["--scale", "quick", "--trace"])
        .arg(&trace_path)
        .arg("--metrics")
        .arg(&metrics_path)
        .arg("e03")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("E3"), "e03 table printed: {stdout}");

    // --- trace: well-formed Chrome Trace Event JSON, monotonic per track
    let trace_text = std::fs::read_to_string(&trace_path).unwrap();
    let trace = json::parse(&trace_text).expect("trace JSON parses");
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut named_tracks = 0usize;
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph field");
        if ph == "M" {
            named_tracks += 1;
            continue;
        }
        let tid = ev.get("tid").and_then(Value::as_f64).expect("tid") as u64;
        let ts = ev.get("ts").and_then(Value::as_f64).expect("ts");
        let prev = last_ts.insert(tid, ts).unwrap_or(f64::NEG_INFINITY);
        assert!(ts >= prev, "track {tid} went back in time: {prev} -> {ts}");
    }
    assert!(named_tracks >= 3, "expected several named tracks");

    // --- metrics: non-zero SMMU, NoC, and scheduler instruments
    let metrics_text = std::fs::read_to_string(&metrics_path).unwrap();
    let metrics = json::parse(&metrics_text).expect("metrics JSON parses");
    for key in ["smmu.tlb_hits", "noc.messages", "sched.tasks"] {
        let v = metrics
            .get(key)
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("metric {key} missing"));
        assert!(v > 0.0, "metric {key} is zero");
    }

    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&metrics_path).ok();
}

#[test]
fn telemetry_flags_are_validated_with_exit_2() {
    // both flags need a path operand
    let out = exp_all().arg("--telemetry").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("error: --telemetry needs a file path"),
        "stderr: {err}"
    );
    let out = exp_all()
        .arg("--flight-dump")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("error: --flight-dump needs a file path"),
        "stderr: {err}"
    );

    // a dump directory is meaningless without a telemetry capture
    let out = exp_all()
        .args(["--flight-dump", "never-created", "e01"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("error: --flight-dump needs a --telemetry FILE"),
        "stderr: {err}"
    );
    assert!(err.contains("usage: exp_all"), "stderr: {err}");
    assert!(!std::path::Path::new("never-created").exists());
}

#[test]
fn telemetry_capture_is_written_and_well_formed() {
    let telem_path = tmp("telem.json");
    let out = exp_all()
        .args(["--scale", "quick", "--telemetry"])
        .arg(&telem_path)
        .arg("e01")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("wrote telemetry to"), "stderr: {err}");

    let text = std::fs::read_to_string(&telem_path).unwrap();
    let doc = json::parse(&text).expect("telemetry JSON parses");
    let serve = doc.get("serve").expect("serve section");
    let series = serve.get("series").expect("series section");
    assert!(
        series
            .get("windows")
            .and_then(Value::as_arr)
            .map(|w| !w.is_empty())
            .unwrap_or(false),
        "serving series has windows: {text}"
    );
    assert!(
        !serve
            .get("flights")
            .and_then(Value::as_arr)
            .expect("flights array")
            .is_empty(),
        "one flight recorder per cell"
    );
    let shard = doc.get("shard").expect("shard section");
    assert!(
        shard.get("lifetime").is_some(),
        "shard series has lifetime totals: {text}"
    );

    std::fs::remove_file(&telem_path).ok();
}

#[test]
fn forced_slo_breach_writes_the_flight_dump_bundle() {
    let telem_path = tmp("breach-telem.json");
    let dump_dir = tmp("breach-dump");
    // A 1µs deadline at this arrival rate cannot be met: the windowed
    // p99 breaches immediately and the flight recorder must fire.
    let out = exp_all()
        .args([
            "--scale",
            "quick",
            "--serve",
            "seed=21,tenants=4,rate=100000,horizon=500us,batch=4,deadline=1us",
            "--telemetry",
        ])
        .arg(&telem_path)
        .arg("--flight-dump")
        .arg(&dump_dir)
        .arg("e01")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("wrote flight dump"), "stderr: {err}");

    let flight_text = std::fs::read_to_string(dump_dir.join("flight.json"))
        .expect("flight.json written on trigger");
    let flight = json::parse(&flight_text).expect("flight dump parses");
    let serve = flight.get("serve").expect("serve section");
    assert!(
        serve
            .get("triggers_fired")
            .and_then(Value::as_f64)
            .expect("triggers_fired")
            > 0.0,
        "dump records the trigger: {flight_text}"
    );
    assert!(
        flight_text.contains("slo_breach"),
        "breach trigger named: {flight_text}"
    );
    assert!(
        flight.get("shard_tail").and_then(Value::as_arr).is_some(),
        "shard series tail included"
    );
    // the serving run's pre-trigger snapshot joins the bundle
    let snap = std::fs::read(dump_dir.join("snapshot.bin")).expect("snapshot.bin written");
    assert!(!snap.is_empty());

    std::fs::remove_file(&telem_path).ok();
    std::fs::remove_dir_all(&dump_dir).ok();
}

#[test]
fn clean_run_with_flight_dump_writes_no_bundle() {
    let telem_path = tmp("clean-telem.json");
    let dump_dir = tmp("clean-dump");
    let out = exp_all()
        .args(["--scale", "quick", "--telemetry"])
        .arg(&telem_path)
        .arg("--flight-dump")
        .arg(&dump_dir)
        .arg("e01")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("no flight-recorder trigger fired; no dump written"),
        "stderr: {err}"
    );
    assert!(!dump_dir.exists(), "no dump directory for a clean run");

    std::fs::remove_file(&telem_path).ok();
}

#[test]
fn snapshot_flags_must_come_as_a_pair_with_serve() {
    // --snapshot-at without --snapshot-out (and vice versa) is refused
    let out = exp_all()
        .args(["--serve", "seed=7,tenants=2", "--snapshot-at", "100us"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--snapshot-at and --snapshot-out must be given together"),
        "stderr: {err}"
    );

    let out = exp_all()
        .args(["--serve", "seed=7,tenants=2", "--snapshot-out", "x.snap"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    // snapshotting or resuming is meaningless without a serving run
    let out = exp_all()
        .args(["--snapshot-at", "100us", "--snapshot-out", "x.snap"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--snapshot-at/--resume need a --serve SPEC"),
        "stderr: {err}"
    );

    let out = exp_all()
        .args(["--resume", "x.snap"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    // a malformed checkpoint time is quoted back
    let out = exp_all()
        .args([
            "--serve",
            "seed=7,tenants=2",
            "--snapshot-at",
            "nonsense",
            "--snapshot-out",
            "x.snap",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("bad --snapshot-at time `nonsense`"),
        "stderr: {err}"
    );

    // checkpointing and resuming in the same invocation is contradictory
    let out = exp_all()
        .args([
            "--serve",
            "seed=7,tenants=2",
            "--snapshot-at",
            "100us",
            "--snapshot-out",
            "x.snap",
            "--resume",
            "x.snap",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--snapshot-at and --resume are mutually exclusive"),
        "stderr: {err}"
    );
}

#[test]
fn resume_refuses_missing_and_corrupt_snapshots_with_exit_2() {
    let missing = tmp("never-written.snap");
    let out = exp_all()
        .args([
            "--serve",
            "seed=7,tenants=2,rate=120000,horizon=300us,batch=4",
        ])
        .arg("--resume")
        .arg(&missing)
        .arg("e01")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot read snapshot"), "stderr: {err}");

    // write a real checkpoint, corrupt one payload byte, and resume: the
    // checksum refusal must name the snapshot and exit 2, and no serving
    // table may be printed (nothing was partially applied).
    let snap_path = tmp("corrupt.snap");
    let spec = "seed=7,tenants=2,rate=120000,horizon=300us,batch=4";
    let out = exp_all()
        .args([
            "--scale",
            "quick",
            "--serve",
            spec,
            "--snapshot-at",
            "150us",
        ])
        .arg("--snapshot-out")
        .arg(&snap_path)
        .arg("e01")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("wrote serving checkpoint"), "stderr: {err}");

    let mut bytes = std::fs::read(&snap_path).expect("snapshot written");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&snap_path, &bytes).unwrap();

    let out = exp_all()
        .args(["--scale", "quick", "--serve", spec])
        .arg("--resume")
        .arg(&snap_path)
        .arg("e01")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("refusing snapshot"), "stderr: {err}");
    assert!(err.contains("checksum"), "typed checksum error: {err}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        !stdout.contains("== serving =="),
        "no serving table after a refusal: {stdout}"
    );

    std::fs::remove_file(&snap_path).ok();
}

#[test]
fn snapshot_then_resume_round_trips_byte_identical_serving_json() {
    let snap_path = tmp("roundtrip.snap");
    let full_json = tmp("full.json");
    let resumed_json = tmp("resumed.json");
    let spec = "seed=11,tenants=3,rate=150000,horizon=300us,batch=4";

    let out = exp_all()
        .args(["--scale", "quick", "--serve", spec, "--serve-out"])
        .arg(&full_json)
        .arg("e01")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let full_stdout = String::from_utf8(out.stdout).unwrap();

    let out = exp_all()
        .args([
            "--scale",
            "quick",
            "--serve",
            spec,
            "--snapshot-at",
            "120us",
        ])
        .arg("--snapshot-out")
        .arg(&snap_path)
        .arg("e01")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = exp_all()
        .args(["--scale", "quick", "--serve", spec, "--serve-out"])
        .arg(&resumed_json)
        .arg("--resume")
        .arg(&snap_path)
        .arg("e01")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resumed_stdout = String::from_utf8(out.stdout).unwrap();

    assert_eq!(
        full_stdout, resumed_stdout,
        "resumed stdout must be byte-identical to the uninterrupted run"
    );
    assert_eq!(
        std::fs::read_to_string(&full_json).unwrap(),
        std::fs::read_to_string(&resumed_json).unwrap(),
        "resumed --serve-out must be byte-identical to the uninterrupted run"
    );

    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&full_json).ok();
    std::fs::remove_file(&resumed_json).ok();
}

#[test]
fn timing_writes_per_key_walls_to_file_and_stderr_only() {
    let timing_path = tmp("timing.json");
    let out = exp_all()
        .args(["--scale", "quick", "--timing"])
        .arg(&timing_path)
        .args(["e01", "e03"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("host wall"), "stdout: {stdout}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("host wall per key"), "stderr: {err}");
    assert!(err.contains("wrote timing to"), "stderr: {err}");

    let text = std::fs::read_to_string(&timing_path).unwrap();
    let doc = json::parse(&text).expect("timing JSON parses");
    assert_eq!(doc.get("scale").and_then(Value::as_str), Some("quick"));
    assert!(doc.get("host_cores").and_then(Value::as_f64).unwrap() >= 1.0);
    let total = doc.get("total_s").and_then(Value::as_f64).unwrap();
    let keys = doc.get("keys").and_then(Value::as_arr).expect("keys array");
    let names: Vec<_> = keys
        .iter()
        .map(|k| k.get("key").and_then(Value::as_str).expect("key"))
        .collect();
    assert_eq!(names, ["e01", "e03"], "registry order");
    for k in keys {
        let wall = k.get("wall_s").and_then(Value::as_f64).expect("wall_s");
        assert!(wall >= 0.0 && wall <= total, "{wall} vs total {total}");
    }
    std::fs::remove_file(&timing_path).ok();
}

#[test]
fn missing_timing_value_exits_2_with_message() {
    let out = exp_all().arg("--timing").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("error: --timing needs a file path"),
        "stderr: {err}"
    );
    assert!(err.contains("usage: exp_all"), "stderr: {err}");
}
