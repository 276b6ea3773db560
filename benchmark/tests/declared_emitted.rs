//! `BENCHMARK.json` declares what the benchmark emits, and a seed fixes
//! the work. Both tests drive the built program through `run --quick`
//! (reduced steps, small probe blocks, every code path of a full run).
//!
//! Run with `cargo test --release`: a debug build sweeps the 192³ cavity
//! too slowly to be worth the wait, so the tests skip themselves there.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, OnceLock};

const SIMULATIONS: [&str; 3] = ["cavity_dense", "cavity_smallblocks", "vascular_sparse"];

/// One invocation at a time: two would share the host's two cores.
static HOST: Mutex<()> = Mutex::new(());

struct Run {
    /// The last line of standard output.
    line: Value,
    /// The result file.
    result: Value,
}

fn quick_run(tag: &str) -> Run {
    let _host = HOST.lock().unwrap_or_else(|e| e.into_inner());
    let out: PathBuf =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("test_{tag}.json"));
    let output = Command::new(env!("CARGO_BIN_EXE_trillium-benchmark"))
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark starts");
    assert!(
        output.status.success(),
        "run --quick failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line =
        serde_json::from_str(stdout.lines().last().expect("a last line")).expect("JSON last line");
    let text = std::fs::read_to_string(&out).expect("a result file");
    Run { line, result: serde_json::from_str(&text).expect("JSON result file") }
}

/// The run both tests share.
fn first_run() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| quick_run("a"))
}

fn names(list: &Value) -> BTreeSet<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name").to_string())
        .collect()
}

fn keys(object: &Value) -> BTreeSet<String> {
    object.as_object().expect("an object").iter().map(|(k, _)| k.clone()).collect()
}

fn workload<'a>(run: &'a Run, name: &str) -> &'a Value {
    run.result.get("workloads").and_then(|w| w.get(name)).expect("the workload ran")
}

#[test]
fn declared_names_equal_emitted_names() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: run with --release");
        return;
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let declared: Value =
        serde_json::from_str(&std::fs::read_to_string(manifest).expect("BENCHMARK.json"))
            .expect("JSON");
    let run = first_run();

    let workloads = names(declared.get("workloads").expect("workloads"));
    assert_eq!(workloads, keys(run.result.get("workloads").expect("workloads")));

    let end_to_end = names(declared.get("end_to_end").expect("end_to_end"));
    let mut per_layer_emitted = keys(run.result.get("layer").expect("layer"));
    for w in &workloads {
        let w = workload(run, w);
        assert_eq!(end_to_end, keys(w.get("end_to_end").expect("end_to_end")));
        per_layer_emitted.extend(keys(w.get("layer").expect("layer")));
        assert_eq!(w.get("failed_ops").and_then(Value::as_u64), Some(0), "{:?}", w.get("errors"));
    }
    assert_eq!(names(declared.get("per_layer").expect("per_layer")), per_layer_emitted);

    let legal = |name: &str| {
        !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    assert!(workloads.iter().chain(&end_to_end).chain(&per_layer_emitted).all(|n| legal(n)));

    // Every number the run printed or wrote is finite (the JSON printer
    // writes a non-finite one as `null`, which `as_f64` refuses).
    let metrics = run.line.get("metrics").and_then(Value::as_object).expect("metrics");
    assert_eq!(metrics.len(), workloads.len() * end_to_end.len());
    for (name, m) in metrics {
        let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
    let mut layer_values: Vec<(&String, &Value)> = run
        .result
        .get("layer")
        .and_then(Value::as_object)
        .expect("layer")
        .iter()
        .map(|(k, v)| (k, v))
        .collect();
    for w in &workloads {
        layer_values.extend(
            workload(run, w)
                .get("layer")
                .and_then(Value::as_object)
                .expect("layer")
                .iter()
                .map(|(k, v)| (k, v)),
        );
    }
    for (name, v) in layer_values {
        assert!(v.as_f64().is_some_and(f64::is_finite), "{name} = {v}");
    }
    assert_eq!(run.line.get("failed").and_then(Value::as_u64), Some(0));
    assert_eq!(run.line.get("correct").and_then(Value::as_bool), Some(true));

    // The traced round: one trace file per workload, and a loop that
    // splits into its causes without a remainder.
    for w in &workloads {
        let trace =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("trace_{w}.json"));
        let events: Value =
            serde_json::from_str(&std::fs::read_to_string(trace).expect("a trace file"))
                .expect("JSON");
        assert!(events.get("traceEvents").and_then(Value::as_array).is_some_and(|e| e.len() > 4));
        let row = |k: &str| {
            let rows = workload(run, w).get("layer").expect("layer");
            rows.get(&format!("core.driver.{k}")).and_then(Value::as_f64).expect("a driver row")
        };
        let parts =
            row("kernel_s") + row("boundary_s") + row("comm_s") + row("stall_s") + row("other_s");
        assert!(
            (parts - row("loop_s")).abs() <= 0.01 * row("loop_s"),
            "{w}: {parts} vs {}",
            row("loop_s")
        );
    }

    // Units, directions and bounds: the lists the program holds (and
    // `compare` applies) are the declared lists, entry for entry.
    for list in ["end_to_end", "per_layer"] {
        assert_eq!(
            run.result.get("declared").and_then(|d| d.get(list)),
            declared.get(list),
            "{list}"
        );
    }
}

#[test]
fn one_seed_is_one_amount_of_work() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: run with --release");
        return;
    }
    let (a, b) = (first_run(), quick_run("b"));
    for w in SIMULATIONS.iter().chain(&["jobs_mix"]) {
        let (wa, wb) = (workload(a, w), workload(&b, w));
        for key in ["ops", "fluid_updates"] {
            assert!(wa.get(key).is_some_and(|v| v.as_u64().is_some()), "{w}.{key} missing");
            assert_eq!(wa.get(key), wb.get(key), "{w}.{key}");
        }
    }
    // The rebalanced job template migrates on measured cost, so the
    // message counts of `jobs_mix` may differ; the simulations' may not.
    for w in SIMULATIONS {
        for key in ["comm.messages_per_step", "comm.bytes_per_step"] {
            let of = |run: &Run| workload(run, w).get("layer").and_then(|l| l.get(key)).cloned();
            assert!(of(a).is_some(), "{w}.{key} missing");
            assert_eq!(of(a), of(&b), "{w}.{key}");
        }
    }
}
