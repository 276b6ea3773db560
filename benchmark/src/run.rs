//! The measurement protocol of `run`.
//!
//! * One child process per slice, one at a time, round-robin over the
//!   selected workloads; the parent only waits. Never more runnable
//!   threads than the slice itself starts.
//! * Fixed work per slice; the rounds of an invocation are its samples.
//! * The headline of an end-to-end metric is its best round (least
//!   seconds and MB, most MLUP/s): contention on a shared host only ever
//!   adds time, so the best round is the least disturbed one (the STREAM
//!   convention). Slices are kept short so that an invocation has many
//!   rounds to catch an undisturbed moment. Median, both quartiles and
//!   every value are reported beside it.
//! * With the per-layer part on, the parent times two loops of its own
//!   before every round (`machine.calib_*`), runs one more round traced,
//!   and then the layer probes.

use crate::metrics::{layer_unit, Better, END_TO_END, PER_LAYER};
use crate::probes;
use crate::rows::{self, Rows};
use crate::stats::Summary;
use crate::trace::out_dir;
use crate::workloads::WORKLOADS;
use crate::{flag, has, parsed};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Schema tag of a result file.
pub const SCHEMA: &str = "trillium.benchmark/v1";
/// A slice that has not reported after this long is killed and counted
/// as a failed operation (the non-resilient driver can hang on a lost
/// message).
const WATCHDOG: Duration = Duration::from_secs(60);

enum Budget {
    Rounds(usize),
    Seconds(f64),
}

/// Runs the child `slice` and returns its JSON line.
fn spawn_slice(workload: &str, seed: u64, traced: bool, quick: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["slice", "--workload", workload, "--seed", &seed.to_string()]);
    if traced {
        cmd.arg("--traced");
    }
    if quick {
        cmd.arg("--quick");
    }
    let mut child =
        cmd.stdout(Stdio::piped()).spawn().map_err(|e| format!("cannot start a slice: {e}"))?;
    let started = Instant::now();
    // The child prints one short line at its very end, far below the pipe
    // buffer, so it never blocks on the parent reading late.
    let status = loop {
        match child.try_wait().map_err(|e| format!("cannot wait for a slice: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > WATCHDOG => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("slice exceeded the {} s watchdog", WATCHDOG.as_secs()));
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let output = child.wait_with_output().map_err(|e| format!("cannot read a slice: {e}"))?;
    if !status.success() {
        return Err(format!("slice ended with {status}"));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().ok_or("slice printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("slice printed no JSON: {e}"))
}

/// The parent's own two loops, timed before every round: an L1-resident
/// FMA chain and a triad over 1 GiB. They say how fast the host was around
/// each round, which is what lets `compare` tell a changed host from a
/// changed program. The arrays live only for the sample: memory the parent
/// kept resident slowed the slices that followed.
struct Calibrator {
    quick: bool,
    cpu_ms: Vec<f64>,
    dram_ms: Vec<f64>,
}

impl Calibrator {
    fn sample(&mut self) {
        let t = Instant::now();
        let mut x = [1.0f64, 1.1, 1.2, 1.3];
        for _ in 0..5_000_000u32 {
            for v in &mut x {
                *v = v.mul_add(0.999_999, 1e-9);
            }
        }
        std::hint::black_box(x);
        self.cpu_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let n = (if self.quick { 24 << 20 } else { 1usize << 30 }) / 8 / 3;
        // Written, not zero-mapped: the timed pass must not pay page faults.
        let (mut a, b, c) = (vec![0.5f64; n], vec![1.0f64; n], vec![2.0f64; n]);
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 3.0 * c;
        }
        std::hint::black_box(&a);
        self.dram_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// Everything one workload produced in an invocation.
#[derive(Default)]
struct Collected {
    timed: Vec<Value>,
    traced: Option<Value>,
    ops: u64,
    failed_ops: u64,
    errors: Vec<String>,
}

impl Collected {
    fn absorb(&mut self, slice: Result<Value, String>) -> Option<Value> {
        match slice {
            Ok(v) => {
                self.ops += v.get("ops").and_then(Value::as_u64).unwrap_or(1);
                self.failed_ops += v.get("failed_ops").and_then(Value::as_u64).unwrap_or(0);
                for e in v.get("errors").and_then(Value::as_array).unwrap_or(&[]) {
                    self.errors.extend(e.as_str().map(str::to_string));
                }
                Some(v)
            }
            Err(e) => {
                self.ops += 1;
                self.failed_ops += 1;
                self.errors.push(e);
                None
            }
        }
    }

    /// Values of one slice field over the timed rounds.
    fn values(&self, key: &str) -> Vec<f64> {
        self.timed.iter().filter_map(|v| v.get(key).and_then(Value::as_f64)).collect()
    }

    /// The same seed must give the same run: counts and, on a simulation,
    /// the bits of the final kinetic energy repeat in every round.
    fn check_repeatable(&mut self) {
        for key in ["fluid_updates", "fingerprint", "ops"] {
            let mut seen = self.timed.iter().chain(&self.traced).filter_map(|v| v.get(key));
            if let Some(first) = seen.next() {
                if seen.any(|v| v != first) {
                    self.failed_ops += 1;
                    self.errors.push(format!("`{key}` differs between rounds of one seed"));
                }
            }
        }
    }
}

fn summary_json(s: &Summary, values: &[f64]) -> Value {
    json!({
        "value": s.best, "median": s.median, "q1": s.q1, "q3": s.q3, "n": s.n,
        "values": values.to_vec()
    })
}

/// The numbers of the array at `path` in a result file (none when the
/// file or the path is absent).
pub fn numbers_at(doc: Option<&Value>, path: &[&str]) -> Vec<f64> {
    let node = path.iter().fold(doc, |node, key| node.and_then(|v| v.get(key)));
    node.and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// `run`: see the module documentation and `README.md`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let seed = parsed(args, "--seed", 1u64)?;
    let quick = has(args, "--quick");
    let selected: Vec<&str> = match flag(args, "--workload") {
        None => WORKLOADS.to_vec(),
        Some(w) => {
            vec![*WORKLOADS.iter().find(|&&k| k == w).ok_or(format!("unknown workload `{w}`"))?]
        }
    };
    // `--trace 0`: the end-to-end part only; `--trace 1`: the per-layer
    // part only (one timed round for the overhead figure); absent: both.
    let (end_to_end, per_layer) = match flag(args, "--trace") {
        None => (true, true),
        Some("0") => (true, false),
        Some("1") => (false, true),
        Some(v) => return Err(format!("--trace: cannot read `{v}`")),
    };
    let budget = match flag(args, "--seconds") {
        _ if !end_to_end => Budget::Rounds(1),
        Some(_) => Budget::Seconds(parsed(args, "--seconds", 0.0)?),
        None => Budget::Rounds(parsed(args, "--rounds", if quick { 1 } else { 5 })?.max(1)),
    };
    let out = flag(args, "--out").map_or_else(|| out_dir().join("result.json"), PathBuf::from);
    let previous = if has(args, "--append") { read_result(&out).ok() } else { None };

    // ---- timed rounds -------------------------------------------------------
    let started = Instant::now();
    let mut calibrator =
        per_layer.then(|| Calibrator { quick, cpu_ms: Vec::new(), dram_ms: Vec::new() });
    let mut collected: Vec<Collected> = selected.iter().map(|_| Collected::default()).collect();
    let mut rounds = 0usize;
    loop {
        if let Some(c) = &mut calibrator {
            c.sample();
        }
        for (w, c) in selected.iter().zip(&mut collected) {
            let slice = c.absorb(spawn_slice(w, seed, false, quick));
            c.timed.extend(slice);
        }
        rounds += 1;
        let go_on = match budget {
            Budget::Rounds(n) => rounds < n,
            // At least three rounds, then as many as end within the time.
            Budget::Seconds(s) => {
                let elapsed = started.elapsed().as_secs_f64();
                rounds < 3 || elapsed + elapsed / rounds as f64 <= s
            }
        };
        if !go_on {
            break;
        }
    }

    // ---- traced round and layer probes ----------------------------------------
    let mut probe_rows = Rows::new();
    if per_layer {
        if let Some(c) = &mut calibrator {
            c.sample();
        }
        for (w, c) in selected.iter().zip(&mut collected) {
            c.traced = c.absorb(spawn_slice(w, seed, true, quick));
        }
        probes::machine_sizes(quick, &mut probe_rows);
        for (w, c) in selected.iter().zip(&collected) {
            match *w {
                "cavity_dense" => {
                    let mlups = Summary::of(&c.values("mlups"), false).best;
                    probes::cavity_dense_group(seed, quick, mlups, &mut probe_rows);
                }
                "cavity_smallblocks" => probes::cavity_smallblocks_group(quick, &mut probe_rows),
                "vascular_sparse" => probes::vascular_sparse_group(seed, quick, &mut probe_rows),
                _ => probes::jobs_mix_group(quick, &mut probe_rows),
            }
        }
    }
    let mut calib = json!({});
    if let Some(c) = &calibrator {
        let cpu = [numbers_at(previous.as_ref(), &["calib", "cpu_ms"]), c.cpu_ms.clone()].concat();
        let dram =
            [numbers_at(previous.as_ref(), &["calib", "dram_ms"]), c.dram_ms.clone()].concat();
        let (cpu_s, dram_s) = (Summary::of(&cpu, true), Summary::of(&dram, true));
        probe_rows.insert("machine.calib_cpu_ms".into(), cpu_s.median);
        probe_rows.insert("machine.calib_dram_ms".into(), dram_s.median);
        let range = |v: &[f64], s: Summary| {
            v.iter().fold(0.0f64, |m, x| m.max(*x)) / s.best.max(f64::MIN_POSITIVE) - 1.0
        };
        probe_rows
            .insert("machine.calib_spread".into(), range(&cpu, cpu_s).max(range(&dram, dram_s)));
        calib = json!({"cpu_ms": cpu, "dram_ms": dram});
    }

    // ---- fold, print, write -----------------------------------------------------
    let single = selected.len() == 1;
    let mut workloads_json: Vec<(String, Value)> = Vec::new();
    let mut line_metrics: Vec<(String, Value)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (w, c) in selected.iter().zip(&mut collected) {
        c.check_repeatable();
        attempted += c.ops;
        failed += c.failed_ops;
        println!("== {w}: {} ops, {} failed ==", c.ops, c.failed_ops);
        for e in &c.errors {
            println!("   FAILED: {e}");
        }
        let key = |name: &str| if single { name.to_string() } else { format!("{w}.{name}") };

        let mut e2e: Vec<(String, Value)> = Vec::new();
        if end_to_end {
            for (name, unit, better, _) in END_TO_END {
                let values = [
                    numbers_at(previous.as_ref(), &["workloads", w, "end_to_end", name, "values"]),
                    c.values(name),
                ]
                .concat();
                let s = Summary::of(&values, better == Better::Lower);
                println!(
                    "   {name:<20} {:>12.4} {unit:<7} (best of {}; median {:.4}, q1 {:.4}, q3 {:.4})",
                    s.best, s.n, s.median, s.q1, s.q3
                );
                line_metrics.push((key(name), json!({"value": s.best, "unit": unit})));
                e2e.push((name.to_string(), summary_json(&s, &values)));
            }
        }

        // Rows of this workload's own traced slice, plus what tracing cost.
        let mut layer = Rows::new();
        if let Some(rows) = c.traced.as_ref().and_then(|t| t.get("layer")) {
            layer = rows::from_json(rows);
            let untraced = Summary::of(&c.values("time_to_solution_s"), true).best;
            let traced =
                c.traced.as_ref().and_then(|t| t.get("time_to_solution_s")).and_then(Value::as_f64);
            if let (Some(traced), true) = (traced, untraced > 0.0) {
                layer.insert("core.driver.trace_overhead_frac".into(), traced / untraced - 1.0);
            }
        }
        if per_layer {
            for (name, value) in &layer {
                println!("   {name:<48} {value:>14.6} {}", layer_unit(name));
            }
            if !end_to_end {
                // What a traced run of this workload reports: every declared
                // name, 0 where no probe or slice of the workload produced it.
                let mut all: Rows =
                    PER_LAYER.iter().map(|(n, _, _)| (n.to_string(), 0.0)).collect();
                all.extend(probe_rows.clone());
                all.extend(layer.clone());
                for (name, value) in all {
                    line_metrics
                        .push((key(&name), json!({"value": value, "unit": layer_unit(&name)})));
                }
            }
        }
        let first = c.timed.first().or(c.traced.as_ref());
        workloads_json.push((
            w.to_string(),
            json!({
                "ops": c.ops,
                "failed_ops": c.failed_ops,
                "errors": c.errors.clone(),
                "fluid_updates": first.and_then(|v| v.get("fluid_updates")).cloned().unwrap_or(Value::Null),
                "end_to_end": Value::Object(e2e),
                "layer": rows::to_json(&layer)
            }),
        ));
    }
    if per_layer {
        println!("== layer probes ==");
        for (name, value) in &probe_rows {
            println!("   {name:<48} {value:>14.6} {}", layer_unit(name));
        }
    }

    // The lists `BENCHMARK.json` declares, as this program holds them.
    let declared_e2e: Vec<Value> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| json!({"name": *n, "unit": *u, "better": b.label(), "bound": *bound}))
        .collect();
    let declared_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|(n, u, b)| json!({"name": *n, "unit": *u, "better": b.label()}))
        .collect();
    let result = json!({
        "schema": SCHEMA,
        "declared": {"end_to_end": declared_e2e, "per_layer": declared_layer},
        "seed": seed,
        "rounds": rounds,
        "quick": quick,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "attempted": attempted,
        "failed": failed,
        "workloads": Value::Object(workloads_json),
        "layer": rows::to_json(&probe_rows),
        "calib": calib
    });
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, result.to_string())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;

    // The last line: one JSON object, the contract of `BENCHMARK.json`.
    println!(
        "{}",
        json!({
            "correct": failed == 0,
            "attempted": attempted.max(1),
            "failed": failed,
            "metrics": Value::Object(line_metrics)
        })
    );
    Ok(true)
}

/// Reads a result file written by `run`.
pub fn read_result(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{} is not a `{SCHEMA}` result", path.display()));
    }
    Ok(doc)
}
