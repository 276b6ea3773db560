//! The experiment harness behind the `reproduce` binary.
//!
//! `reproduce [NAME …]` runs named entries: the figures and tables of the
//! paper's evaluation section (the mapping is in DESIGN.md §4), the
//! ablations of [`ablations`] and the physics gate
//! [`validation::matrix`]. Each prints a human-readable table to stdout;
//! `--json` follows it with the raw series as one JSON report line.

pub mod ablations;
pub mod validation;

use serde_json::Value;
use std::str::FromStr;
use std::time::Instant;
use trillium_field::{PdfField, Shape, SoaPdfField};
use trillium_kernels::SweepStats;
use trillium_lattice::{Relaxation, D3Q19};

/// Schema tag stamped on every harness JSON report line.
pub const BENCH_SCHEMA: &str = "trillium.bench/v1";

/// The harness command line: `[NAME …] [--json] [--full] [--trace PATH]
/// [--fault MODE] [--seed N] [--jobs N]`.
#[derive(Debug, Default)]
pub struct HarnessArgs {
    /// The entries asked for, in the order given.
    pub names: Vec<String>,
    /// Emit machine-readable JSON after the table.
    pub json: bool,
    /// Run at full paper scale (slow) instead of the workstation default.
    pub full: bool,
    /// Write a Chrome `trace_event` file of the run to this path
    /// (`ablation_overlap`).
    pub trace: Option<String>,
    /// Fault mode of `ablation_resilience`.
    pub fault: Option<FaultMode>,
    /// Fault seed of `ablation_resilience`.
    pub seed: Option<u64>,
    /// Job count of the `ablation_jobs` soak.
    pub jobs: Option<usize>,
}

impl HarnessArgs {
    /// Parses the arguments after the program name. An unknown flag, a
    /// value flag without its value (last, or followed by another flag),
    /// a number that does not parse and an unknown fault mode are errors.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = HarnessArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                out.names.push(arg);
                continue;
            }
            let mut value = || match args.next() {
                Some(v) if !v.starts_with("--") => Ok(v),
                _ => Err(format!("`{arg}` needs a value")),
            };
            match arg.as_str() {
                "--json" => out.json = true,
                "--full" => out.full = true,
                "--trace" => out.trace = Some(value()?),
                "--fault" => out.fault = Some(value()?.parse()?),
                "--seed" => out.seed = Some(number(&arg, value()?)?),
                "--jobs" => out.jobs = Some(number(&arg, value()?)?),
                _ => return Err(format!("unknown flag `{arg}`")),
            }
        }
        Ok(out)
    }
}

/// The fault plan `ablation_resilience` injects (`--fault`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// One rank crashes mid-run.
    Crash,
    /// Messages are dropped.
    Drop,
    /// Messages are delivered out of order.
    Reorder,
    /// Messages are duplicated.
    Dup,
}

impl FaultMode {
    /// The mode as `--fault` names it.
    pub fn label(self) -> &'static str {
        match self {
            FaultMode::Crash => "crash",
            FaultMode::Drop => "drop",
            FaultMode::Reorder => "reorder",
            FaultMode::Dup => "dup",
        }
    }
}

impl FromStr for FaultMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        [FaultMode::Crash, FaultMode::Drop, FaultMode::Reorder, FaultMode::Dup]
            .into_iter()
            .find(|m| m.label() == s)
            .ok_or_else(|| format!("`--fault` takes crash, drop, reorder or dup, not `{s}`"))
    }
}

fn number<T: FromStr>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|_| format!("`{flag}` takes a number, not `{value}`"))
}

/// An entry whose contract failed: the payload it still reports, and why.
pub struct Failed {
    /// The report the entry would have emitted.
    pub payload: Value,
    /// What broke.
    pub reason: String,
}

/// What a harness entry returns: its JSON payload, or [`Failed`].
pub type Outcome = Result<Value, Failed>;

/// Wraps an entry's raw JSON payload in the shared report envelope:
/// `schema` and `bin` come first, then the payload's own fields. Object
/// payloads keep their fields at the top level, so existing consumers
/// keep reading them unchanged; arrays and scalars land under `rows`.
pub fn bench_report(bin: &str, payload: Value) -> Value {
    let mut fields = vec![
        ("schema".to_string(), Value::String(BENCH_SCHEMA.to_string())),
        ("bin".to_string(), Value::String(bin.to_string())),
    ];
    match payload {
        Value::Object(obj) => fields.extend(obj),
        other => fields.push(("rows".to_string(), other)),
    }
    Value::Object(fields)
}

/// Prints an entry's machine-readable report. The `--json` contract is:
/// one JSON object on the line after the entry's table, carrying
/// `schema` and `bin` (the entry's name) plus the entry's own fields.
pub fn emit_json(bin: &str, payload: Value) {
    println!("{}", bench_report(bin, payload));
}

/// Prints a separator + title for a harness section.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Measures the MLUPS of a kernel closure over `reps` sweeps on a field
/// of the given shape, after one warm-up sweep.
pub fn measure_mlups<F: FnMut() -> SweepStats>(mut sweep: F, reps: usize) -> f64 {
    let _ = sweep(); // warm-up
    let start = Instant::now();
    let mut stats = SweepStats::default();
    for _ in 0..reps {
        stats.merge(sweep());
    }
    stats.mlups(start.elapsed().as_secs_f64())
}

/// A pair of SoA fields initialized to a perturbed equilibrium, ready for
/// kernel benchmarking.
pub fn bench_fields(n: usize) -> (SoaPdfField<D3Q19>, SoaPdfField<D3Q19>) {
    let shape = Shape::cube(n);
    let mut src = SoaPdfField::<D3Q19>::new(shape);
    let dst = SoaPdfField::<D3Q19>::new(shape);
    src.fill_equilibrium(1.0, [0.02, 0.01, -0.01]);
    for (i, v) in src.data_mut().iter_mut().enumerate() {
        *v += 1e-5 * ((i % 101) as f64 - 50.0);
    }
    (src, dst)
}

/// The standard relaxation used by all benchmarks (TRT, paper's choice).
pub fn bench_relaxation() -> Relaxation {
    Relaxation::trt_from_viscosity(0.05)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_report_prepends_schema_and_bin() {
        let r = bench_report("demo", serde_json::json!({"x": 1}));
        assert_eq!(r.to_string(), r#"{"schema":"trillium.bench/v1","bin":"demo","x":1}"#);
        let r = bench_report("demo", serde_json::json!([1, 2]));
        assert_eq!(r.to_string(), r#"{"schema":"trillium.bench/v1","bin":"demo","rows":[1,2]}"#);
    }

    #[test]
    fn measure_mlups_returns_positive_rate() {
        let (src, mut dst) = bench_fields(16);
        let rel = bench_relaxation();
        let m = measure_mlups(|| trillium_kernels::soa::stream_collide_trt(&src, &mut dst, rel), 2);
        assert!(m > 0.0);
    }
}
