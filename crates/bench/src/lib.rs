//! Shared helpers for the harness binaries.
//!
//! `reproduce` regenerates the figures and tables of the paper's
//! evaluation section (the mapping is in DESIGN.md §4); the `ablation_*`,
//! `obs_overhead` and `validation_matrix` binaries are gates of their own.
//! Binaries print a human-readable table to stdout; pass `--json` to also
//! emit the raw series as a JSON report line.

pub mod validation;

use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;
use trillium_core::scenario::Scenario;
use trillium_field::{PdfField, Shape, SoaPdfField};
use trillium_geometry::voxelize::VoxelizeConfig;
use trillium_geometry::{VascularTree, VascularTreeParams};
use trillium_kernels::SweepStats;
use trillium_lattice::{Relaxation, D3Q19};

/// Schema tag stamped on every harness JSON report line.
pub const BENCH_SCHEMA: &str = "trillium.bench/v1";

/// Parses the common CLI flags of the harness binaries.
pub struct HarnessArgs {
    /// Emit machine-readable JSON after the table.
    pub json: bool,
    /// Run at full paper scale (slow) instead of the workstation default.
    pub full: bool,
    /// Write a Chrome `trace_event` file of the run to this path
    /// (binaries that drive the distributed time loop honor it).
    pub trace: Option<String>,
}

impl HarnessArgs {
    /// Reads flags from `std::env::args`.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let trace = args.iter().position(|a| a == "--trace").and_then(|i| args.get(i + 1)).cloned();
        HarnessArgs {
            json: args.iter().any(|a| a == "--json"),
            full: args.iter().any(|a| a == "--full"),
            trace,
        }
    }
}

/// Wraps a binary's raw JSON payload in the shared report envelope:
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

/// Prints the machine-readable report shared by all harness binaries.
/// The `--json` contract is: exactly one JSON object on the last stdout
/// line, carrying `schema` and `bin` plus the binary's own fields.
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

/// The synthetic vascular tree the schedule ablations run on: 16³-cell
/// blocks, inflow along the root axis; four generations at `dx` 0.25,
/// or six at 0.1 when `full`.
pub fn vascular_scenario(name: &str, full: bool) -> Scenario {
    let tree = VascularTree::generate(&VascularTreeParams {
        generations: if full { 6 } else { 4 },
        root_radius: 1.2,
        root_length: 7.0,
        ..Default::default()
    });
    Scenario::from_sdf(
        name,
        Arc::new(tree),
        if full { 0.1 } else { 0.25 },
        [16, 16, 16],
        0.06,
        [0.0, 0.0, 0.05],
        1.0,
        VoxelizeConfig::default(),
    )
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
