//! The four workloads. Each function here is one *slice*: one complete
//! fixed-work run (set-up plus time loop) of one workload, executed in a
//! child process of its own, timed from outside through the crates'
//! public functions, and verified before it reports.
//!
//! The amount of work is a constant of the workload. The seed picks the
//! driving velocity and the order and priorities of the jobs; it never
//! changes a step, cell or job count the slice asks for.

use crate::rows::{self, put, Rows};
use crate::stats::percentile;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Instant;
use trillium_core::pipeline::{setup_domain, Balancer, DomainSetup};
use trillium_core::prelude::*;
use trillium_geometry::{SignedDistance, VascularTree, VascularTreeParams};
use trillium_jobs::{JobOutcome, JobResult, JobService, JobSpec, Schedule, ServiceConfig};

/// Workload names, in the round-robin order of a round.
pub const WORKLOADS: [&str; 4] =
    ["cavity_dense", "cavity_smallblocks", "vascular_sparse", "jobs_mix"];

/// Lattice viscosity of every scenario the benchmark builds.
pub const VISCOSITY: f64 = 0.05;
/// Ranks of every simulation workload: one per core of the host.
pub const RANKS: u32 = 2;

/// The six job templates of `jobs_mix`: (key, spec fields after the
/// name and velocity). Every one of them must complete.
pub const TEMPLATES: [(&str, &str); 6] = [
    ("cavity-sync", r#""family":"cavity","cells":16,"blocks":2,"steps":12,"ranks":2"#),
    (
        "cavity-overlapped-inplace",
        r#""family":"cavity","cells":16,"blocks":2,"steps":12,"ranks":2,"kernel":"inplace","schedule":"overlapped""#,
    ),
    ("channel-sync", r#""family":"channel","cells":12,"blocks":1,"steps":8,"ranks":2"#),
    ("cavity-solo", r#""family":"cavity","cells":16,"blocks":2,"steps":6,"ranks":1,"threads":2"#),
    (
        "cavity-rebalanced",
        r#""family":"cavity","cells":16,"blocks":2,"steps":20,"ranks":2,"schedule":"rebalanced","skew":0.75"#,
    ),
    (
        "cavity-resilient-crash-recover",
        r#""family":"cavity","cells":12,"blocks":2,"steps":10,"ranks":2,"schedule":"resilient","fault":{"seed":11,"crash_rank":1,"crash_step":6,"recover":true}"#,
    ),
];

/// What one slice reports to the parent, as one JSON line.
pub struct SliceReport {
    /// Operations attempted: 1 for a simulation slice, one per job.
    pub ops: u64,
    /// Operations that failed verification.
    pub failed_ops: u64,
    /// Why they failed.
    pub errors: Vec<String>,
    /// Fluid-cell updates the run performed (repeats exactly per seed).
    pub fluid_updates: u64,
    /// `energy_final` bits of a simulation slice; must be identical in
    /// every round of one seed.
    pub fingerprint: u64,
    /// Seconds from before the first scenario/geometry call until the
    /// run call returned.
    pub time_to_solution_s: f64,
    /// Seconds inside `SpanKind::Step` on the slowest rank.
    pub loop_s: f64,
    /// Million fluid-cell updates per second (see the workload tables).
    pub mlups: f64,
    /// Peak resident set of the child when the run call returned.
    pub peak_rss_mb: f64,
    /// Per-layer rows this workload produces itself.
    pub layer: Rows,
}

impl SliceReport {
    /// `time_to_solution_s − loop_s`.
    pub fn setup_s(&self) -> f64 {
        self.time_to_solution_s - self.loop_s
    }

    /// The one JSON line a child prints.
    pub fn to_json(&self) -> Value {
        json!({
            "ops": self.ops,
            "failed_ops": self.failed_ops,
            "errors": self.errors.clone(),
            "fluid_updates": self.fluid_updates,
            "fingerprint": format!("{:016x}", self.fingerprint),
            "time_to_solution_s": self.time_to_solution_s,
            "loop_s": self.loop_s,
            "setup_s": self.setup_s(),
            "mlups": self.mlups,
            "peak_rss_mb": self.peak_rss_mb,
            "layer": rows::to_json(&self.layer)
        })
    }
}

/// How a slice runs: timed (default recorder) or traced, at the
/// workload's size or at the reduced `--quick` step counts.
#[derive(Clone, Copy)]
pub struct Mode {
    /// Capture driver events and harness spans, write the trace file,
    /// run the reduced-size bitwise reference check.
    pub traced: bool,
    /// Reduced step and job counts.
    pub quick: bool,
}

/// Runs one slice of `workload` and returns its JSON line.
pub fn run_slice(workload: &str, seed: u64, mode: Mode) -> Result<Value, String> {
    let mut tr = Tracer::new(workload, seed);
    let sync = DriverConfig::default();
    let report = match workload {
        "cavity_dense" => {
            let steps = if mode.quick { 3 } else { 6 };
            let mut r = sim_slice(&mut tr, mode, steps, sync, true, |_| cavity_dense(seed, 192));
            if mode.traced {
                reference_check(&mut r, sync, 6, || cavity_dense(seed, 64));
            }
            r
        }
        "cavity_smallblocks" => {
            let steps = if mode.quick { 2 } else { 5 };
            let mut r =
                sim_slice(&mut tr, mode, steps, sync, true, |_| cavity_smallblocks(seed, 128));
            if mode.traced {
                reference_check(&mut r, sync, 6, || cavity_smallblocks(seed, 48));
            }
            r
        }
        "vascular_sparse" => {
            let (steps, overlapped) = (if mode.quick { 6 } else { 12 }, DriverConfig::overlapped());
            let mut r =
                sim_slice(&mut tr, mode, steps, overlapped, false, |tr| vascular(tr, seed, 1.0));
            if mode.traced {
                reference_check(&mut r, overlapped, 12, || {
                    vascular(&mut Tracer::new("", 0), seed, 3.0)
                });
            }
            r
        }
        "jobs_mix" => jobs_slice(&mut tr, seed, mode),
        other => return Err(format!("unknown workload `{other}`")),
    };
    if mode.traced {
        tr.write().map_err(|e| format!("cannot write trace: {e}"))?;
    }
    Ok(report.to_json())
}

/// Driving velocity (lid, inflow) of every scenario, 0.04 to 0.06 by seed.
pub fn lid_velocity(seed: u64) -> f64 {
    0.04 + 0.02 * StdRng::seed_from_u64(seed ^ 0x11D).gen_range(0.0..1.0)
}

/// The paper's §4.2 dense cavity: 8 blocks, in-place update, AVX2.
pub fn cavity_dense(seed: u64, n: usize) -> Scenario {
    Scenario::lid_driven_cavity(n, 2, VISCOSITY, lid_velocity(seed))
        .with_kernel(KernelChoice::InPlace)
}

/// The strong-scaling limit: the same cavity cut into 8³-cell blocks.
pub fn cavity_smallblocks(seed: u64, n: usize) -> Scenario {
    Scenario::lid_driven_cavity(n, n / 8, VISCOSITY, lid_velocity(seed))
}

/// Fluid cells the vascular workload asks for; `dx` follows from the
/// tree's volume estimate, so the geometry decides the exact count.
const VASCULAR_FLUID_CELLS: f64 = 160_000.0;

/// The synthetic coronary tree of `examples/coronary_tree.rs`. Its shape
/// is a constant of the workload: another tree has another block count
/// (+-10 %), which is another amount of work, so the seed does not pick it.
pub fn vascular_tree() -> VascularTree {
    VascularTree::generate(&VascularTreeParams {
        generations: 5,
        root_radius: 1.2,
        root_length: 7.0,
        ..Default::default()
    })
}

/// Lattice spacing that lands the tree near [`VASCULAR_FLUID_CELLS`].
pub fn vascular_dx(tree: &VascularTree) -> f64 {
    let fraction = tree.fluid_fraction_estimate(50_000, 7);
    (fraction * tree.bounding_box().volume() / VASCULAR_FLUID_CELLS).cbrt()
}

/// The §2.3 set-up pipeline on the tree: 16³-cell blocks, two ranks,
/// graph balancer, inflow along the root axis.
pub fn vascular_domain(tree: Arc<VascularTree>, dx: f64, inflow: f64) -> DomainSetup {
    setup_domain("coronary", tree, dx, [16; 3], RANKS, Balancer::Graph, 0.06, [0.0, 0.0, inflow])
}

/// Call for call `examples/coronary_tree.rs`: tree, set-up pipeline,
/// scenario. `coarsen` multiplies `dx` (the reference check runs at a
/// third of the resolution).
fn vascular(tr: &mut Tracer, seed: u64, coarsen: f64) -> Scenario {
    let g = tr.open("bench.geometry");
    let tree = vascular_tree();
    let dx = coarsen * vascular_dx(&tree);
    tr.close(g);
    let s = tr.open("bench.setup_domain");
    let setup = vascular_domain(Arc::new(tree), dx, lid_velocity(seed));
    tr.close(s);
    setup.scenario
}

/// One simulation slice: builds the scenario, runs it on two ranks,
/// verifies, and folds the recorder totals of the slowest rank into the
/// per-workload `core.driver.*` rows.
fn sim_slice(
    tr: &mut Tracer,
    mode: Mode,
    steps: u64,
    cfg: DriverConfig,
    closed: bool,
    make: impl FnOnce(&mut Tracer) -> Scenario,
) -> SliceReport {
    let cfg = if mode.traced { cfg.with_trace() } else { cfg };
    let root = tr.open("bench.slice");
    let t0 = Instant::now();
    let scenario = make(tr);
    let run_span = tr.open("bench.run");
    let run = run_distributed_with(&scenario, RANKS, 1, steps, &[], cfg);
    let time_to_solution_s = t0.elapsed().as_secs_f64();
    tr.close(run_span);
    let peak_rss_mb = peak_rss_mb();

    let verify = tr.open("bench.verify");
    let mut errors = Vec::new();
    if run.has_nan() {
        errors.push("non-finite PDFs".to_string());
    }
    let drift = run.mass_drift();
    if closed && (drift.is_nan() || drift.abs() > 1e-9) {
        errors.push(format!("mass drift {drift:e} on a closed cavity"));
    }
    tr.close(verify);

    let critical = critical_rank(&run);
    let loop_s = step_total(critical);
    let fluid_updates = run.total_stats().fluid_cells;
    let mut layer = rank_rows(critical);
    let (messages, bytes) = comm_counts(&run);
    put(&mut layer, "comm.messages_per_step", messages as f64 / steps as f64);
    put(&mut layer, "comm.bytes_per_step", bytes as f64 / steps as f64);
    if mode.traced {
        // Measured after the run, so the extra call is outside
        // `time_to_solution_s`; the run's own plan is the same work.
        let p = tr.open("bench.plan_run");
        let t = Instant::now();
        std::hint::black_box(plan_run(&scenario, RANKS));
        let plan_run_s = t.elapsed().as_secs_f64();
        tr.close(p);
        put(&mut layer, "core.plan_run_s", plan_run_s);
        let step_ms: Vec<f64> = critical
            .obs
            .iter()
            .flat_map(|o| &o.events)
            .filter(|e| e.name == SpanKind::Step.name())
            .map(|e| e.dur_us / 1e3)
            .collect();
        step_rows(&step_ms, steps, loop_s, &mut layer);
        tr.merge_run(&run, run_span, plan_run_s);
    }
    tr.close(root);
    SliceReport {
        ops: 1,
        failed_ops: u64::from(!errors.is_empty()),
        errors,
        fluid_updates,
        fingerprint: run.kinetic_energy_final().to_bits(),
        time_to_solution_s,
        loop_s,
        mlups: fluid_updates as f64 / loop_s / 1e6,
        peak_rss_mb,
        layer,
    }
}

/// The repository's bitwise claim, checked in the traced slice at reduced
/// size (same constructor, a third of the edge, so the dumps stay small):
/// the workload's schedule, update scheme and backend must give the PDFs
/// of a synchronous + pull + portable run bit for bit.
fn reference_check(
    report: &mut SliceReport,
    cfg: DriverConfig,
    steps: u64,
    small: impl Fn() -> Scenario,
) {
    let dump = |s: Scenario, cfg: DriverConfig| {
        run_distributed_with(&s, RANKS, 1, steps, &[], DriverConfig { collect_pdfs: true, ..cfg })
            .pdf_dump()
    };
    let reference = small().with_kernel(KernelChoice::Pull).with_backend(BackendKind::Portable);
    if dump(small(), cfg) != dump(reference, DriverConfig::default()) {
        report.errors.push("PDFs differ from the sync + pull + portable reference".into());
        report.failed_ops = 1;
    }
}

pub fn step_total(r: &RankResult) -> f64 {
    r.obs.as_ref().map_or(0.0, |o| o.total(SpanKind::Step))
}

/// The rank whose time loop took longest: the one the run waited for.
pub fn critical_rank(run: &RunResult) -> &RankResult {
    run.ranks
        .iter()
        .max_by(|a, b| step_total(a).total_cmp(&step_total(b)))
        .expect("a run has at least one rank")
}

/// Messages and bytes the ranks of a run sent (exact counts).
fn comm_counts(run: &RunResult) -> (u64, u64) {
    let m = run.metrics();
    (m.counter("comm.messages_sent"), m.counter("comm.bytes_sent"))
}

/// The rows one rank contributes: its time loop split by cause, and its
/// wall time outside the loop (block build, final reductions). `other_s`
/// is the loop's self time: what is left after its four child categories.
/// `jobs_mix` sums these rows over its jobs.
fn rank_rows(r: &RankResult) -> Rows {
    let loop_s = step_total(r);
    let mut rows = Rows::new();
    put(&mut rows, "core.driver.loop_s", loop_s);
    put(&mut rows, "core.driver.kernel_s", r.kernel_time);
    put(&mut rows, "core.driver.boundary_s", r.boundary_time);
    put(&mut rows, "core.driver.comm_s", r.comm_time);
    put(&mut rows, "core.driver.stall_s", r.ghost_stall_time);
    put(&mut rows, "core.driver.other_s", loop_s - r.busy_time());
    put(&mut rows, "core.driver.overlap_hidden_s", r.overlap_hidden);
    put(&mut rows, "core.build_blocks_s", r.wall_time - loop_s);
    rows
}

/// Step-time percentiles, and the warm-up cost: what the loop took beyond
/// `steps` median steps (first-touch page faults, cold caches).
fn step_rows(step_ms: &[f64], steps: u64, loop_s: f64, layer: &mut Rows) {
    let p50 = percentile(step_ms, 0.50);
    put(layer, "core.driver.step_p50_ms", p50);
    put(layer, "core.driver.step_p95_ms", percentile(step_ms, 0.95));
    put(layer, "core.driver.warmup_s", loop_s - steps as f64 * p50 / 1e3);
}

/// Peak resident set of this process in MB (`VmHWM`, the same high-water
/// mark `ru_maxrss` reports), read when the timed region ends so that
/// verification does not count.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---- jobs_mix ------------------------------------------------------------

/// The job documents of one seed: every template `per_template` times,
/// order and priorities shuffled.
pub fn job_documents(seed: u64, per_template: usize) -> Vec<(usize, String)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10B5);
    let velocity = lid_velocity(seed);
    let mut docs: Vec<(usize, String)> = Vec::with_capacity(TEMPLATES.len() * per_template);
    for (t, (key, fields)) in TEMPLATES.iter().enumerate() {
        for i in 0..per_template {
            let priority = rng.gen_range(0..5i64);
            docs.push((
                t,
                format!(
                    r#"{{"name":"{key}-{i}","velocity":{velocity},"priority":{priority},{fields}}}"#
                ),
            ));
        }
    }
    docs.shuffle(&mut rng);
    docs
}

/// Final PDFs of a run: `(packed block id, values)`, sorted by id.
type PdfDump = Vec<(u64, Vec<f64>)>;

/// The solo run a job's PDFs must equal: the plain driver, no service,
/// no fault, no rebalancing (both are bitwise neutral by the repository's
/// own gates).
fn solo_baseline(spec: &JobSpec) -> PdfDump {
    run_distributed_with(
        &spec.to_scenario(),
        spec.ranks,
        spec.threads,
        spec.steps,
        &[],
        DriverConfig {
            collect_pdfs: true,
            overlap: spec.schedule == Schedule::Overlapped,
            ..DriverConfig::default()
        },
    )
    .pdf_dump()
}

fn jobs_slice(tr: &mut Tracer, seed: u64, mode: Mode) -> SliceReport {
    let per_template = if mode.quick { 10 } else { 60 };
    let docs = job_documents(seed, per_template);
    let n = docs.len();

    let root = tr.open("bench.slice");
    let t0 = Instant::now();
    let parse = tr.open("bench.jobs.parse");
    let specs: Vec<JobSpec> = docs
        .iter()
        .map(|(_, d)| JobSpec::parse(d).expect("generated job documents are valid"))
        .collect();
    let parse_s = tr.close(parse);
    let mut svc = JobService::new(ServiceConfig {
        lanes: 1,
        lane_width: RANKS,
        batch: 8,
        ..ServiceConfig::default()
    });
    let submit = tr.open("bench.jobs.submit");
    let t_submit = tr.now_us();
    for spec in specs.iter().cloned() {
        svc.submit(spec).expect("generated jobs are admissible");
    }
    let submit_s = tr.close(submit);
    let drain = tr.open("bench.jobs.drain");
    let mut outcomes = svc.run_to_completion();
    let time_to_solution_s = t0.elapsed().as_secs_f64();
    tr.close(drain);
    drop(svc);
    let peak_rss_mb = peak_rss_mb();
    outcomes.sort_by_key(|o| o.id);

    // ---- verification: every job against its template's solo run ---------
    let verify = tr.open("bench.verify");
    let template_of: Vec<usize> = docs.iter().map(|(t, _)| *t).collect();
    let mut baselines: Vec<Option<PdfDump>> = vec![None; TEMPLATES.len()];
    let mut errors = Vec::new();
    let mut failed_ops = (n - outcomes.len()) as u64;
    if failed_ops > 0 {
        errors.push(format!("{failed_ops} jobs never came back"));
    }
    // Rows of the critical rank of every job, summed; exact counts.
    let mut layer = Rows::new();
    let (mut fluid_updates, mut steps, mut messages, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut recoveries, mut migrations) = (0u64, 0u64);
    // The service runs jobs with event capture off: the mean step of each
    // job stands in for its steps.
    let mut step_ms = Vec::new();
    let mut run_ms: Vec<Vec<f64>> = vec![Vec::new(); TEMPLATES.len()];
    for o in &outcomes {
        let idx = o.id.0 as usize;
        let t = template_of[idx];
        match &o.result {
            JobResult::Failed { error } => {
                failed_ops += 1;
                errors.push(format!("{}: {error}", o.name));
            }
            JobResult::Completed { run, recoveries: r } => {
                let base = baselines[t].get_or_insert_with(|| solo_baseline(&specs[idx]));
                if run.has_nan() || run.pdf_dump() != *base {
                    failed_ops += 1;
                    errors.push(format!("{}: PDFs differ from the solo baseline", o.name));
                }
                let critical = critical_rank(run);
                for (name, value) in rank_rows(critical) {
                    *layer.entry(name).or_default() += value;
                }
                step_ms.push(1e3 * step_total(critical) / run.steps as f64);
                let (m, b) = comm_counts(run);
                (messages, bytes, steps) = (messages + m, bytes + b, steps + run.steps);
                fluid_updates += run.total_stats().fluid_cells;
                recoveries += u64::from(*r);
                migrations += u64::from(run.total_migrations());
                run_ms[t].push(1e3 * o.run_seconds);
            }
        }
    }
    errors.truncate(8);
    tr.close(verify);
    if mode.traced {
        tr.job_lanes(&outcomes, t_submit);
    }
    tr.close(root);

    let loop_s = layer.get("core.driver.loop_s").copied().unwrap_or(0.0);
    step_rows(&step_ms, steps, loop_s, &mut layer);
    put(&mut layer, "comm.messages_per_step", messages as f64 / steps.max(1) as f64);
    put(&mut layer, "comm.bytes_per_step", bytes as f64 / steps.max(1) as f64);
    // What `plan_run` costs the service: one call per template, measured
    // here, times the jobs of that template.
    let mut plan_run_s = 0.0;
    for (t, _) in TEMPLATES.iter().enumerate() {
        if let Some(i) = template_of.iter().position(|&x| x == t) {
            let scenario = specs[i].to_scenario();
            let t0 = Instant::now();
            std::hint::black_box(plan_run(&scenario, specs[i].ranks));
            plan_run_s += t0.elapsed().as_secs_f64() * per_template as f64;
        }
    }
    put(&mut layer, "core.plan_run_s", plan_run_s);
    jobs_rows(&outcomes, &run_ms, parse_s, submit_s, time_to_solution_s, loop_s, &mut layer);
    put(&mut layer, "jobs.recoveries", recoveries as f64);
    put(&mut layer, "rebalance.migrations", migrations as f64);

    SliceReport {
        ops: n as u64,
        failed_ops,
        errors,
        fluid_updates,
        fingerprint: 0,
        time_to_solution_s,
        loop_s,
        // Service throughput: the fixed cost of every job is in the divisor.
        mlups: fluid_updates as f64 / time_to_solution_s / 1e6,
        peak_rss_mb,
        layer,
    }
}

/// The `jobs.*` rows of one slice.
fn jobs_rows(
    outcomes: &[JobOutcome],
    run_ms: &[Vec<f64>],
    parse_s: f64,
    submit_s: f64,
    time_to_solution_s: f64,
    loop_s: f64,
    layer: &mut Rows,
) {
    let n = outcomes.len().max(1) as f64;
    let queue: Vec<f64> = outcomes.iter().map(|o| o.queue_seconds).collect();
    let run: Vec<f64> = run_ms.iter().flatten().copied().collect();
    put(layer, "jobs.spec_parse_us", 1e6 * parse_s / n);
    put(layer, "jobs.submit_us", 1e6 * submit_s / n);
    put(layer, "jobs.jobs_per_s", n / time_to_solution_s);
    put(layer, "jobs.queue_p50_s", percentile(&queue, 0.50));
    put(layer, "jobs.queue_p95_s", percentile(&queue, 0.95));
    put(layer, "jobs.run_p50_ms", percentile(&run, 0.50));
    put(layer, "jobs.run_p95_ms", percentile(&run, 0.95));
    for ((key, _), ms) in TEMPLATES.iter().zip(run_ms) {
        put(layer, &format!("jobs.run_p50_ms.{key}"), percentile(ms, 0.50));
    }
    put(layer, "jobs.overhead_share", (time_to_solution_s - loop_s) / time_to_solution_s);
}
