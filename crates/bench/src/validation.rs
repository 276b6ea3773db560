//! Quantitative physics validation: the scenario × collision-operator ×
//! schedule × kernel matrix behind the `validation_matrix` harness binary
//! and the CI `physics-validation` gate (DESIGN.md §13).
//!
//! Each *case* is a flow with an analytic or reference answer:
//!
//! * **Poiseuille** — pressure-driven plane channel; metric: relative L2
//!   deviation of the steady `u_x(y)` profile from its best-fit parabola.
//! * **Taylor–Green** — periodic decaying vortex array; metric: relative
//!   error of the viscosity measured from the kinetic-energy decay
//!   `E(T) = E(0)·e^{−4νk²T}` against the nominal viscosity.
//! * **Cavity** — quasi-2-D lid-driven cavity at Re = 100; metric: RMS of
//!   the vertical-centerline `u_x` profile against the Ghia, Ghia & Shin
//!   (1982) reference table.
//! * **Von Kármán** — cylinder in a channel at Re ≈ 100; metric: Strouhal
//!   number from mean crossings of the per-step lift signal, which must
//!   land in the accepted experimental window.
//!
//! Every cell of the matrix runs the *distributed* driver (4 emulated
//! ranks), so a failure localizes a physics bug to a specific operator ×
//! schedule × kernel combination rather than to "the code".

use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use trillium_core::driver::{
    run_distributed_composed, DriverConfig, RebalanceConfig, RunConfig, RunResult,
};
use trillium_core::pipeline::{setup_domain, Balancer};
use trillium_core::recovery::ResilienceConfig;
use trillium_core::scenario::{KernelChoice, Scenario};
use trillium_field::{CellFlags, FlagOps};
use trillium_geometry::{VascularTree, VascularTreeParams};
use trillium_jobs::Schedule;
use trillium_kernels::Collision;
use trillium_lattice::{density, velocity, D3Q19};
use trillium_obs::ObsConfig;

/// Emulated MPI ranks every validation cell runs on.
pub const NUM_PROCS: u32 = 4;

/// Ghia, Ghia & Shin (1982), Table I: `u_x/u_lid` along the vertical
/// centerline of the lid-driven cavity at Re = 100, as `(y/H, u/u_lid)`
/// with `y = 0` at the stationary wall and `y = 1` at the lid.
pub const GHIA_U_RE100: [(f64, f64); 17] = [
    (0.0000, 0.00000),
    (0.0547, -0.03717),
    (0.0625, -0.04192),
    (0.0703, -0.04775),
    (0.1016, -0.06434),
    (0.1719, -0.10150),
    (0.2813, -0.15662),
    (0.4531, -0.21090),
    (0.5000, -0.20581),
    (0.6172, -0.13641),
    (0.7344, 0.00332),
    (0.8516, 0.23151),
    (0.9531, 0.68717),
    (0.9609, 0.73722),
    (0.9688, 0.78871),
    (0.9766, 0.84123),
    (1.0000, 1.00000),
];

/// A validation case: one flow with a quantitative reference answer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Case {
    /// Pressure-driven plane channel (parabolic-profile L2 error).
    Poiseuille,
    /// Decaying Taylor–Green vortex (dissipation-rate error).
    TaylorGreen,
    /// Lid-driven cavity at Re = 100 (Ghia centerline RMS).
    Cavity,
    /// Cylinder in a channel at Re ≈ 100 (Strouhal number window).
    VonKarman,
}

impl Case {
    /// Every case, in report order.
    pub const ALL: [Case; 4] = [Case::Poiseuille, Case::TaylorGreen, Case::Cavity, Case::VonKarman];

    /// Short report label.
    pub fn label(self) -> &'static str {
        match self {
            Case::Poiseuille => "poiseuille",
            Case::TaylorGreen => "taylor-green",
            Case::Cavity => "cavity",
            Case::VonKarman => "von-karman",
        }
    }

    /// Name of the quantitative metric this case reports.
    pub fn metric(self) -> &'static str {
        match self {
            Case::Poiseuille => "profile_l2_error",
            Case::TaylorGreen => "dissipation_rel_error",
            Case::Cavity => "ghia_centerline_rms",
            Case::VonKarman => "strouhal",
        }
    }
}

/// The swept matrix: which cases, operators, schedules and kernel tiers
/// to combine.
pub struct MatrixSpec {
    /// Validation cases.
    pub cases: Vec<Case>,
    /// Collision operators.
    pub operators: Vec<Collision>,
    /// Driver schedules.
    pub schedules: Vec<Schedule>,
    /// Kernel/update-scheme tiers.
    pub kernels: Vec<KernelChoice>,
}

impl MatrixSpec {
    /// The reduced CI matrix: all four cases, SRT/TRT/MRT, the sync and
    /// overlapped schedules, default kernel tier.
    pub fn reduced() -> Self {
        MatrixSpec {
            cases: Case::ALL.to_vec(),
            operators: vec![Collision::Srt, Collision::Trt, Collision::Mrt],
            schedules: vec![Schedule::Sync, Schedule::Overlapped],
            kernels: vec![KernelChoice::Pull],
        }
    }

    /// The full matrix: four cases × four operators × four schedules ×
    /// both kernel tiers (slow; `--full`).
    pub fn full() -> Self {
        MatrixSpec {
            cases: Case::ALL.to_vec(),
            operators: Collision::ALL.to_vec(),
            schedules: Schedule::ALL.to_vec(),
            kernels: vec![KernelChoice::Pull, KernelChoice::InPlace],
        }
    }
}

/// One finished cell of the validation matrix.
pub struct CellOutcome {
    /// Case label.
    pub case: &'static str,
    /// Collision-operator label.
    pub operator: &'static str,
    /// Schedule label.
    pub schedule: &'static str,
    /// Kernel-tier label (as *requested*).
    pub kernel: &'static str,
    /// Update scheme the blocks ran (`"pull"` or `"inplace"`): every
    /// block, dense or carved, runs the one the scenario asks for.
    pub resolved_kernel: String,
    /// Metric name.
    pub metric: &'static str,
    /// Measured metric value.
    pub value: f64,
    /// Human-readable acceptance bound.
    pub threshold: String,
    /// Whether the value meets the bound.
    pub pass: bool,
    /// The scenario that ran (for VTK dumps of failed cells).
    pub scenario: Scenario,
    /// The raw run (PDF dump included), kept for failed-cell VTK dumps.
    pub run: RunResult,
}

impl CellOutcome {
    /// The cell as a JSON report row.
    pub fn row(&self) -> Value {
        json!({
            "case": self.case,
            "operator": self.operator,
            "schedule": self.schedule,
            "kernel": self.kernel,
            "resolved_kernel": self.resolved_kernel,
            "metric": self.metric,
            "value": self.value,
            "threshold": self.threshold,
            "pass": self.pass,
        })
    }
}

/// Macroscopic density and velocity reassembled from a run's PDF dump,
/// addressable by global cell coordinate, with each cell's fluid flag. Works
/// identically for every schedule because the dump is keyed by block id,
/// independent of final ownership.
pub struct MacroField {
    cells: [usize; 3],
    /// Per block (root coordinates, ordered so sums over blocks are
    /// deterministic): density, velocity and fluid flag of each interior
    /// cell.
    blocks: BTreeMap<[i64; 3], Vec<Moments>>,
}

impl MacroField {
    /// Reassembles the velocity field of `run` (which must have been
    /// driven with `collect_pdfs`) for a scenario on `num_procs` ranks.
    pub fn from_run(scenario: &Scenario, num_procs: u32, run: &RunResult) -> Self {
        let views = trillium_blockforest::distribute(&scenario.make_forest(num_procs));
        let blocks_of: HashMap<u64, _> =
            views.iter().flat_map(|v| &v.blocks).map(|lb| (lb.id.pack(), lb)).collect();
        let mut blocks = BTreeMap::new();
        for (id, vals) in run.pdf_dump() {
            let lb = blocks_of[&id];
            let flags = scenario.block_flags(lb);
            // Dump order matches `Shape::interior().iter()`: x fastest.
            let interior = flags.shape().interior();
            let cells = vals.chunks_exact(19).zip(interior.iter()).map(|(f, (x, y, z))| Moments {
                rho: density::<D3Q19>(f),
                u: velocity::<D3Q19>(f),
                fluid: flags.flags(x, y, z).is_fluid(),
            });
            blocks.insert(lb.coords, cells.collect());
        }
        MacroField { cells: scenario.cells, blocks }
    }

    /// Velocity at a global interior cell.
    pub fn velocity(&self, g: [i64; 3]) -> [f64; 3] {
        let c = self.cells.map(|n| n as i64);
        let bc: [i64; 3] = std::array::from_fn(|a| g[a].div_euclid(c[a]));
        let l: [usize; 3] = std::array::from_fn(|a| g[a].rem_euclid(c[a]) as usize);
        self.blocks[&bc][(l[2] * self.cells[1] + l[1]) * self.cells[0] + l[0]].u
    }

    /// The fluid cells of the cross-section `g[axis] == at` with their
    /// moments, block by block in root-coordinate order and x fastest
    /// within a block.
    pub fn section(&self, axis: usize, at: i64) -> Vec<([i64; 3], Moments)> {
        let c = self.cells.map(|n| n as i64);
        let mut out = Vec::new();
        for (bc, cells) in &self.blocks {
            if at.div_euclid(c[axis]) != bc[axis] {
                continue;
            }
            for (i, &m) in cells.iter().enumerate() {
                let l = [
                    i % self.cells[0],
                    i / self.cells[0] % self.cells[1],
                    i / self.cells[0] / self.cells[1],
                ];
                let g: [i64; 3] = std::array::from_fn(|a| bc[a] * c[a] + l[a] as i64);
                if m.fluid && g[axis] == at {
                    out.push((g, m));
                }
            }
        }
        out
    }

    /// Mass flux `Σ ρ u·n` through the cross-section `g[axis] == at`
    /// (`n` the unit normal along `axis`, one lattice cell of area per
    /// fluid cell): what a steady flow carries through every section
    /// alike. (`Σ u·n` is not conserved: the density falls along a
    /// pressure-driven vessel.)
    pub fn flux(&self, axis: usize, at: i64) -> f64 {
        self.section(axis, at).iter().map(|(_, m)| m.rho * m.u[axis]).sum()
    }
}

/// The moments of one cell of a [`MacroField`].
#[derive(Copy, Clone, Debug)]
pub struct Moments {
    /// Density.
    pub rho: f64,
    /// Velocity.
    pub u: [f64; 3],
    /// True for a fluid cell.
    pub fluid: bool,
}

/// Radius of [`tube_scenario`]'s vessel, in cells.
pub const TUBE_RADIUS: f64 = 6.0;
/// Length of [`tube_scenario`]'s straight part, in cells.
pub const TUBE_LENGTH: i64 = 32;
/// Speed of [`tube_scenario`]'s inlet cap wall.
pub const TUBE_INFLOW: f64 = 0.02;

/// Hagen–Poiseuille flow through the set-up pipeline's carved path.
///
/// A one-generation [`VascularTree`] without tortuosity or jitter is a
/// straight capsule along +z: radius [`TUBE_RADIUS`] cells, its straight
/// part [`TUBE_LENGTH`] cells long. [`setup_domain`] voxelises it into
/// 16³ blocks with the inlet cap a velocity wall (moving with
/// `(0, 0, TUBE_INFLOW)`) and the outlet cap a pressure wall, exactly as
/// it sets up the benchmark's tree. Every block is carved.
pub fn tube_scenario(viscosity: f64) -> Scenario {
    let dx = 0.25;
    let tree = VascularTree::generate(&VascularTreeParams {
        generations: 1,
        segments_per_branch: 1,
        tortuosity: 0.0,
        jitter: 0.0,
        root_radius: TUBE_RADIUS * dx,
        root_length: TUBE_LENGTH as f64 * dx,
        ..Default::default()
    });
    let inflow = [0.0, 0.0, TUBE_INFLOW];
    let balancer = Balancer::Morton;
    setup_domain("tube", Arc::new(tree), dx, [16; 3], 2, balancer, viscosity, inflow).scenario
}

/// What [`tube_flow`] measures.
#[derive(Copy, Clone, Debug)]
pub struct TubeFlow {
    /// Mass flux `Σ ρ u_z` through the cross-sections at a quarter, half and
    /// three quarters of the straight part.
    pub fluxes: [f64; 3],
    /// `(max − min) / |mean|` of `fluxes`.
    pub flux_mismatch: f64,
    /// Relative L2 deviation of the mid-tube `u_z(r)` from the parabola
    /// `a (1 − r²/R²)` with the same mean, `R` the radius of a disc of
    /// the section's area and `r` a cell centre's distance from the axis.
    pub profile_error: f64,
}

/// Runs [`tube_scenario`] on 2 ranks for `steps` steps and measures the
/// flux balance and the mid-tube profile.
pub fn tube_flow(scenario: &Scenario, steps: u64, sched: Schedule) -> TubeFlow {
    let run = drive_on(2, scenario, steps, None, sched);
    assert!(!run.has_nan(), "tube run diverged");
    let field = MacroField::from_run(scenario, 2, &run);
    // The capsule's axis runs through the centre of the cell box around
    // it, which starts one radius before the straight part.
    let (axis, start) = (TUBE_RADIUS - 0.5, TUBE_RADIUS as i64);
    let at = |quarter: i64| start + quarter * TUBE_LENGTH / 4;
    let fluxes = [1, 2, 3].map(|q| field.flux(2, at(q)));
    let mean = fluxes.iter().sum::<f64>() / 3.0;
    let spread = fluxes.iter().fold(f64::MIN, |m, &f| m.max(f))
        - fluxes.iter().fold(f64::MAX, |m, &f| m.min(f));
    let section = field.section(2, at(2));
    let big_r2 = section.len() as f64 / std::f64::consts::PI;
    let shape: Vec<f64> = section
        .iter()
        .map(|(g, _)| 1.0 - ((g[0] as f64 - axis).powi(2) + (g[1] as f64 - axis).powi(2)) / big_r2)
        .collect();
    let a = section.iter().map(|(_, m)| m.u[2]).sum::<f64>() / shape.iter().sum::<f64>();
    let (mut err, mut norm) = (0.0, 0.0);
    for ((_, m), s) in section.iter().zip(&shape) {
        err += (m.u[2] - a * s).powi(2);
        norm += (a * s).powi(2);
    }
    TubeFlow { fluxes, flux_mismatch: spread / mean.abs(), profile_error: (err / norm).sqrt() }
}

/// Relative L2 deviation of a channel profile from its best-fit parabola
/// `a·y(H−y)` (walls half a cell outside the first/last sample). Zero
/// for a perfectly parabolic profile regardless of amplitude.
pub fn parabola_l2_error(profile: &[f64]) -> f64 {
    let h = profile.len() as f64;
    let phi: Vec<f64> = (0..profile.len())
        .map(|i| {
            let yc = i as f64 + 0.5;
            yc * (h - yc)
        })
        .collect();
    let num: f64 = profile.iter().zip(&phi).map(|(u, p)| u * p).sum();
    let den: f64 = phi.iter().map(|p| p * p).sum();
    let a = num / den;
    let err: f64 = profile.iter().zip(&phi).map(|(u, p)| (u - a * p).powi(2)).sum();
    let norm: f64 = profile.iter().map(|u| u * u).sum();
    (err / norm).sqrt()
}

/// Viscosity measured from the Taylor–Green kinetic-energy decay
/// `E(T) = E(0)·e^{−4νk²T}` over `steps` time steps.
pub fn measured_viscosity(e0: f64, e1: f64, k: f64, steps: u64) -> f64 {
    -(e1 / e0).ln() / (4.0 * k * k * steps as f64)
}

/// RMS of a cavity centerline profile against the Ghia Re = 100 table.
/// `profile[z]` is `u_x` at the vertical centerline cell centers,
/// normalized by the lid velocity; walls/lid values are pinned at 0/1.
pub fn ghia_rms(profile: &[f64]) -> f64 {
    let n = profile.len();
    // Piecewise-linear samples: wall (0,0), cell centers, lid (1,1).
    let at = |pos: f64| -> f64 {
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(n + 2);
        pts.push((0.0, 0.0));
        for (i, u) in profile.iter().enumerate() {
            pts.push(((i as f64 + 0.5) / n as f64, *u));
        }
        pts.push((1.0, 1.0));
        for w in pts.windows(2) {
            if pos >= w[0].0 && pos <= w[1].0 {
                let f = (pos - w[0].0) / (w[1].0 - w[0].0);
                return w[0].1 + f * (w[1].1 - w[0].1);
            }
        }
        *profile.last().unwrap()
    };
    let sq: f64 = GHIA_U_RE100.iter().map(|&(y, u)| (at(y) - u).powi(2)).sum();
    (sq / GHIA_U_RE100.len() as f64).sqrt()
}

/// Strouhal number from the per-step lift signal: the shedding frequency
/// is taken from upward mean crossings (linearly interpolated) of the
/// signal, `St = f·D/U`. `None` when fewer than two crossings exist (no
/// established shedding).
pub fn strouhal_from_lift(lift: &[f64], diameter: f64, inflow: f64) -> Option<f64> {
    if lift.len() < 16 {
        return None;
    }
    let mean = lift.iter().sum::<f64>() / lift.len() as f64;
    let mut crossings: Vec<f64> = Vec::new();
    for i in 1..lift.len() {
        let (a, b) = (lift[i - 1] - mean, lift[i] - mean);
        if a < 0.0 && b >= 0.0 {
            crossings.push((i - 1) as f64 + a / (a - b));
        }
    }
    if crossings.len() < 2 {
        return None;
    }
    let period = (crossings[crossings.len() - 1] - crossings[0]) / (crossings.len() - 1) as f64;
    Some(diameter / (inflow * period))
}

/// The update scheme the blocks of `scenario` run (`"pull"` or
/// `"inplace"`): the one it asks for, on dense and carved blocks alike.
pub fn resolved_kernel(scenario: &Scenario) -> String {
    scenario.kernel.label().to_string()
}

/// Whether a case × operator combination is part of the matrix. The von
/// Kármán case runs only with the MRT family: at the CI resolution
/// (D = 8 cells, ν = 0.008, τ_e ≈ 0.524) both SRT and magic-TRT diverge
/// within a few hundred steps of the impulsive start, while MRT's
/// ghost-mode damping keeps the run stable — the exact contrast pinned
/// by `tests/mrt_equivalence.rs`, not a validation failure.
pub fn is_supported(case: Case, op: Collision) -> bool {
    case != Case::VonKarman || op.is_mrt()
}

/// Drives `scenario` for `steps` under one schedule, collecting the PDF
/// dump and (optionally) the masked force series.
pub fn drive(
    scenario: &Scenario,
    steps: u64,
    force_mask: Option<CellFlags>,
    sched: Schedule,
) -> RunResult {
    drive_on(NUM_PROCS, scenario, steps, force_mask, sched)
}

/// [`drive`] on `num_procs` ranks.
pub fn drive_on(
    num_procs: u32,
    scenario: &Scenario,
    steps: u64,
    force_mask: Option<CellFlags>,
    sched: Schedule,
) -> RunResult {
    let cfg = RunConfig {
        driver: DriverConfig {
            overlap: sched == Schedule::Overlapped,
            collect_pdfs: true,
            obs: ObsConfig::off(),
            force_mask,
        },
        rebalance: (sched == Schedule::Rebalanced).then(RebalanceConfig::default),
        resilience: (sched == Schedule::Resilient).then(ResilienceConfig::default),
    };
    run_distributed_composed(scenario, num_procs, 1, steps, &[], &cfg)
        .unwrap_or_else(|e| panic!("unfaulted {} run failed: {e}", sched.label()))
}

/// Runs one cell of the validation matrix and judges it against the
/// case's acceptance threshold.
pub fn run_cell(case: Case, op: Collision, sched: Schedule, kernel: KernelChoice) -> CellOutcome {
    let (scenario, steps, value, threshold, pass, run) = match case {
        Case::Poiseuille => {
            // L = 3H so the mid-channel probe sits a full channel height
            // past the uniform-density inlet's development zone.
            let steps = 8000;
            let scenario = Scenario::poiseuille([96, 32, 2], [2, 2, 2], 0.1, 0.015)
                .with_collision(op)
                .with_kernel(kernel);
            let run = drive(&scenario, steps, None, sched);
            let field = MacroField::from_run(&scenario, NUM_PROCS, &run);
            let profile: Vec<f64> = (0..32).map(|y| field.velocity([48, y, 0])[0]).collect();
            let value = parabola_l2_error(&profile);
            (scenario, steps, value, "< 1e-3".to_string(), value < 1e-3, run)
        }
        Case::TaylorGreen => {
            let (n, nu, steps) = (32usize, 0.02, 200u64);
            let scenario =
                Scenario::taylor_green(n, 2, nu, 0.05).with_collision(op).with_kernel(kernel);
            let run = drive(&scenario, steps, None, sched);
            let k = 2.0 * std::f64::consts::PI / n as f64;
            let nu_meas = measured_viscosity(
                run.kinetic_energy_initial(),
                run.kinetic_energy_final(),
                k,
                steps,
            );
            let value = (nu_meas - nu).abs() / nu;
            (scenario, steps, value, "< 0.05".to_string(), value < 0.05, run)
        }
        Case::Cavity => {
            let (n, u_lid, steps) = (32usize, 0.1, 6000u64);
            // Re = u_lid·n/ν = 100.
            let scenario = Scenario::lid_driven_cavity_2d(n, 2, u_lid * n as f64 / 100.0, u_lid)
                .with_collision(op)
                .with_kernel(kernel);
            let run = drive(&scenario, steps, None, sched);
            let field = MacroField::from_run(&scenario, NUM_PROCS, &run);
            // Vertical centerline: average the two columns straddling the
            // geometric center x = n/2.
            let ni = n as i64;
            let profile: Vec<f64> = (0..ni)
                .map(|z| {
                    let a = field.velocity([ni / 2 - 1, 0, z])[0];
                    let b = field.velocity([ni / 2, 0, z])[0];
                    0.5 * (a + b) / u_lid
                })
                .collect();
            let value = ghia_rms(&profile);
            (scenario, steps, value, "< 5e-2".to_string(), value < 5e-2, run)
        }
        Case::VonKarman => {
            let (diameter, inflow, steps) = (8.0, 0.1, 6000u64);
            // Re = U·D/ν = 100; 12.5% blockage.
            let scenario = Scenario::von_karman(
                [128, 64, 2],
                [2, 2, 2],
                inflow * diameter / 100.0,
                inflow,
                diameter,
            )
            .with_collision(op)
            .with_kernel(kernel);
            let run = drive(&scenario, steps, Some(CellFlags::OBSTACLE), sched);
            let lift: Vec<f64> = run.force_series().iter().map(|f| f[1]).collect();
            // Discard the transient; measure on the second half.
            let window = &lift[lift.len() / 2..];
            let value = strouhal_from_lift(window, diameter, inflow).unwrap_or(f64::NAN);
            let pass = value.is_finite() && (0.15..=0.20).contains(&value);
            (scenario, steps, value, "in [0.15, 0.20]".to_string(), pass, run)
        }
    };
    let _ = steps;
    CellOutcome {
        case: case.label(),
        operator: op.label(),
        schedule: sched.label(),
        kernel: kernel.label(),
        resolved_kernel: resolved_kernel(&scenario),
        metric: case.metric(),
        value,
        threshold,
        pass,
        scenario,
        run,
    }
}

/// Writes the macroscopic fields of every block of a failed cell as
/// legacy-VTK files (`<stem>_block<i>.vtk` under `dir`), reconstructing
/// block state from the run's PDF dump. Returns the written paths.
pub fn dump_failed_vtk(
    scenario: &Scenario,
    run: &RunResult,
    dir: &std::path::Path,
    stem: &str,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    use trillium_field::PdfField;
    std::fs::create_dir_all(dir)?;
    let forest = scenario.make_forest(1);
    let views = trillium_blockforest::distribute(&forest);
    let dump: HashMap<u64, Vec<f64>> = run.pdf_dump().into_iter().collect();
    let mut written = Vec::new();
    for (i, lb) in views[0].blocks.iter().enumerate() {
        let mut block = scenario.build_block(lb);
        if let Some(vals) = dump.get(&lb.id.pack()) {
            let mut cell = [0.0; 19];
            for ((x, y, z), f) in block.shape.interior().iter().zip(vals.chunks_exact(19)) {
                cell.copy_from_slice(f);
                block.src.set_cell(x, y, z, &cell);
            }
        }
        let path = dir.join(format!("{stem}_block{i}.vtk"));
        trillium_core::output::write_vtk_file(
            &path,
            &block,
            [lb.aabb.min.x, lb.aabb.min.y, lb.aabb.min.z],
            1.0,
        )?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hagen–Poiseuille through a voxelised tube on 2 ranks, every one
    /// of its 16³ blocks carved. After 1000 steps the box-storage code
    /// measured a mass-flux mismatch of 3.8e-5 between the quarter, half
    /// and three-quarter sections and a mid-tube profile 2.96 % (L2) off
    /// the parabola; the thresholds sit just above those. Pull and in
    /// place, synchronous and overlapped, measure the same flow bit for
    /// bit.
    #[test]
    fn hagen_poiseuille_in_a_voxelised_tube() {
        let flow = tube_flow(&tube_scenario(0.2), 1000, Schedule::Sync);
        assert!(flow.fluxes.iter().all(|&f| f > 2.0), "{flow:?}");
        assert!(flow.flux_mismatch < 1e-4, "{flow:?}");
        assert!(flow.profile_error < 0.031, "{flow:?}");
        let bits = |f: TubeFlow| {
            let TubeFlow { fluxes, flux_mismatch, profile_error } = f;
            [fluxes[0], fluxes[1], fluxes[2], flux_mismatch, profile_error].map(f64::to_bits)
        };
        for kernel in [KernelChoice::Pull, KernelChoice::InPlace] {
            for sched in [Schedule::Sync, Schedule::Overlapped] {
                if (kernel, sched) == (KernelChoice::InPlace, Schedule::Sync) {
                    continue; // `flow` above: the default scheme
                }
                let other = tube_flow(&tube_scenario(0.2).with_kernel(kernel), 1000, sched);
                assert_eq!(bits(other), bits(flow), "{kernel:?} {sched:?}: {other:?}");
            }
        }
    }

    #[test]
    fn parabola_error_vanishes_for_exact_parabola() {
        let h = 16.0;
        let profile: Vec<f64> =
            (0..16).map(|i| 0.03 * (i as f64 + 0.5) * (h - i as f64 - 0.5)).collect();
        assert!(parabola_l2_error(&profile) < 1e-14);
        // A linear shear profile is far from parabolic.
        let shear: Vec<f64> = (0..16).map(|i| 0.01 * i as f64).collect();
        assert!(parabola_l2_error(&shear) > 0.1);
    }

    #[test]
    fn measured_viscosity_inverts_the_decay_law() {
        let (nu, k, steps) = (0.03, 0.2, 150u64);
        let e0 = 1.7;
        let e1 = e0 * (-4.0 * nu * k * k * steps as f64).exp();
        assert!((measured_viscosity(e0, e1, k, steps) - nu).abs() < 1e-12);
    }

    #[test]
    fn ghia_rms_is_zero_against_itself() {
        // Sample the Ghia table itself onto a fine grid: RMS must be tiny.
        let n = 256;
        let interp = |pos: f64| -> f64 {
            for w in GHIA_U_RE100.windows(2) {
                if pos >= w[0].0 && pos <= w[1].0 {
                    let f = (pos - w[0].0) / (w[1].0 - w[0].0);
                    return w[0].1 + f * (w[1].1 - w[0].1);
                }
            }
            1.0
        };
        let profile: Vec<f64> = (0..n).map(|i| interp((i as f64 + 0.5) / n as f64)).collect();
        assert!(ghia_rms(&profile) < 5e-3);
    }

    /// The job service must accept exactly the case × operator
    /// combinations the validation matrix runs: a spec the service admits
    /// but validation skips (or vice versa) means the two rule copies
    /// drifted apart.
    #[test]
    fn jobs_spec_rule_matches_is_supported() {
        for op in Collision::ALL {
            let doc = format!(
                r#"{{"name": "x", "family": "von-karman", "collision": "{}", "cells": 8}}"#,
                op.label()
            );
            assert_eq!(
                trillium_jobs::JobSpec::parse(&doc).is_ok(),
                is_supported(Case::VonKarman, op),
                "von Kármán rule drifted for operator {}",
                op.label()
            );
            let doc =
                format!(r#"{{"name": "x", "family": "cavity", "collision": "{}"}}"#, op.label());
            assert!(trillium_jobs::JobSpec::parse(&doc).is_ok());
            assert!(is_supported(Case::Cavity, op));
        }
    }

    /// Dense scenarios resolve the requested kernel as-is; the label the
    /// report carries must reflect the resolution, not the request.
    #[test]
    fn resolved_kernel_reflects_dense_resolution() {
        let cavity = || Scenario::lid_driven_cavity(16, 2, 0.05, 0.08);
        assert_eq!(resolved_kernel(&cavity().with_kernel(KernelChoice::Pull)), "pull");
        assert_eq!(resolved_kernel(&cavity().with_kernel(KernelChoice::InPlace)), "inplace");
    }

    #[test]
    fn strouhal_recovers_a_synthetic_shedding_frequency() {
        // St = f·D/U with f = 1/500 steps, D = 8, U = 0.1 → St = 0.16.
        let lift: Vec<f64> = (0..4000)
            .map(|t| 0.002 * (2.0 * std::f64::consts::PI * t as f64 / 500.0).sin() + 1e-4)
            .collect();
        let st = strouhal_from_lift(&lift, 8.0, 0.1).unwrap();
        assert!((st - 0.16).abs() < 0.005, "St {st}");
        // A flat signal yields no crossings.
        assert_eq!(strouhal_from_lift(&vec![0.5; 4000], 8.0, 0.1), None);
    }
}
