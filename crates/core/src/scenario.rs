//! Scenario builders: the paper's benchmark problems.
//!
//! * **Lid-driven cavity** and **channel flow around an obstacle** — the
//!   two weak-scaling scenarios of §4.2 ("the lid-driven cavity problem
//!   and channel flow around a fixed obstacle with an obstacle to fluid
//!   ratio of less than 1 %").
//! * **Signed-distance domains** — arbitrary complex geometries (tube,
//!   vascular tree) voxelized per block with colored boundary conditions,
//!   the §4.3 configuration.

use crate::blocksim::{boxed_block_flags, BlockSim, UpdateScheme};
use crate::loadbalance::Balancer;
use std::sync::Arc;
use trillium_blockforest::{LocalBlock, SetupForest};
use trillium_field::{CellFlags, FlagField, FlagOps, Shape};
use trillium_geometry::vec3::vec3;
use trillium_geometry::voxelize::{voxelize_block, VoxelizeConfig};
use trillium_geometry::{Aabb, SignedDistance, Vec3};
use trillium_kernels::{BackendKind, BoundaryParams, Collision};
use trillium_lattice::Relaxation;

/// The update scheme a scenario runs on every block, dense or carved (see
/// [`Scenario::with_kernel`]). Unless a scenario asks otherwise it is
/// `UpdateScheme::default()`, in place.
pub type KernelChoice = UpdateScheme;

/// A complete simulation scenario: domain, discretization, physics.
pub struct Scenario {
    /// Scenario name for reports.
    pub name: String,
    /// Block grid dimensions (root blocks per axis); for SDF domains the
    /// candidate root grid around the geometry, of which the forest keeps
    /// the blocks that hold fluid.
    pub blocks: [usize; 3],
    /// Cells per block per axis.
    pub cells: [usize; 3],
    /// Collision parameters.
    pub relaxation: Relaxation,
    /// Boundary parameters shared by all blocks.
    pub boundary: BoundaryParams,
    /// Initial density.
    pub rho0: f64,
    /// Initial velocity.
    pub u0: [f64; 3],
    /// Static balancer used by [`Scenario::make_forest`].
    pub balance: Balancer,
    /// Kernel/update-scheme choice for the blocks.
    pub kernel: KernelChoice,
    /// Collision operator stamped onto every block (scenario-global, like
    /// the boundary parameters).
    pub collision: Collision,
    /// Compute backend stamped onto every block (scenario-global; see
    /// [`trillium_kernels::BackendKind`]). All backends are bitwise
    /// identical, so the choice affects cost, not results.
    pub backend: BackendKind,
    /// Per-axis domain periodicity. Periodic axes carry no walls: block
    /// links wrap around the root grid (each periodic axis needs at least
    /// two blocks), and ghost exchange closes the domain.
    pub periodic: [bool; 3],
    kind: Kind,
}

enum Kind {
    Cavity,
    Channel {
        /// Obstacle center in global cell coordinates.
        center: [f64; 3],
        /// Obstacle radius in cells (0 = no obstacle).
        radius: f64,
    },
    Domain {
        sdf: Arc<dyn SignedDistance>,
        config: VoxelizeConfig,
        dx: f64,
        /// The unbalanced forest: the one classification of the domain,
        /// made by [`Scenario::from_sdf`].
        forest: SetupForest,
    },
    TaylorGreen {
        /// Velocity amplitude of the initial vortex array.
        amplitude: f64,
    },
    Poiseuille,
    VonKarman {
        /// Cylinder center in global cell coordinates (x, y); the axis
        /// runs along the (periodic) z direction.
        center: [f64; 2],
        /// Cylinder radius in cells.
        radius: f64,
    },
}

impl Scenario {
    /// Lid-driven cavity: a cubic box of `n³` cells split into `b³`
    /// blocks; all walls no-slip except the +z lid moving with
    /// `lid_velocity` in x. `viscosity` is the lattice viscosity.
    pub fn lid_driven_cavity(n: usize, b: usize, viscosity: f64, lid_velocity: f64) -> Self {
        Self::base(
            format!("lid-driven cavity {n}^3 ({b}^3 blocks)"),
            [b; 3],
            per_block([n; 3], [b; 3]),
            viscosity,
            BoundaryParams { wall_velocity: [lid_velocity, 0.0, 0.0], ..Default::default() },
            [false; 3],
            Kind::Cavity,
        )
    }

    /// Quasi-2-D lid-driven cavity for comparison against the Ghia, Ghia
    /// & Shin (1982) reference data: an `n × span × n` box (x–z plane of
    /// interest, thin periodic spanwise y) split into `b × 2 × b` blocks,
    /// lid at +z moving in x. With no spanwise walls the flow is exactly
    /// two-dimensional.
    pub fn lid_driven_cavity_2d(n: usize, b: usize, viscosity: f64, lid_velocity: f64) -> Self {
        assert!(n % b == 0, "cells must divide evenly into blocks");
        let mut s = Self::lid_driven_cavity(n, b, viscosity, lid_velocity);
        s.name = format!("lid-driven cavity 2d {n}^2 ({b}^2 blocks)");
        s.blocks = [b, 2, b];
        s.cells = [n / b, 2, n / b];
        s.periodic = [false, true, false];
        s
    }

    /// Channel flow along x with a spherical obstacle in the center:
    /// velocity inflow at −x, pressure outflow at +x, no-slip side walls.
    /// `nx × ny × nz` cells in `bx × by × bz` blocks; the obstacle radius
    /// is `radius_frac` of the channel height (0 disables it; the paper
    /// uses an obstacle-to-fluid ratio below 1 %).
    #[allow(clippy::too_many_arguments)]
    pub fn channel_with_obstacle(
        n: [usize; 3],
        b: [usize; 3],
        viscosity: f64,
        inflow: f64,
        radius_frac: f64,
    ) -> Self {
        let radius = radius_frac * n[1] as f64;
        Self::base(
            format!("channel {}x{}x{} obstacle r={radius:.1}", n[0], n[1], n[2]),
            b,
            per_block(n, b),
            viscosity,
            BoundaryParams { wall_velocity: [inflow, 0.0, 0.0], ..Default::default() },
            [false; 3],
            Kind::Channel { center: n.map(|c| c as f64 / 2.0), radius },
        )
    }

    /// Taylor–Green vortex: a fully periodic `n × n × span` box seeded
    /// with the 2-D vortex array `u = A(cos kx sin ky, −sin kx cos ky, 0)`
    /// (z-invariant), `k = 2π/n`. The kinetic energy decays analytically
    /// as `E(t) = E(0) e^{−4νk²t}`, which pins the effective viscosity of
    /// the whole stack — the dissipation-rate validation case.
    pub fn taylor_green(n: usize, b: usize, viscosity: f64, amplitude: f64) -> Self {
        assert!(b >= 2, "periodic axes need >= 2 blocks");
        Self::base(
            format!("taylor-green {n}^2 ({b}^2 blocks)"),
            [b, b, 2],
            per_block([n, n, 4], [b, b, 2]),
            viscosity,
            BoundaryParams::default(),
            [true; 3],
            Kind::TaylorGreen { amplitude },
        )
    }

    /// Pressure-driven plane Poiseuille flow: fixed densities
    /// `rho0 ± Δρ/2` on the −x/+x faces, no-slip walls at ±y, periodic
    /// spanwise z. The steady profile across y is the parabola
    /// `u_x(y) ∝ y (H − y)` — the profile-shape validation case.
    pub fn poiseuille(n: [usize; 3], b: [usize; 3], viscosity: f64, delta_rho: f64) -> Self {
        assert!(b[2] >= 2, "periodic spanwise axis needs >= 2 blocks");
        Self::base(
            format!("poiseuille {}x{}x{} drho={delta_rho:.3}", n[0], n[1], n[2]),
            b,
            per_block(n, b),
            viscosity,
            BoundaryParams {
                pressure_density: 1.0 + 0.5 * delta_rho,
                pressure_density_alt: 1.0 - 0.5 * delta_rho,
                ..Default::default()
            },
            [false, false, true],
            Kind::Poiseuille,
        )
    }

    /// Von Kármán vortex street: flow past a circular cylinder spanning
    /// the (periodic) z axis of an `n[0] × n[1] × n[2]` channel. Velocity
    /// inflow at −x, pressure outflow at +x, no-slip walls at ±y; the
    /// cylinder of the given `diameter` sits a quarter length downstream,
    /// slightly off-center in y to trigger the instability. Cylinder
    /// cells are tagged `OBSTACLE | NOSLIP` so the lift signal can be
    /// measured on the cylinder alone — its oscillation frequency gives
    /// the Strouhal number.
    pub fn von_karman(
        n: [usize; 3],
        b: [usize; 3],
        viscosity: f64,
        inflow: f64,
        diameter: f64,
    ) -> Self {
        assert!(b[2] >= 2, "periodic spanwise axis needs >= 2 blocks");
        let mut s = Self::base(
            format!("von-karman {}x{}x{} d={diameter:.1}", n[0], n[1], n[2]),
            b,
            per_block(n, b),
            viscosity,
            BoundaryParams { wall_velocity: [inflow, 0.0, 0.0], ..Default::default() },
            [false, false, true],
            Kind::VonKarman {
                // Off-center by half a cell: a deliberate asymmetry that
                // seeds the vortex shedding instability.
                center: [n[0] as f64 / 4.0, n[1] as f64 / 2.0 + 0.5],
                radius: diameter / 2.0,
            },
        );
        s.u0 = [inflow, 0.0, 0.0];
        s
    }

    /// A complex-geometry scenario from a signed-distance domain: blocks
    /// are voxelized against `sdf` with `config` mapping surface colors to
    /// boundary conditions; `inflow`/`outflow_rho` fill the boundary
    /// parameters. Classifies the domain into blocks here, once; every
    /// [`Scenario::make_forest`] starts from that forest.
    pub fn from_sdf(
        name: &str,
        sdf: Arc<dyn SignedDistance>,
        dx: f64,
        cells_per_block: [usize; 3],
        viscosity: f64,
        inflow: [f64; 3],
        outflow_rho: f64,
        config: VoxelizeConfig,
    ) -> Self {
        let forest = SetupForest::from_domain(sdf.as_ref(), dx, cells_per_block);
        Self::base(
            name.to_string(),
            forest.roots,
            cells_per_block,
            viscosity,
            BoundaryParams {
                wall_velocity: inflow,
                pressure_density: outflow_rho,
                ..Default::default()
            },
            [false; 3],
            Kind::Domain { sdf, config, dx, forest },
        )
    }

    /// What every constructor shares: TRT relaxation at `viscosity`, unit
    /// density at rest, Morton balance, the default update scheme (in
    /// place, on every block), the default backend.
    fn base(
        name: String,
        blocks: [usize; 3],
        cells: [usize; 3],
        viscosity: f64,
        boundary: BoundaryParams,
        periodic: [bool; 3],
        kind: Kind,
    ) -> Self {
        Scenario {
            name,
            blocks,
            cells,
            relaxation: Relaxation::trt_from_viscosity(viscosity),
            boundary,
            rho0: 1.0,
            u0: [0.0; 3],
            balance: Balancer::Morton,
            kernel: UpdateScheme::default(),
            collision: Collision::Trt,
            backend: BackendKind::default(),
            periodic,
            kind,
        }
    }

    /// The setup forest balanced onto `num_procs` processes by
    /// [`Scenario::balance`] — the forest a run of this scenario is
    /// planned from.
    pub fn make_forest(&self, num_procs: u32) -> SetupForest {
        let mut forest = match &self.kind {
            Kind::Domain { forest, .. } => forest.clone(),
            _ => {
                let [x, y, z] = self.global_cells().map(|n| n as f64);
                SetupForest::uniform(Aabb::new(Vec3::ZERO, vec3(x, y, z)), self.blocks, self.cells)
                    .with_periodic(self.periodic)
            }
        };
        self.balance.apply(&mut forest, num_procs);
        forest
    }

    /// Selects the static balancer.
    pub fn with_balancer(mut self, balance: Balancer) -> Self {
        self.balance = balance;
        self
    }

    /// [`Balancer::Skewed`] by its fraction.
    pub fn with_skewed_balance(self, fraction: f64) -> Self {
        self.with_balancer(Balancer::Skewed(fraction))
    }

    /// Selects the PDF update scheme built into every block (see
    /// [`KernelChoice`]); in place unless this asks for
    /// [`KernelChoice::Pull`], the bitwise reference. Carved blocks run it
    /// too, over their row intervals on their row store: one scheme per
    /// run, never resolved per block.
    pub fn with_kernel(mut self, kernel: KernelChoice) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the collision operator stamped onto every block.
    ///
    /// The scenario constructors parameterize the TRT pair via the magic
    /// combination; `Collision::Srt` collapses it to equal rates at the
    /// same viscosity (TRT with `λ_o = λ_e` *is* SRT), so the operator
    /// choice alone decides the physics, not the constructor used.
    pub fn with_collision(mut self, collision: Collision) -> Self {
        if collision == Collision::Srt {
            self.relaxation = Relaxation::srt_from_tau(-1.0 / self.relaxation.lambda_e);
        }
        self.collision = collision;
        self
    }

    /// Selects the compute backend stamped onto every block. Backends are
    /// bitwise equivalent; pick [`BackendKind::Workgroup`] to exercise
    /// the GPU-style execution shape, [`BackendKind::Portable`] to pin
    /// the kernels compiled for the baseline instruction set.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Global cell coordinates of a block's origin.
    fn block_origin(&self, lb: &LocalBlock) -> [i64; 3] {
        [
            lb.coords[0] * self.cells[0] as i64,
            lb.coords[1] * self.cells[1] as i64,
            lb.coords[2] * self.cells[2] as i64,
        ]
    }

    /// Finishes block construction: builds the sim from the flag field
    /// under the requested update scheme and stamps the scenario-global
    /// collision operator and backend onto it.
    fn finish_block(&self, flags: FlagField) -> BlockSim {
        let mut sim =
            BlockSim::from_flags_with_scheme(flags, self.boundary, self.rho0, self.u0, self.kernel);
        self.stamp(&mut sim);
        sim
    }

    /// Stamps the scenario-global collision operator and backend onto a
    /// block. Neither travels in the block wire format, so every block
    /// rebuilt from bytes (migration, checkpoint restore) is re-stamped.
    pub(crate) fn stamp(&self, sim: &mut BlockSim) {
        sim.collision = self.collision;
        sim.backend = self.backend;
    }

    /// The flag field of one local block: its cells, ghost layer
    /// included, classified by the scenario's geometry and borders.
    pub fn block_flags(&self, lb: &LocalBlock) -> FlagField {
        let shape = Shape::new(self.cells[0], self.cells[1], self.cells[2], 1);
        let border = self.border_faces(lb);
        let faces = |walls: [CellFlags; 6]| {
            boxed_block_flags(shape, std::array::from_fn(|i| border[i].then_some(walls[i])))
        };
        use CellFlags as F;
        match &self.kind {
            // Moving lid at +z.
            Kind::Cavity => {
                faces([F::NOSLIP, F::NOSLIP, F::NOSLIP, F::NOSLIP, F::NOSLIP, F::VELOCITY])
            }
            Kind::Channel { center, radius } => {
                // Inflow at −x, outflow at +x.
                let mut flags =
                    faces([F::VELOCITY, F::PRESSURE, F::NOSLIP, F::NOSLIP, F::NOSLIP, F::NOSLIP]);
                // Carve the obstacle: cells whose global center lies in
                // the sphere become no-slip solid.
                if *radius > 0.0 {
                    let origin = self.block_origin(lb);
                    for (x, y, z) in shape.with_ghosts().iter() {
                        let gx = (origin[0] + x as i64) as f64 + 0.5;
                        let gy = (origin[1] + y as i64) as f64 + 0.5;
                        let gz = (origin[2] + z as i64) as f64 + 0.5;
                        let d2 = (gx - center[0]).powi(2)
                            + (gy - center[1]).powi(2)
                            + (gz - center[2]).powi(2);
                        if d2 < radius * radius {
                            flags.set_flags(x, y, z, F::NOSLIP);
                        }
                    }
                }
                flags
            }
            Kind::Domain { sdf, config, dx, .. } => {
                voxelize_block(sdf.as_ref(), lb.aabb.min, *dx, shape, config)
            }
            // Fully periodic: every cell (ghosts included) is fluid.
            Kind::TaylorGreen { .. } => boxed_block_flags(shape, [None; 6]),
            // High-ρ inlet at −x, low-ρ outlet at +x; spanwise z is
            // periodic.
            Kind::Poiseuille => boxed_block_flags(
                shape,
                [
                    border[0].then_some(F::PRESSURE),
                    border[1].then_some(F::PRESSURE_ALT),
                    border[2].then_some(F::NOSLIP),
                    border[3].then_some(F::NOSLIP),
                    None,
                    None,
                ],
            ),
            Kind::VonKarman { center, radius } => {
                // Inflow at −x, outflow at +x; spanwise z is periodic.
                let mut flags = boxed_block_flags(
                    shape,
                    [
                        border[0].then_some(F::VELOCITY),
                        border[1].then_some(F::PRESSURE),
                        border[2].then_some(F::NOSLIP),
                        border[3].then_some(F::NOSLIP),
                        None,
                        None,
                    ],
                );
                // Carve the cylinder (axis along z): tagged with the
                // OBSTACLE marker so force probes can isolate it from the
                // channel walls.
                let origin = self.block_origin(lb);
                let wall = CellFlags(F::OBSTACLE.0 | F::NOSLIP.0);
                for (x, y, z) in shape.with_ghosts().iter() {
                    let gx = (origin[0] + x as i64) as f64 + 0.5;
                    let gy = (origin[1] + y as i64) as f64 + 0.5;
                    let d2 = (gx - center[0]).powi(2) + (gy - center[1]).powi(2);
                    if d2 < radius * radius {
                        flags.set_flags(x, y, z, wall);
                    }
                }
                flags
            }
        }
    }

    /// Builds the simulation state of one local block: the block of its
    /// [`Scenario::block_flags`], at the scenario's initial state.
    pub fn build_block(&self, lb: &LocalBlock) -> BlockSim {
        let mut sim = self.finish_block(self.block_flags(lb));
        let origin = self.block_origin(lb);
        match &self.kind {
            Kind::TaylorGreen { amplitude } => {
                let n = self.global_cells();
                let kx = 2.0 * std::f64::consts::PI / n[0] as f64;
                let ky = 2.0 * std::f64::consts::PI / n[1] as f64;
                let (a, rho0) = (*amplitude, self.rho0);
                sim.init_equilibrium_with(|x, y, _z| {
                    let gx = kx * ((origin[0] + x as i64) as f64 + 0.5);
                    let gy = ky * ((origin[1] + y as i64) as f64 + 0.5);
                    let u = [a * gx.cos() * gy.sin(), -a * gx.sin() * gy.cos(), 0.0];
                    // Consistent pressure field p = −¼ρ₀A²(cos 2kx +
                    // cos 2ky), mapped to density via ρ = ρ₀ + p/c_s².
                    let rho = rho0 * (1.0 - 0.75 * a * a * ((2.0 * gx).cos() + (2.0 * gy).cos()));
                    (rho, u)
                });
            }
            Kind::VonKarman { .. } => {
                // Seed a small transverse perturbation so the wake's
                // antisymmetric instability grows from a deterministic
                // O(ε) amplitude: the unperturbed base flow is symmetric
                // up to round-off and can fail to shed within any
                // reasonable step budget.
                let lx = (self.blocks[0] * self.cells[0]) as f64;
                let eps = 0.05 * self.u0[0];
                let (rho0, ux) = (self.rho0, self.u0[0]);
                sim.init_equilibrium_with(|x, _y, _z| {
                    let gx = (origin[0] + x as i64) as f64 + 0.5;
                    let uy = eps * (2.0 * std::f64::consts::PI * gx / lx).sin();
                    (rho0, [ux, uy, 0.0])
                });
            }
            _ => {}
        }
        sim
    }

    /// Which of the six faces (−x, +x, −y, +y, −z, +z) of a block lie on
    /// the domain border.
    fn border_faces(&self, lb: &LocalBlock) -> [bool; 6] {
        use trillium_blockforest::{dir_index, BlockLink};
        let face = |d: [i8; 3]| matches!(lb.links[dir_index(d)], BlockLink::Border);
        [
            face([-1, 0, 0]),
            face([1, 0, 0]),
            face([0, -1, 0]),
            face([0, 1, 0]),
            face([0, 0, -1]),
            face([0, 0, 1]),
        ]
    }

    /// Global cell extents of the root grid.
    pub fn global_cells(&self) -> [usize; 3] {
        [
            self.blocks[0] * self.cells[0],
            self.blocks[1] * self.cells[1],
            self.blocks[2] * self.cells[2],
        ]
    }
}

/// Cells per block of `n` global cells in `b` blocks per axis.
fn per_block(n: [usize; 3], b: [usize; 3]) -> [usize; 3] {
    std::array::from_fn(|d| {
        assert!(n[d].is_multiple_of(b[d]), "cells must divide evenly into blocks");
        n[d] / b[d]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_blockforest::distribute;

    #[test]
    fn cavity_forest_shape() {
        let s = Scenario::lid_driven_cavity(24, 2, 0.05, 0.1);
        let f = s.make_forest(4);
        assert_eq!(f.num_blocks(), 8);
        assert_eq!(f.cells_per_block, [12, 12, 12]);
        assert_eq!(f.num_processes, 4);
    }

    #[test]
    fn cavity_blocks_get_walls_only_at_domain_border() {
        let s = Scenario::lid_driven_cavity(16, 2, 0.05, 0.1);
        let f = s.make_forest(1);
        let views = distribute(&f);
        let v = &views[0];
        // Block (0,0,0): walls at −x, −y, −z; fluid ghosts toward +.
        let b0 = v.blocks.iter().find(|b| b.coords == [0, 0, 0]).unwrap();
        let sim = s.build_block(b0);
        assert!(sim.flags.flags(-1, 0, 0).is_boundary());
        assert!(sim.flags.flags(8, 0, 0).is_fluid(), "+x ghost belongs to the neighbor block");
        assert!(sim.flags.flags(0, 0, -1).is_boundary());
        // Block (1,1,1): lid at +z.
        let b7 = v.blocks.iter().find(|b| b.coords == [1, 1, 1]).unwrap();
        let sim = s.build_block(b7);
        assert!(sim.flags.flags(0, 0, 8).intersects(CellFlags::VELOCITY));
    }

    #[test]
    fn channel_obstacle_is_carved() {
        let s = Scenario::channel_with_obstacle([32, 16, 16], [2, 1, 1], 0.05, 0.05, 0.2);
        let f = s.make_forest(1);
        let views = distribute(&f);
        let total_fluid: usize =
            views[0].blocks.iter().map(|b| s.build_block(b).fluid_cells()).sum();
        let total = 32 * 16 * 16;
        assert!(total_fluid < total, "obstacle removed no cells");
        // Paper: obstacle-to-fluid ratio < 1 %? Here the sphere radius is
        // 3.2 cells -> ~137 cells of 8192: under 2 %.
        let solid = total - total_fluid;
        assert!(solid > 50 && solid < total / 20, "solid = {solid}");
    }

    /// The backend is stamped onto every block, the carved cylinder
    /// blocks included.
    #[test]
    fn von_karman_blocks_all_carry_the_requested_backend() {
        let s = Scenario::von_karman([32, 16, 4], [4, 2, 2], 0.02, 0.05, 4.0)
            .with_kernel(KernelChoice::InPlace)
            .with_backend(BackendKind::Workgroup);
        let views = distribute(&s.make_forest(1));
        let blocks: Vec<BlockSim> = views[0].blocks.iter().map(|b| s.build_block(b)).collect();
        let carved = |b: &BlockSim| {
            b.shape
                .with_ghosts()
                .iter()
                .any(|(x, y, z)| b.flags.flags(x, y, z).intersects(CellFlags::OBSTACLE))
        };
        assert!(blocks.iter().any(carved) && !blocks.iter().all(carved));
        for b in &blocks {
            assert_eq!(b.backend, BackendKind::Workgroup);
            assert_eq!(b.scheme, UpdateScheme::InPlace);
        }
    }

    #[test]
    fn sdf_scenario_voxelizes_blocks() {
        use trillium_geometry::sdf::AnalyticSdf;
        let sdf = Arc::new(AnalyticSdf::Sphere { center: vec3(0.0, 0.0, 0.0), radius: 1.0 });
        let s = Scenario::from_sdf(
            "sphere",
            sdf,
            0.1,
            [8, 8, 8],
            0.05,
            [0.0; 3],
            1.0,
            VoxelizeConfig::default(),
        );
        let f = s.make_forest(2);
        assert!(f.num_blocks() >= 8);
        assert_eq!(s.global_cells(), f.roots.map(|r| 8 * r), "the root grid in cells");
        let views = distribute(&f);
        let fluid: usize = views
            .iter()
            .flat_map(|v| v.blocks.iter())
            .map(|b| s.build_block(b).fluid_cells())
            .sum();
        let expect = 4.0 / 3.0 * std::f64::consts::PI / 0.001;
        assert!((fluid as f64 - expect).abs() / expect < 0.1, "{fluid} vs {expect}");
    }
}
