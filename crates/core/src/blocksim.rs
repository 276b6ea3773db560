//! Per-block simulation state.

use std::sync::Arc;
use trillium_comm::{ExchangePlan, PlanBlock};
use trillium_field::{
    CellFlags, FlagField, FlagOps, PdfField, RowIntervals, RowTable, Shape, SoaPdfField,
};
use trillium_kernels::{
    Backend, BackendKind, BoundaryLinks, BoundaryParams, Collision, SweepStats,
};
use trillium_lattice::{LatticeModel, Relaxation, D3Q19};

#[cfg(debug_assertions)]
use crate::checkpoint::flag_digest;

/// Which compute kernel a block uses for its interior sweep.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BlockKernel {
    /// Dense SoA kernel over the full interior (fully fluid blocks).
    Dense,
    /// Row-interval sparse kernel (partially covered blocks), paper §4.3.
    RowIntervals,
}

/// How a block's PDFs are updated each step.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum UpdateScheme {
    /// Two-field stream-pull: sweep reads `src`, writes `dst`, buffers
    /// swap. The reference every other scheme must match bitwise, chosen
    /// explicitly (`with_kernel(KernelChoice::Pull)`, `"kernel": "pull"`,
    /// [`BlockSim::from_flags`]).
    Pull,
    /// Single-buffer AA pattern: even steps read along the pull stencil
    /// and store along opposing direction pairs, odd steps collide in
    /// place (`trillium_kernels::inplace`). `src` is the only live buffer
    /// and `dst` holds no storage; the [`SoaPdfField::parity`] flag of
    /// `src` tracks the alternating storage convention and always equals
    /// `t % 2` between steps. The default: it moves 304 instead of 456
    /// bytes per update and keeps one field instead of two. Dense blocks
    /// run it on their box, carved ones over their row intervals on their
    /// row store, whose rows hold every slot either step touches.
    #[default]
    InPlace,
}

impl UpdateScheme {
    /// Short label (`"pull"` or `"inplace"`): the job-spec spelling and
    /// the report label.
    pub fn label(self) -> &'static str {
        match self {
            UpdateScheme::Pull => "pull",
            UpdateScheme::InPlace => "inplace",
        }
    }
}

/// The complete simulation state of one block: PDF double buffer, cell
/// flags, sparse iteration structure, and boundary parameters.
///
/// A dense block stores its whole ghost-inclusive box. A carved block
/// built by [`BlockSim::from_flags_with_scheme`] (every block a scenario,
/// a migration or a recovery builds) stores only the rows its sweep
/// reads, a [`RowTable`] over its row intervals; [`BlockSim::from_flags`]
/// keeps the box for carved blocks too, as the storage oracle.
pub struct BlockSim {
    /// Grid geometry (interior + ghost layer).
    pub shape: Shape,
    /// Source PDF field (post-collision values of the previous step; the
    /// *only* live buffer under [`UpdateScheme::InPlace`]). On a row
    /// store a cell outside the table reads `0.0` and takes no writes.
    pub src: SoaPdfField<D3Q19>,
    /// Destination PDF field of the pull sweep, stored like `src`. Holds
    /// no storage under [`UpdateScheme::InPlace`] ([`SoaPdfField::empty`]),
    /// dense or carved.
    pub dst: SoaPdfField<D3Q19>,
    /// Cell classification. The boundary link list is derived from this
    /// field and [`BlockSim::boundary`] at construction: after editing
    /// which cells are walls of which kind, call
    /// [`BlockSim::rebuild_boundary_links`] (`intervals` and `kernel` are
    /// derived from the *fluid* cells and have no such path).
    pub flags: FlagField,
    /// Row intervals for the sparse kernel (built from `flags`).
    pub intervals: RowIntervals,
    /// Boundary-condition parameters. Baked into the boundary link list:
    /// call [`BlockSim::rebuild_boundary_links`] after editing them.
    pub boundary: BoundaryParams,
    /// Kernel choice for this block.
    pub kernel: BlockKernel,
    /// Update scheme for this block: the one it was built or restored
    /// with, on dense and carved blocks alike.
    pub scheme: UpdateScheme,
    /// Compute backend this block's sweeps execute on. Like
    /// [`BlockSim::collision`], scenario-assigned, not part of the
    /// checkpoint wire format, and re-stamped by whoever rebuilds a block
    /// (migration, recovery).
    pub backend: BackendKind,
    /// Collision operator for this block. `Srt`/`Trt` run the TRT pair
    /// form (SRT via equal rates, exactly as before); `Mrt`/`MrtLes` run
    /// the per-cell moment-space operator of `trillium_kernels::mrt`, both
    /// through the same row drivers. Scenario-global — like
    /// [`BoundaryParams`], it is *not* part of the checkpoint wire format
    /// and is re-stamped by whoever rebuilds a block.
    pub collision: Collision,
    /// The boundary links of `flags` under `boundary`; every boundary
    /// sweep and force evaluation walks this list.
    links: BoundaryLinks,
    /// [`flag_digest`] of `flags` when `links` was built.
    #[cfg(debug_assertions)]
    links_digest: u64,
}

/// Builds the link list of a block. No allocatable block comes near the
/// 32-bit offset limit (19 · 609³ PDFs are 34 GB per buffer).
fn build_links(
    flags: &FlagField,
    boundary: &BoundaryParams,
    src: &SoaPdfField<D3Q19>,
) -> BoundaryLinks {
    BoundaryLinks::build_in(flags, boundary, src.rows())
        .expect("block fits 32-bit boundary link offsets")
}

/// True for a flag field whose row intervals cover less than the
/// interior: the block runs the row-interval kernel.
pub(crate) fn is_carved(intervals: &RowIntervals, shape: Shape) -> bool {
    intervals.fluid_cells != shape.interior_cells()
}

impl BlockSim {
    /// Creates a block from a flag field, initializing all PDFs to the
    /// equilibrium of `(rho, u)`. Chooses the dense kernel when every
    /// interior cell is fluid, the row-interval kernel otherwise, and
    /// runs pull on box storage: the bitwise oracle of every other
    /// scheme and storage.
    pub fn from_flags(flags: FlagField, boundary: BoundaryParams, rho: f64, u: [f64; 3]) -> Self {
        Self::build(flags, boundary, rho, u, UpdateScheme::Pull, false)
    }

    /// [`BlockSim::from_flags`] with an explicit update scheme, which every
    /// block runs, and a carved block stores the rows its sweep reads
    /// only. Only a pull block allocates `dst`.
    pub fn from_flags_with_scheme(
        flags: FlagField,
        boundary: BoundaryParams,
        rho: f64,
        u: [f64; 3],
        scheme: UpdateScheme,
    ) -> Self {
        Self::build(flags, boundary, rho, u, scheme, true)
    }

    /// The one constructor: a carved block stores the rows of its
    /// [`RowTable`] iff `rows`, every other block its box.
    pub(crate) fn build(
        flags: FlagField,
        boundary: BoundaryParams,
        rho: f64,
        u: [f64; 3],
        scheme: UpdateScheme,
        rows: bool,
    ) -> Self {
        let shape = flags.shape();
        let intervals = RowIntervals::build(&flags);
        let kernel = if is_carved(&intervals, shape) {
            BlockKernel::RowIntervals
        } else {
            BlockKernel::Dense
        };
        let mut src = match kernel {
            BlockKernel::RowIntervals if rows => {
                SoaPdfField::with_rows(Arc::new(RowTable::pull_reads::<D3Q19>(shape, &intervals)))
            }
            _ => SoaPdfField::new(shape),
        };
        src.fill_equilibrium(rho, u);
        let links = build_links(&flags, &boundary, &src);
        let dst = match scheme {
            UpdateScheme::Pull => src.zeroed_like(),
            UpdateScheme::InPlace => SoaPdfField::empty(shape),
        };
        BlockSim {
            shape,
            src,
            dst,
            links,
            #[cfg(debug_assertions)]
            links_digest: flag_digest(&flags),
            flags,
            intervals,
            boundary,
            kernel,
            scheme,
            collision: Collision::Trt,
            backend: BackendKind::default(),
        }
    }

    /// Always `false`: every block runs the scheme it was built with. Kept
    /// only for the benchmark's probe, which the next benchmark-only
    /// change (ROADMAP item 1) retires with this method.
    pub fn fell_back_to_pull(&self) -> bool {
        false
    }

    /// Switches the block to `scheme` at storage parity `odd` (which must
    /// be `false` for pull) and sizes `dst` to it: allocated for pull,
    /// empty in place. The PDFs are not touched; the caller overwrites
    /// them.
    pub(crate) fn set_scheme(&mut self, scheme: UpdateScheme, odd: bool) {
        debug_assert!(!odd || scheme == UpdateScheme::InPlace);
        self.scheme = scheme;
        self.src.set_parity(odd);
        match scheme {
            UpdateScheme::Pull if self.dst.data().is_empty() => self.dst = self.src.zeroed_like(),
            UpdateScheme::Pull => {}
            UpdateScheme::InPlace => self.dst = SoaPdfField::empty(self.shape),
        }
    }

    /// Bytes of PDF storage this block holds: the stored cells of `src`
    /// plus those of `dst` (empty in place).
    pub fn pdf_bytes(&self) -> usize {
        std::mem::size_of_val(self.src.data()) + std::mem::size_of_val(self.dst.data())
    }

    /// Distance of the split step's interior core from the block face.
    /// The pull stencil of a cell one cell in never reads the ghost layer,
    /// so pull blocks use 1. In-place blocks use 2: were the ghost-layer
    /// boundary links swept *after* the core, a pressure link reads all 19
    /// logical PDFs of its fluid cell on the face. At odd parity those sit
    /// one hop away, in the slots of the face cell's inward neighbour,
    /// which that neighbour's local sweep overwrites; at even parity the
    /// inward neighbour's transport sweep stores into the face cell's
    /// slots. A core two cells in touches neither.
    fn shell_reach(&self) -> usize {
        match self.scheme {
            UpdateScheme::Pull => 1,
            UpdateScheme::InPlace => 2,
        }
    }

    /// The dispatch object of this block's backend.
    fn be(&self) -> &'static dyn Backend {
        self.backend.dispatch()
    }

    /// Number of interior fluid cells.
    pub fn fluid_cells(&self) -> usize {
        self.intervals.fluid_cells
    }

    /// Re-initializes every cell (ghost layer included) to the equilibrium
    /// of a position-dependent state `f(x, y, z) -> (rho, u)` in
    /// block-local cell coordinates — analytic initial conditions such as
    /// the Taylor–Green vortex. Only valid on a freshly built block
    /// (parity 0), where both update schemes store PDFs in natural order.
    pub fn init_equilibrium_with(&mut self, f: impl Fn(i32, i32, i32) -> (f64, [f64; 3])) {
        assert!(!self.src.parity(), "analytic init requires a freshly built block");
        let mut feq = [0.0; 19];
        for (x, y, z) in self.shape.with_ghosts().iter() {
            let (rho, u) = f(x, y, z);
            trillium_lattice::equilibrium_all::<D3Q19>(rho, u, &mut feq);
            self.src.set_cell(x, y, z, &feq);
        }
    }

    /// The boundary link list every boundary sweep of this block walks.
    pub fn boundary_links(&self) -> &BoundaryLinks {
        &self.links
    }

    /// Rebuilds the boundary link list from `flags` and `boundary`: the
    /// one sanctioned path after editing either field.
    pub fn rebuild_boundary_links(&mut self) {
        self.links = build_links(&self.flags, &self.boundary, &self.src);
        #[cfg(debug_assertions)]
        {
            self.links_digest = flag_digest(&self.flags);
        }
    }

    /// Debug builds fail here when `flags` or `boundary` were edited
    /// without [`BlockSim::rebuild_boundary_links`], instead of silently
    /// sweeping a stale list.
    fn check_links_current(&self) {
        #[cfg(debug_assertions)]
        assert!(
            *self.links.params() == self.boundary && self.links_digest == flag_digest(&self.flags),
            "flags or boundary edited without rebuild_boundary_links()"
        );
    }

    /// Runs the boundary sweep on the source field (call after ghost
    /// synchronization, before [`BlockSim::stream_collide`]).
    pub fn apply_boundaries(&mut self) {
        self.check_links_current();
        self.links.apply(&mut self.src);
    }

    /// What an exchange plan resolves this block against: its live field,
    /// its storage parity at even and odd steps, and for a carved block the
    /// intervals whose ghost reads it lists (a dense one takes whole slabs).
    pub fn plan_block(&self) -> PlanBlock<'_, D3Q19> {
        PlanBlock {
            field: &self.src,
            parity: [false, self.scheme == UpdateScheme::InPlace],
            carve: (self.kernel == BlockKernel::RowIntervals).then_some(&self.intervals),
        }
    }

    /// Makes the block periodic along the selected axes by copying its own
    /// boundary slabs into the opposite ghost slabs (single-block periodic
    /// domains, e.g. 2-D channel validations), through a plan of
    /// self-links. Call before [`BlockSim::apply_boundaries`] each step.
    pub fn sync_periodic(&mut self, axes: [bool; 3]) {
        use trillium_blockforest::NEIGHBOR_DIRS;
        // Every face *and edge* whose nonzero components lie on periodic
        // axes wraps around: with two or three periodic axes the diagonal
        // PDFs crossing an edge must be transferred too, exactly as the
        // distributed driver does between neighboring blocks. Data leaving
        // through face/edge d enters the ghost slab on the opposite side
        // (direction −d); corners carry nothing.
        let wrapping = NEIGHBOR_DIRS.into_iter().filter(|d| (0..3).all(|a| d[a] == 0 || axes[a]));
        let links = wrapping.map(|d| (0, [-d[0], -d[1], -d[2]], 0));
        let plan = ExchangePlan::build(&[self.plan_block()], links, []);
        plan.apply(self.src.parity(), std::slice::from_mut(self), |b| b.src.data_mut());
    }

    /// Runs the fused stream–collide sweep with the block's collision
    /// operator (TRT-form kernels for `Srt`/`Trt`, moment-space sweeps for
    /// the MRT family) and advances the buffer (swap for pull, parity flip
    /// for in-place). The returned stats carry the measured wall time of
    /// the sweep, the per-block load signal used for rebalancing.
    pub fn stream_collide(&mut self, rel: Relaxation) -> SweepStats {
        let t0 = std::time::Instant::now();
        let mut stats = self.sweep_region(rel, &self.shape.interior());
        (stats.cells, stats.fluid_cells) = self.sweep_counts();
        self.swap_buffers();
        stats.timed(t0.elapsed().as_secs_f64())
    }

    /// Stream–collide over the interior core only: the cells whose update
    /// neither reads the ghost layer nor touches a slot a ghost-layer
    /// boundary link reads (see `shell_reach`). Does *not* swap the
    /// buffers — call [`BlockSim::stream_collide_shell`], then
    /// [`BlockSim::swap_buffers`]. No driver path splits a block's sweep
    /// (the driver runs [`BlockSim::stream_collide`]); the benchmark's
    /// split-cost probe and the split tests call this.
    pub fn stream_collide_interior(&mut self, rel: Relaxation) -> SweepStats {
        let t0 = std::time::Instant::now();
        let core = self.shape.interior_core(self.shell_reach());
        self.sweep_region(rel, &core).timed(t0.elapsed().as_secs_f64())
    }

    /// Stream–collide over the boundary shell (the cells skipped by
    /// [`BlockSim::stream_collide_interior`]). Requires the ghost layer to
    /// be synchronized and the full boundary sweep to have run. Does not
    /// swap the buffers. Like the core sweep, no driver path calls it.
    pub fn stream_collide_shell(&mut self, rel: Relaxation) -> SweepStats {
        let t0 = std::time::Instant::now();
        let mut stats = SweepStats::default();
        for region in self.shape.shell_regions(self.shell_reach()) {
            stats.merge(self.sweep_region(rel, &region));
        }
        stats.timed(t0.elapsed().as_secs_f64())
    }

    /// One region sweep with the block's backend, scheme, kernel, and
    /// collision operator (the whole interior, or a core or shell part).
    /// Does not swap buffers or flip parity.
    fn sweep_region(&mut self, rel: Relaxation, region: &trillium_field::Region) -> SweepStats {
        let (be, c) = (self.be(), self.collision);
        let spans = (self.kernel == BlockKernel::RowIntervals).then_some(&self.intervals);
        match (self.scheme, spans) {
            (UpdateScheme::InPlace, _) => {
                be.sweep_inplace_region(c, &mut self.src, spans, rel, region)
            }
            (UpdateScheme::Pull, None) => {
                be.sweep_pull_region(c, &self.src, &mut self.dst, rel, region)
            }
            (UpdateScheme::Pull, Some(iv)) => {
                be.sweep_sparse_region(c, &self.src, &mut self.dst, iv, rel, region)
            }
        }
    }

    /// Completes a split-sweep step: swaps the PDF double buffer (pull) or
    /// flips the storage parity (in-place) — the analogue of what
    /// [`BlockSim::stream_collide`] performs internally. Must be called
    /// exactly once after the interior and shell region sweeps of a step;
    /// no driver path does (only `stream_collide` itself).
    pub fn swap_buffers(&mut self) {
        if self.scheme == UpdateScheme::InPlace {
            let p = self.src.parity();
            self.src.set_parity(!p);
        } else {
            self.src.swap(&mut self.dst);
        }
    }

    /// The current AA-pattern storage parity of the live buffer (always
    /// `false` for pull blocks; equals `t % 2 == 1` between steps for
    /// in-place blocks).
    pub fn step_parity(&self) -> bool {
        self.src.parity()
    }

    /// The `(cells, fluid_cells)` counters one *full* sweep of this block
    /// reports ([`BlockSim::stream_collide`] stamps them on its stats).
    /// Region sweeps count traversed cells but cannot attribute
    /// fluid-ness per sub-span.
    pub fn sweep_counts(&self) -> (u64, u64) {
        match self.kernel {
            BlockKernel::Dense => {
                let n = self.shape.interior_cells() as u64;
                (n, n)
            }
            BlockKernel::RowIntervals => {
                (self.intervals.covered_cells() as u64, self.intervals.fluid_cells as u64)
            }
        }
    }

    /// The one reduction over the interior fluid cells, span by covered
    /// span (a dense block's are its rows; the store holds them at either
    /// parity). Per piece of [`TOTALS_PIECE`] cells, ρ, `j` and a
    /// non-finite marker are summed over the 19 direction rows into stack
    /// arrays, then the piece's fluid cells fold in x order:
    /// [`PdfField::density`] / `velocity` arithmetic per cell, cells x, y,
    /// z — bitwise a per-cell walk. Allocates nothing.
    pub fn fluid_totals(&self) -> FluidTotals {
        let mut t = FluidTotals::default();
        for s in &self.intervals.spans {
            for x0 in (s.x_begin..s.x_end).step_by(TOTALS_PIECE) {
                let n = ((s.x_end - x0) as usize).min(TOTALS_PIECE);
                // −0.0 is the neutral element `f64::sum` folds ρ from.
                let mut rho = [-0.0; TOTALS_PIECE];
                let [mut j0, mut j1, mut j2, mut bad] = [[0.0; TOTALS_PIECE]; 4];
                for q in 0..19 {
                    let c = D3Q19::c(q);
                    let f = self.src.row(q, x0, s.y, s.z, n);
                    for x in 0..n {
                        rho[x] += f[x];
                        j0[x] += f[x] * c[0];
                        j1[x] += f[x] * c[1];
                        j2[x] += f[x] * c[2];
                        // NaN iff a PDF of the cell is ±∞ or NaN (`f · 0`).
                        bad[x] += f[x] * 0.0;
                    }
                }
                for x in 0..n {
                    if !self.flags.flags(x0 + x as i32, s.y, s.z).is_fluid() {
                        continue;
                    }
                    let u = [j0[x] / rho[x], j1[x] / rho[x], j2[x] / rho[x]];
                    t.mass += rho[x];
                    t.kinetic_energy += 0.5 * rho[x] * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
                    t.momentum = [0, 1, 2].map(|d| t.momentum[d] + rho[x] * u[d]);
                    t.non_finite |= bad[x].is_nan();
                }
            }
        }
        t
    }

    /// Total mass over interior fluid cells.
    pub fn fluid_mass(&self) -> f64 {
        self.fluid_totals().mass
    }

    /// Momentum over interior fluid cells.
    pub fn fluid_momentum(&self) -> [f64; 3] {
        self.fluid_totals().momentum
    }

    /// Velocity at an interior cell (must be fluid to be meaningful).
    pub fn velocity(&self, x: i32, y: i32, z: i32) -> [f64; 3] {
        self.src.velocity(x, y, z)
    }

    /// Total kinetic energy `Σ ½ ρ u²` over interior fluid cells — the
    /// observable behind the Taylor–Green dissipation-rate validation.
    pub fn kinetic_energy(&self) -> f64 {
        self.fluid_totals().kinetic_energy
    }

    /// Momentum-exchange force on the boundary cells matched by `mask`
    /// (drag/lift evaluation). Call between [`BlockSim::apply_boundaries`]
    /// and [`BlockSim::stream_collide`].
    pub fn boundary_force(&self, mask: CellFlags) -> [f64; 3] {
        self.check_links_current();
        self.links.force(&self.src, mask)
    }

    /// True if an interior fluid cell holds a non-finite PDF.
    pub fn has_nan(&self) -> bool {
        self.fluid_totals().non_finite
    }
}

/// Cells of an x-row [`BlockSim::fluid_totals`] sums at a time.
const TOTALS_PIECE: usize = 32;

/// Totals over a block's interior fluid cells.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct FluidTotals {
    /// `Σ ρ`.
    pub mass: f64,
    /// `Σ ½ ρ u²`.
    pub kinetic_energy: f64,
    /// `Σ ρ u`.
    pub momentum: [f64; 3],
    /// True if some PDF of a fluid cell is NaN or infinite.
    pub non_finite: bool,
}

/// Builds a fully fluid flag field whose domain-border faces (where
/// `border[dir]` is true for the six faces −x, +x, −y, +y, −z, +z) are
/// closed with the given wall flags. Faces not at the domain border stay
/// fluid into the ghost layer (they will be synchronized from neighbor
/// blocks).
pub fn boxed_block_flags(shape: Shape, border_flags: [Option<CellFlags>; 6]) -> FlagField {
    // Everything fluid, ghosts included.
    let mut flags = FlagField::filled(shape, CellFlags::FLUID.0);
    let g = shape.ghost as i32;
    // Closed faces are written in order, so on edges and corners the last
    // one wins: the lid on +z overrides the side walls.
    for (i, wall) in border_flags.into_iter().enumerate() {
        let Some(wall) = wall else { continue };
        let mut face = shape.with_ghosts();
        let side = match i / 2 {
            0 => &mut face.x,
            1 => &mut face.y,
            _ => &mut face.z,
        };
        *side = if i % 2 == 0 { side.start..0 } else { side.end - g..side.end };
        for (x, y, z) in face.iter() {
            flags.set_flags(x, y, z, wall);
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_lattice::MAGIC_TRT;

    fn cavity_flags(n: usize) -> FlagField {
        boxed_block_flags(
            Shape::cube(n),
            [
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::VELOCITY),
            ],
        )
    }

    /// The flag-field builder as it was before it wrote whole faces: two
    /// walks over the padded box, each cell asked which faces it lies
    /// beyond.
    fn boxed_block_flags_per_cell(shape: Shape, border_flags: [Option<CellFlags>; 6]) -> FlagField {
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
        let (nx, ny, nz) = (shape.nx as i32, shape.ny as i32, shape.nz as i32);
        for (x, y, z) in shape.with_ghosts().iter() {
            let mut wall: Option<CellFlags> = None;
            let mut check = |cond: bool, f: Option<CellFlags>| {
                if cond && f.is_some() {
                    wall = f;
                }
            };
            check(x < 0, border_flags[0]);
            check(x >= nx, border_flags[1]);
            check(y < 0, border_flags[2]);
            check(y >= ny, border_flags[3]);
            check(z < 0, border_flags[4]);
            check(z >= nz, border_flags[5]);
            if let Some(f) = wall {
                flags.set_flags(x, y, z, f);
            }
        }
        flags
    }

    #[test]
    fn boxed_flags_equal_the_per_cell_builder_for_every_border_set() {
        let shape = Shape::new(5, 4, 3, 1);
        // A distinct flag per face, so the winner on edges is visible.
        let walls = [
            CellFlags::NOSLIP,
            CellFlags::VELOCITY,
            CellFlags::PRESSURE,
            CellFlags::PRESSURE_ALT,
            CellFlags::OBSTACLE,
            CellFlags::VELOCITY,
        ];
        for closed in 0u32..64 {
            let border = std::array::from_fn(|i| (closed >> i & 1 == 1).then_some(walls[i]));
            let got = boxed_block_flags(shape, border);
            let want = boxed_block_flags_per_cell(shape, border);
            assert_eq!(got.data(), want.data(), "closed faces {closed:06b}");
        }
    }

    /// The four per-cell reductions [`BlockSim::fluid_totals`] replaced,
    /// each cell through `get_cell` gathers: the oracle of the fused pass.
    fn per_cell_totals(b: &BlockSim) -> FluidTotals {
        let mut t = FluidTotals::default();
        for (x, y, z) in b.shape.interior().iter() {
            if !b.flags.flags(x, y, z).is_fluid() {
                continue;
            }
            let rho = b.src.density(x, y, z);
            let u = b.src.velocity(x, y, z);
            t.mass += rho;
            t.kinetic_energy += 0.5 * rho * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
            for d in 0..3 {
                t.momentum[d] += rho * u[d];
            }
            t.non_finite |= (0..19).any(|q| !b.src.get(x, y, z, q).is_finite());
        }
        t
    }

    /// A block of random extents and fluid mask holding random finite
    /// PDFs in every interior cell (solid ones included), written through
    /// the accessors at the given storage parity.
    fn random_block(rng: &mut rand::rngs::StdRng, odd: bool) -> BlockSim {
        use rand::Rng;
        let nx = [1, 3, 8, 17][rng.gen_range(0..4usize)];
        let shape = Shape::new(nx, rng.gen_range(1..=4usize), rng.gen_range(1..=4usize), 1);
        let mut flags = FlagField::filled(shape, CellFlags::NOSLIP.0);
        let fluid_share = rng.next_f64();
        for (x, y, z) in shape.interior().iter() {
            if rng.gen_bool(fluid_share) {
                flags.set_flags(x, y, z, CellFlags::FLUID);
            }
        }
        let mut b = BlockSim::from_flags(flags, BoundaryParams::default(), 1.0, [0.0; 3]);
        b.src.set_parity(odd);
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                b.src.set(x, y, z, q, rng.gen_range(-2.0..2.0));
            }
        }
        b
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_totals_equal(got: FluidTotals, want: FluidTotals, what: &str) {
        let pairs = [
            (got.mass, want.mass),
            (got.kinetic_energy, want.kinetic_energy),
            (got.momentum[0], want.momentum[0]),
            (got.momentum[1], want.momentum[1]),
            (got.momentum[2], want.momentum[2]),
        ];
        assert!(pairs.iter().all(|&(a, b)| same_bits(a, b)), "{what}: {got:?} != {want:?}");
        assert_eq!(got.non_finite, want.non_finite, "{what}");
    }

    #[test]
    fn fused_totals_equal_the_per_cell_reductions_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        for case in 0..200 {
            let b = random_block(&mut rng, case % 2 == 1);
            let got = b.fluid_totals();
            assert_totals_equal(got, per_cell_totals(&b), &format!("case {case}"));
            assert!(!got.non_finite);
            assert_eq!(b.fluid_mass().to_bits(), got.mass.to_bits());
            assert_eq!(b.kinetic_energy().to_bits(), got.kinetic_energy.to_bits());
            assert_eq!(b.fluid_momentum().map(f64::to_bits), got.momentum.map(f64::to_bits));
            assert!(!b.has_nan());
        }
        // A non-finite PDF counts exactly when its cell is fluid.
        for (case, poison) in [f64::NAN, f64::INFINITY].into_iter().enumerate() {
            for in_fluid in [true, false] {
                let mut b = loop {
                    let b = random_block(&mut rng, case == 1);
                    let fluid = b.fluid_cells();
                    if 0 < fluid && fluid < b.shape.interior_cells() {
                        break b;
                    }
                };
                let cells: Vec<_> = b.shape.interior().iter().collect();
                let (x, y, z) = *cells
                    .iter()
                    .find(|&&(x, y, z)| b.flags.flags(x, y, z).is_fluid() == in_fluid)
                    .unwrap();
                b.src.set(x, y, z, rng.gen_range(0..19usize), poison);
                let got = b.fluid_totals();
                assert_totals_equal(got, per_cell_totals(&b), &format!("{poison} {in_fluid}"));
                assert_eq!(got.non_finite, in_fluid, "{poison} in a fluid cell: {in_fluid}");
                assert_eq!(b.has_nan(), in_fluid);
            }
        }
    }

    /// The chunked pass against the per-cell fold on the three shapes it
    /// must get right: an in-place block at odd parity, a carved block,
    /// and an x-extent that ends in a partial piece.
    #[test]
    fn totals_equal_the_per_cell_fold_on_odd_carved_and_ragged_blocks() {
        let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
        let boundary = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        let mut odd = BlockSim::from_flags_with_scheme(
            cavity_flags(8),
            boundary,
            1.0,
            [0.0; 3],
            UpdateScheme::InPlace,
        );
        let shape = Shape::new(45, 5, 4, 1);
        let mut carved = FlagField::filled(shape, CellFlags::NOSLIP.0);
        for (x, y, z) in shape.interior().iter() {
            if (x - 20).pow(2) + (y - 2).pow(2) + (z - 2).pow(2) < 200 {
                carved.set_flags(x, y, z, CellFlags::FLUID);
            }
        }
        let mut carved = BlockSim::from_flags(carved, boundary, 1.0, [0.02, 0.0, 0.0]);
        let ragged = boxed_block_flags(Shape::new(13, 9, 11, 1), [Some(CellFlags::NOSLIP); 6]);
        let mut ragged = BlockSim::from_flags(ragged, boundary, 1.0, [0.01, 0.02, 0.0]);
        for _ in 0..3 {
            for b in [&mut odd, &mut carved, &mut ragged] {
                b.apply_boundaries();
                b.stream_collide(rel);
            }
        }
        assert!(odd.step_parity());
        assert_eq!(carved.kernel, BlockKernel::RowIntervals);
        assert!(carved.fluid_cells() < shape.interior_cells() && shape.nx > TOTALS_PIECE);
        assert_ne!(shape.nx % TOTALS_PIECE, 0);
        assert_ne!(ragged.shape.nx % TOTALS_PIECE, 0);
        for (b, what) in [(&odd, "odd"), (&carved, "carved"), (&ragged, "ragged")] {
            let got = b.fluid_totals();
            assert_totals_equal(got, per_cell_totals(b), what);
            assert!(got.mass > 0.0 && got.kinetic_energy > 0.0, "{what}");
        }
    }

    #[test]
    fn boxed_flags_classify_ghost_layer() {
        let f = cavity_flags(4);
        assert!(f.flags(0, 0, 0).is_fluid());
        assert!(f.flags(-1, 0, 0).intersects(CellFlags::NOSLIP));
        assert!(f.flags(0, 0, 4).intersects(CellFlags::VELOCITY));
        // Lid wins on the top edge.
        assert!(f.flags(-1, 0, 4).intersects(CellFlags::VELOCITY));
        assert_eq!(f.count_fluid(), 64);
    }

    #[test]
    fn single_block_cavity_develops_flow_and_conserves_mass() {
        let flags = cavity_flags(8);
        let boundary = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        let mut block = BlockSim::from_flags(flags, boundary, 1.0, [0.0; 3]);
        assert_eq!(block.kernel, BlockKernel::Dense);
        let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
        let m0 = block.fluid_mass();
        for _ in 0..150 {
            block.apply_boundaries();
            block.stream_collide(rel);
        }
        assert!(!block.has_nan());
        assert!((block.fluid_mass() - m0).abs() / m0 < 1e-10, "mass drift");
        // Fluid under the lid follows it.
        let u = block.velocity(4, 4, 7);
        assert!(u[0] > 1e-3, "no lid-driven flow: {u:?}");
        // A rough vortex signature: backflow in the lower half.
        let u_low = block.velocity(4, 4, 1);
        assert!(u_low[0] < u[0]);
    }

    /// The split sweep — full boundary prep, interior-core sweep, shell
    /// sweep, explicit swap — must be bitwise identical to the monolithic
    /// apply_boundaries + stream_collide sequence, for both the dense and
    /// the row-interval kernel.
    #[test]
    fn split_sweep_is_bitwise_identical() {
        let make_flags = |sparse: bool| {
            let mut flags = cavity_flags(8);
            if sparse {
                // An interior obstacle forces the row-interval kernel.
                flags.set_flags(3, 3, 3, CellFlags::NOSLIP);
                flags.set_flags(4, 3, 3, CellFlags::NOSLIP);
            }
            flags
        };
        let boundary = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
        for sparse in [false, true] {
            let mut full = BlockSim::from_flags(make_flags(sparse), boundary, 1.0, [0.0; 3]);
            let mut split = BlockSim::from_flags(make_flags(sparse), boundary, 1.0, [0.0; 3]);
            assert_eq!(
                split.kernel,
                if sparse { BlockKernel::RowIntervals } else { BlockKernel::Dense }
            );
            for _ in 0..15 {
                full.apply_boundaries();
                let s_full = full.stream_collide(rel);

                split.apply_boundaries();
                let s_core = split.stream_collide_interior(rel);
                let s_shell = split.stream_collide_shell(rel);
                split.swap_buffers();

                assert_eq!(s_core.cells + s_shell.cells, s_full.cells);
                let (cells, fluid) = split.sweep_counts();
                assert_eq!(cells, s_full.cells);
                assert_eq!(fluid, s_full.fluid_cells);
            }
            for (x, y, z) in full.shape.interior().iter() {
                for q in 0..19 {
                    assert!(
                        full.src.get(x, y, z, q) == split.src.get(x, y, z, q),
                        "sparse={sparse} differs at ({x},{y},{z}) q={q}"
                    );
                }
            }
        }
    }

    /// An in-place (AA-pattern) block must evolve bitwise identically to
    /// the pull reference — via the monolithic step and via the split
    /// (core + shell) sweep, across both step parities.
    #[test]
    fn inplace_scheme_is_bitwise_identical_to_pull() {
        let boundary = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
        let mut pull = BlockSim::from_flags(cavity_flags(8), boundary, 1.0, [0.0; 3]);
        let mut mono = BlockSim::from_flags_with_scheme(
            cavity_flags(8),
            boundary,
            1.0,
            [0.0; 3],
            UpdateScheme::InPlace,
        );
        let mut split = BlockSim::from_flags_with_scheme(
            cavity_flags(8),
            boundary,
            1.0,
            [0.0; 3],
            UpdateScheme::InPlace,
        );
        assert_eq!(mono.scheme, UpdateScheme::InPlace);
        for step in 0..15u64 {
            pull.apply_boundaries();
            pull.stream_collide(rel);

            mono.apply_boundaries();
            mono.stream_collide(rel);
            assert_eq!(mono.step_parity(), (step + 1) % 2 == 1);

            split.apply_boundaries();
            split.stream_collide_interior(rel);
            split.stream_collide_shell(rel);
            split.swap_buffers();

            for (x, y, z) in pull.shape.interior().iter() {
                for q in 0..19 {
                    let r = pull.src.get(x, y, z, q);
                    assert!(
                        r.to_bits() == mono.src.get(x, y, z, q).to_bits()
                            && r.to_bits() == split.src.get(x, y, z, q).to_bits(),
                        "step {step} differs at ({x},{y},{z}) q={q}"
                    );
                }
            }
        }
    }

    /// Sparse (row-interval) blocks run in place on their row store with
    /// one field, and their fluid PDFs step bitwise with the box-storage
    /// pull oracle through both parities.
    #[test]
    fn inplace_runs_on_sparse_blocks() {
        let shape = Shape::cube(8);
        let mut flags = FlagField::new(shape);
        for x in 0..8 {
            flags.set_flags(x, 4, 4, CellFlags::FLUID);
        }
        flags.dilate_hull(&trillium_lattice::d3q19::C, CellFlags::NOSLIP);
        let (params, u) = (BoundaryParams::default(), [0.02, 0.01, 0.0]);
        let mut oracle = BlockSim::from_flags(flags.clone(), params, 1.0, u);
        let mut block =
            BlockSim::from_flags_with_scheme(flags, params, 1.0, u, UpdateScheme::InPlace);
        assert_eq!(block.kernel, BlockKernel::RowIntervals);
        assert_eq!(block.scheme, UpdateScheme::InPlace);
        assert!(block.src.rows().is_some() && block.dst.data().is_empty());
        let rel = Relaxation::trt_from_tau(0.8, MAGIC_TRT);
        for step in 0..5 {
            for b in [&mut oracle, &mut block] {
                b.apply_boundaries();
                b.stream_collide(rel);
            }
            for x in 0..8 {
                for q in 0..19 {
                    let (want, got) = (oracle.src.get(x, 4, 4, q), block.src.get(x, 4, 4, q));
                    assert_eq!(want.to_bits(), got.to_bits(), "step {step}, x={x}, q={q}");
                }
            }
        }
    }

    #[test]
    fn sparse_block_kernel_selected_for_partial_coverage() {
        let shape = Shape::cube(8);
        let mut flags = FlagField::new(shape);
        // A thin fluid tube.
        for x in 0..8 {
            flags.set_flags(x, 4, 4, CellFlags::FLUID);
        }
        flags.dilate_hull(&trillium_lattice::d3q19::C, CellFlags::NOSLIP);
        let block = BlockSim::from_flags(flags, BoundaryParams::default(), 1.0, [0.0; 3]);
        assert_eq!(block.kernel, BlockKernel::RowIntervals);
        assert_eq!(block.fluid_cells(), 8);
    }

    #[test]
    fn resting_fluid_stays_at_rest_in_sparse_block() {
        let shape = Shape::cube(8);
        let mut flags = FlagField::new(shape);
        for x in 1..7 {
            for y in 3..6 {
                flags.set_flags(x, y, 4, CellFlags::FLUID);
            }
        }
        flags.dilate_hull(&trillium_lattice::d3q19::C, CellFlags::NOSLIP);
        let mut block = BlockSim::from_flags(flags, BoundaryParams::default(), 1.0, [0.0; 3]);
        let rel = Relaxation::trt_from_viscosity(0.1);
        for _ in 0..30 {
            block.apply_boundaries();
            block.stream_collide(rel);
        }
        assert!(!block.has_nan());
        for (x, y, z) in shape.interior().iter() {
            if block.flags.flags(x, y, z).is_fluid() {
                let u = block.velocity(x, y, z);
                assert!(u.iter().all(|c| c.abs() < 1e-12), "motion at ({x},{y},{z}): {u:?}");
            }
        }
    }
}
