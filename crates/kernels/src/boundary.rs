//! Boundary conditions: no-slip bounce back, velocity bounce back and
//! pressure anti bounce back (paper §2.1, referencing Ginzburg et al.).
//!
//! # Realization
//!
//! All compute kernels in this crate pull unconditionally from all 19
//! neighbors. Boundary conditions are realized by a *preparatory sweep*
//! that runs before the compute sweep of each time step: for every
//! **link** — a boundary cell `w` and a direction `q` whose target
//! `x = w + c_q` is an interior fluid cell — it writes into `f[w][q]`
//! exactly the value the fluid cell must receive when it pulls direction
//! `q` from `w`:
//!
//! * **no slip**: `f[w][q] = f̃[x][q̄]` — plain reflection of the fluid
//!   cell's post-collision PDF,
//! * **velocity bounce back** (wall moving with `u_w`):
//!   `f[w][q] = f̃[x][q̄] + 6 w_q ρ₀ (c_q · u_w)` with `ρ₀ = 1`,
//! * **pressure anti bounce back** (prescribed wall density `ρ_w`):
//!   `f[w][q] = −f̃[x][q̄] + 2 f^{eq+}_q(ρ_w, u_x)` where `f^{eq+}` is the
//!   symmetric equilibrium part and `u_x` the fluid neighbor's velocity.
//!
//! Each `(w, q)` pair serves exactly one fluid target, so the assignment is
//! well defined even when one wall cell borders several fluid cells.
//! Because the hull of the fluid region is computed with a morphological
//! dilation w.r.t. the stencil (paper §2.3), every pull of a fluid cell hits
//! either a fluid or a boundary cell — never an unclassified one.
//!
//! The links are a property of the block's *surface* and do not change
//! between steps, so the simulation does not search for them every step:
//! [`BoundaryLinks::build`] scans the flag bytes once per block and the
//! sweeps of a run walk the resulting list (as waLBerla's
//! `BoundaryHandling` index lists do).
//!
//! **One list for both storage parities.** A link is the pair of raw
//! `SoaPdfField` offsets `a = q·n + pos(w)` and `b = q̄·n + pos(x)`
//! (`n` = stored cells, `pos` a cell's position: [`Shape::idx`] on box
//! storage, the row table's on a row store, whose rows hold every link's
//! two cells). At even parity logical `(w, q)` lives at `a` and logical
//! `(x, q̄)` at `b`. At odd parity (AA pattern, either storage) logical
//! `(c, k)` is stored at `(c + c_k, k̄)`, which sends `(w, q)` to `b` and
//! `(x, q̄)` to `a`: the same two slots with their roles swapped. The sweep
//! therefore reads the parity once and does `d[a] ← g(d[b])` or
//! `d[b] ← g(d[a])`; the offsets are valid for any buffer of the block's
//! shape and storage.
//!
//! **Order.** Links are stored in contiguous *runs* of equal (wall in ghost
//! layer?, wall flag byte, `q`), runs sorted by that key, links inside a
//! run by the wall cell's linear index. All runs of interior wall cells
//! (in-block obstacles) precede all runs of ghost-layer wall cells (domain
//! hull). Every block takes the whole list at once ([`BoundaryLinks::apply`]).
//! Every written slot belongs to exactly one link and every read slot
//! holds a logical fluid-cell PDF, so the PDF result does not depend on
//! this order; the force sum of [`BoundaryLinks::force`] does, which makes
//! the order part of the list's definition (pinned force series and
//! fingerprints were recorded with it).
//!
//! The flag-scanning [`apply_boundaries`] / [`momentum_exchange_force`]
//! remain as the implementation for arbitrary lattice models and layouts
//! and as the oracle the list is tested against bit for bit.

use trillium_field::{CellFlags, FlagField, FlagOps, PdfField, RowTable, Shape, SoaPdfField};
use trillium_lattice::d3q19::{C, INVERSE, Q};
use trillium_lattice::equilibrium::equilibrium_even;
use trillium_lattice::{LatticeModel, D3Q19};

/// Parameters of the boundary conditions of one block.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BoundaryParams {
    /// Wall velocity for [`CellFlags::VELOCITY`] cells (lattice units).
    pub wall_velocity: [f64; 3],
    /// Prescribed density for [`CellFlags::PRESSURE`] cells.
    pub pressure_density: f64,
    /// Prescribed density for [`CellFlags::PRESSURE_ALT`] cells (second
    /// opening, e.g. the outlet of a pressure-driven channel).
    pub pressure_density_alt: f64,
}

impl Default for BoundaryParams {
    fn default() -> Self {
        BoundaryParams { wall_velocity: [0.0; 3], pressure_density: 1.0, pressure_density_alt: 1.0 }
    }
}

impl BoundaryParams {
    /// The velocity bounce-back term `6 w_q (c_q · u_w)` of direction `q`.
    #[inline(always)]
    fn velocity_term<M: LatticeModel>(&self, q: usize) -> f64 {
        let c = M::velocities()[q];
        let cu = c[0] as f64 * self.wall_velocity[0]
            + c[1] as f64 * self.wall_velocity[1]
            + c[2] as f64 * self.wall_velocity[2];
        6.0 * M::w(q) * cu
    }

    /// The prescribed density of a pressure wall cell with flags `flag`.
    #[inline(always)]
    fn wall_density(&self, flag: CellFlags) -> f64 {
        if flag.intersects(CellFlags::PRESSURE) {
            self.pressure_density
        } else {
            self.pressure_density_alt
        }
    }
}

/// Runs the preparatory boundary sweep on the (source) field `f` by
/// scanning the flag field: the generic-lattice, any-layout
/// implementation and the test oracle of [`BoundaryLinks::apply`].
///
/// Must be called after ghost-layer synchronization and before the
/// stream–collide sweep of every time step.
pub fn apply_boundaries<M: LatticeModel, F: PdfField<M>>(
    f: &mut F,
    flags: &FlagField,
    params: &BoundaryParams,
) {
    let shape = f.shape();
    let mut fluid_pdfs = [0.0; 32];
    for (wx, wy, wz) in shape.with_ghosts().iter() {
        let flag = flags.flags(wx, wy, wz);
        if !flag.is_boundary() {
            continue;
        }
        for q in 1..M::Q {
            let c = M::velocities()[q];
            let (tx, ty, tz) = (wx + c[0] as i32, wy + c[1] as i32, wz + c[2] as i32);
            if !shape.is_interior(tx, ty, tz) || !flags.flags(tx, ty, tz).is_fluid() {
                continue;
            }
            let reflected = f.get(tx, ty, tz, M::inv(q));
            let value = if flag.intersects(CellFlags::NOSLIP) {
                reflected
            } else if flag.intersects(CellFlags::VELOCITY) {
                reflected + params.velocity_term::<M>(q)
            } else {
                // PRESSURE / PRESSURE_ALT: anti bounce back against the
                // symmetric equilibrium at the prescribed density and the
                // fluid neighbor's velocity.
                f.get_cell(tx, ty, tz, &mut fluid_pdfs[..M::Q]);
                let u = trillium_lattice::velocity::<M>(&fluid_pdfs[..M::Q]);
                -reflected + 2.0 * equilibrium_even::<M>(q, params.wall_density(flag), u)
            };
            f.set(wx, wy, wz, q, value);
        }
    }
}

/// Momentum-exchange force on the boundary cells matched by `mask`
/// (Ladd's momentum-exchange algorithm): for every bounce-back link from
/// a fluid cell `x` toward a wall cell `w` (fluid-to-wall direction `q̄`),
/// the momentum handed to the wall per time step is
/// `(f̃_{q̄}(x) + f_q(x, t+Δt)) c_{q̄}`. Must be called *after*
/// [`apply_boundaries`] (the wall cells then hold the post-streaming
/// values the fluid will pull) and before the compute sweep.
///
/// Returns the force in lattice units (momentum per time step). Used for
/// drag/lift evaluation on obstacles and walls — the quantity a coupled
/// rigid-body engine (the paper's `pe`) consumes. This is the flag-scan
/// oracle of [`BoundaryLinks::force`].
pub fn momentum_exchange_force<M: LatticeModel, F: PdfField<M>>(
    f: &F,
    flags: &FlagField,
    mask: CellFlags,
) -> [f64; 3] {
    let shape = f.shape();
    let mut force = [0.0; 3];
    for (wx, wy, wz) in shape.with_ghosts().iter() {
        let flag = flags.flags(wx, wy, wz);
        if !flag.intersects(mask) || !flag.is_boundary() {
            continue;
        }
        for q in 1..M::Q {
            let c = M::velocities()[q];
            let (tx, ty, tz) = (wx + c[0] as i32, wy + c[1] as i32, wz + c[2] as i32);
            if !shape.is_interior(tx, ty, tz) || !flags.flags(tx, ty, tz).is_fluid() {
                continue;
            }
            let qi = M::inv(q); // fluid-to-wall direction
            let outgoing = f.get(tx, ty, tz, qi); // f̃_{q̄}(x): leaves toward the wall
            let incoming = f.get(wx, wy, wz, q); // f_q(x, t+Δt): comes back
            let ci = M::velocities()[qi];
            for d in 0..3 {
                force[d] += (outgoing + incoming) * ci[d] as f64;
            }
        }
    }
    force
}

/// One link: the raw storage offsets of `(w, q)` and `(x, q̄)` in a
/// `SoaPdfField<D3Q19>` (see the module docs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Link {
    wall: u32,
    fluid: u32,
}

impl Link {
    /// `(written, read)` slot of the preparatory sweep at parity `odd`.
    #[inline(always)]
    fn slots(self, odd: bool) -> (usize, usize) {
        if odd {
            (self.fluid as usize, self.wall as usize)
        } else {
            (self.wall as usize, self.fluid as usize)
        }
    }
}

/// A contiguous run of links with the same wall flag byte and direction;
/// it ends at link `end` and starts where the previous run ends.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Run {
    flag: CellFlags,
    q: u8,
    end: u32,
}

/// The positions of the set bits of `mask`, ascending.
fn set_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// A block too large for 32-bit link offsets (`19 · alloc_cells > u32::MAX`,
/// beyond ~609³ cells).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LinkOffsetOverflow {
    /// The shape that was rejected.
    pub shape: Shape,
}

impl std::fmt::Display for LinkOffsetOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} exceeds the 32-bit boundary link offsets", self.shape)
    }
}

impl std::error::Error for LinkOffsetOverflow {}

/// The boundary links of one block, built once from its flag field and
/// boundary parameters; see the module docs for layout and order.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundaryLinks {
    shape: Shape,
    /// Stored cells per direction of the fields the offsets address.
    cells: usize,
    params: BoundaryParams,
    links: Vec<Link>,
    runs: Vec<Run>,
}

impl BoundaryLinks {
    /// Collects the links of `flags` for box storage. Cost: one pass over
    /// the flag bytes plus, per boundary cell, one neighbor test for each
    /// direction that leads into the interior; a block without boundary
    /// cells allocates nothing.
    pub fn build(flags: &FlagField, params: &BoundaryParams) -> Result<Self, LinkOffsetOverflow> {
        Self::build_in(flags, params, None)
    }

    /// [`BoundaryLinks::build`] for fields storing the cells of `rows`
    /// (`None`: the box). The table must hold the pull sources of the
    /// fluid cells of `flags`, as [`RowTable::pull_reads`] of their row
    /// intervals does: a link's wall cell is one, its fluid cell another.
    /// Panics on a link cell the table does not store.
    pub fn build_in(
        flags: &FlagField,
        params: &BoundaryParams,
        rows: Option<&RowTable>,
    ) -> Result<Self, LinkOffsetOverflow> {
        let shape = flags.shape();
        assert!(rows.is_none_or(|t| t.shape() == shape), "row table of another shape");
        let n = rows.map_or(shape.alloc_cells(), RowTable::cells);
        // The largest offset is `Q·n − 1`; with this check every `as u32`
        // below is lossless.
        if n.checked_mul(Q).is_none_or(|slots| u32::try_from(slots).is_err()) {
            return Err(LinkOffsetOverflow { shape });
        }
        let cell_flags = flags.data();
        let g = shape.ghost as i32;
        let (sy, sz) = (shape.stride_y() as isize, shape.stride_z() as isize);
        let hop: [isize; Q] = C.map(|c| c[0] as isize + c[1] as isize * sy + c[2] as isize * sz);
        // `along[a][c + 1]`: the directions whose component on axis `a` is
        // `c`; `inward(a, w, n)`: those that lead from coordinate `w` into
        // `0..n` on that axis. A wall cell in the ghost layer is left with
        // at most 5 of the 18 directions to test.
        let mut along = [[0u32; 3]; 3];
        for q in 1..Q {
            for a in 0..3 {
                along[a][(C[q][a] + 1) as usize] |= 1 << q;
            }
        }
        let inward = |a: usize, w: i32, n: usize| {
            (0..3)
                .filter(|&c| (0..n as i32).contains(&(w + c - 1)))
                .fold(0, |m, c| m | along[a][c as usize])
        };

        // Pass 1: the wall cells that have links, in scan (= storage) order,
        // grouped by (wall in ghost layer?, flag byte); bit `q` of `dirs`
        // marks the link `(cell, q)`. `group_of` finds a cell's group
        // without a search.
        struct Group {
            key: (bool, u8),
            walls: Vec<(u32, u32)>, // (cell, dirs)
            count: [u32; Q],
        }
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of = [usize::MAX; 2 * 256];
        for wz in -g..shape.nz as i32 + g {
            for wy in -g..shape.ny as i32 + g {
                let row = shape.idx(-g, wy, wz);
                let inward_yz = inward(1, wy, shape.ny) & inward(2, wz, shape.nz);
                for (i, &byte) in cell_flags[row..row + shape.ax()].iter().enumerate() {
                    if !CellFlags(byte).is_boundary() {
                        continue;
                    }
                    let (w, wx) = (row + i, i as i32 - g);
                    let ghost = !shape.is_interior(wx, wy, wz);
                    let slot = &mut group_of[ghost as usize * 256 + byte as usize];
                    if *slot == usize::MAX {
                        *slot = groups.len();
                        groups.push(Group { key: (ghost, byte), walls: Vec::new(), count: [0; Q] });
                    }
                    let group = &mut groups[*slot];
                    let mut dirs = 0;
                    // Inward on all three axes: the target is an interior
                    // cell, `w + hop[q]` its index.
                    for q in set_bits(inward_yz & inward(0, wx, shape.nx)) {
                        if CellFlags(cell_flags[w.wrapping_add_signed(hop[q])]).is_fluid() {
                            dirs |= 1 << q;
                            group.count[q] += 1;
                        }
                    }
                    if dirs != 0 {
                        group.walls.push((w as u32, dirs));
                    }
                }
            }
        }

        // Pass 2: lay the runs out in key order and scatter each link to
        // the next free place of its run.
        groups.sort_unstable_by_key(|group| group.key);
        let total = groups.iter().flat_map(|group| group.count).sum::<u32>();
        // A cell's position in storage: its box index, or its place in
        // the row table.
        let pos = |cell: usize, hop: isize| -> usize {
            let cell = cell.wrapping_add_signed(hop);
            let Some(t) = rows else { return cell };
            let (x, y, z) = shape.coords(cell);
            t.pos(x, y, z).unwrap_or_else(|| panic!("link cell ({x}, {y}, {z}) is not stored"))
        };
        let mut list = BoundaryLinks {
            shape,
            cells: n,
            params: *params,
            links: vec![Link { wall: 0, fluid: 0 }; total as usize],
            runs: Vec::new(),
        };
        let mut end = 0;
        for group in &groups {
            let mut next = [0; Q];
            for q in (1..Q).filter(|&q| group.count[q] > 0) {
                next[q] = end as usize;
                end += group.count[q];
                list.runs.push(Run { flag: CellFlags(group.key.1), q: q as u8, end });
            }
            for &(w, dirs) in &group.walls {
                for q in set_bits(dirs) {
                    let (w, x) = (pos(w as usize, 0), pos(w as usize, hop[q]));
                    list.links[next[q]] =
                        Link { wall: (q * n + w) as u32, fluid: (INVERSE[q] * n + x) as u32 };
                    next[q] += 1;
                }
            }
        }
        Ok(list)
    }

    /// The parameters the list was built with.
    pub fn params(&self) -> &BoundaryParams {
        &self.params
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True for a block without walls.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The preparatory sweep over all links. Call after ghost-layer
    /// synchronization and before the stream–collide sweep of every step;
    /// `f` may be any buffer of the block's shape, at either parity.
    pub fn apply(&self, f: &mut SoaPdfField<D3Q19>) {
        self.check_storage(f);
        let odd = f.parity();
        let (rows, d) = f.rows_and_data_mut();
        for (run, links) in self.runs_with_links() {
            let q = run.q as usize;
            if run.flag.intersects(CellFlags::NOSLIP) {
                // A pure copy: `+ 0.0` would turn −0.0 into +0.0.
                for l in links {
                    let (dst, src) = l.slots(odd);
                    d[dst] = d[src];
                }
            } else if run.flag.intersects(CellFlags::VELOCITY) {
                let term = self.params.velocity_term::<D3Q19>(q);
                for l in links {
                    let (dst, src) = l.slots(odd);
                    d[dst] = d[src] + term;
                }
            } else {
                let rho_w = self.params.wall_density(run.flag);
                let n = self.cells;
                for l in links {
                    let (dst, src) = l.slots(odd);
                    let pdfs = self.logical_cell(d, odd, rows, l.fluid as usize - INVERSE[q] * n);
                    let u = trillium_lattice::velocity::<D3Q19>(&pdfs);
                    d[dst] = -d[src] + 2.0 * equilibrium_even::<D3Q19>(q, rho_w, u);
                }
            }
        }
    }

    /// Every run with its links, in list order.
    fn runs_with_links(&self) -> impl Iterator<Item = (Run, &[Link])> {
        let mut start = 0;
        self.runs.iter().map(move |&run| {
            let links = &self.links[start..run.end as usize];
            start = run.end as usize;
            (run, links)
        })
    }

    /// Panics unless `f` is a field of the shape and storage the list
    /// was built for.
    fn check_storage(&self, f: &SoaPdfField<D3Q19>) {
        assert_eq!(f.shape(), self.shape, "boundary links were built for another shape");
        assert_eq!(f.cells(), self.cells, "boundary links were built for another storage");
    }

    /// The 19 logical PDFs of the interior cell at position `cell`, read
    /// from raw storage `d` (storing the cells of `rows`) at parity `odd`,
    /// where logical `(x, k)` sits at `(x + c_k, k̄)`: one hop along the
    /// box strides, or the table's position of that neighbour, which a
    /// row store holds for every cell its sweep covers.
    #[inline(always)]
    fn logical_cell(&self, d: &[f64], odd: bool, rows: Option<&RowTable>, cell: usize) -> [f64; Q] {
        let n = self.cells;
        if !odd {
            return std::array::from_fn(|k| d[k * n + cell]);
        }
        let (sy, sz) = (self.shape.stride_y() as isize, self.shape.stride_z() as isize);
        let at = rows.map(|t| (t, t.coords(cell)));
        std::array::from_fn(|k| {
            let [cx, cy, cz] = C[k].map(i32::from);
            let pos = match at {
                None => cell.wrapping_add_signed(cx as isize + cy as isize * sy + cz as isize * sz),
                Some((t, [x, y, z])) => t.run(x + cx, y + cy, z + cz, 1),
            };
            d[INVERSE[k] * n + pos]
        })
    }

    /// Momentum-exchange force on the wall cells whose flag byte
    /// intersects `mask`; same definition and call point as
    /// [`momentum_exchange_force`]. Each matching run sums
    /// `f̃_{q̄}(x) + f_q(w)` over its links in list order and contributes
    /// that sum times `c_{q̄}`, runs in list order. The two PDFs of a link
    /// are its two slots at either parity and `+` commutes, so the result
    /// is bitwise the same for a pull and an in-place block.
    pub fn force(&self, f: &SoaPdfField<D3Q19>, mask: CellFlags) -> [f64; 3] {
        self.check_storage(f);
        let d = f.data();
        let mut force = [0.0; 3];
        for (run, links) in self.runs_with_links() {
            if !run.flag.intersects(mask) {
                continue;
            }
            let mut exchanged = 0.0;
            for l in links {
                exchanged += d[l.fluid as usize] + d[l.wall as usize];
            }
            let ci = C[INVERSE[run.q as usize]];
            for k in 0..3 {
                force[k] += exchanged * ci[k] as f64;
            }
        }
        force
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic;
    use trillium_field::AosPdfField;
    use trillium_lattice::{Relaxation, D3Q19, MAGIC_TRT};

    /// Builds a fully enclosed box: interior all fluid, the ghost layer is
    /// the wall.
    fn boxed_flags(shape: Shape, wall: CellFlags) -> FlagField {
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
        for (x, y, z) in shape.with_ghosts().iter() {
            if !shape.is_interior(x, y, z) {
                flags.set_flags(x, y, z, wall);
            }
        }
        flags
    }

    fn step(
        src: &mut AosPdfField<D3Q19>,
        dst: &mut AosPdfField<D3Q19>,
        flags: &FlagField,
        params: &BoundaryParams,
        rel: Relaxation,
    ) {
        apply_boundaries::<D3Q19, _>(src, flags, params);
        generic::stream_collide_trt(src, dst, rel);
        src.swap(dst);
    }

    /// A closed box of resting fluid with no-slip walls must stay exactly
    /// at rest and conserve mass to round-off.
    #[test]
    fn resting_fluid_in_noslip_box_is_invariant() {
        let shape = Shape::cube(6);
        let flags = boxed_flags(shape, CellFlags::NOSLIP);
        let mut src = AosPdfField::<D3Q19>::new(shape);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.0; 3]);
        let params = BoundaryParams::default();
        let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
        let mass0 = src.total_mass();
        for _ in 0..20 {
            step(&mut src, &mut dst, &flags, &params, rel);
        }
        assert!((src.total_mass() - mass0).abs() < 1e-10);
        for (x, y, z) in shape.interior().iter() {
            let u = src.velocity(x, y, z);
            for d in 0..3 {
                assert!(u[d].abs() < 1e-13, "spurious velocity {u:?} at ({x},{y},{z})");
            }
        }
    }

    /// No-slip bounce back conserves mass even for moving fluid.
    #[test]
    fn noslip_box_conserves_mass_with_flow() {
        let shape = Shape::cube(6);
        let flags = boxed_flags(shape, CellFlags::NOSLIP);
        let mut src = AosPdfField::<D3Q19>::new(shape);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.0; 3]);
        // Put a velocity bump in the middle.
        let mut feq = [0.0; 19];
        trillium_lattice::equilibrium_all::<D3Q19>(1.0, [0.05, 0.02, -0.01], &mut feq);
        src.set_cell(3, 3, 3, &feq);
        let params = BoundaryParams::default();
        let rel = Relaxation::trt_from_tau(0.8, MAGIC_TRT);
        let mass0 = src.total_mass();
        for _ in 0..50 {
            step(&mut src, &mut dst, &flags, &params, rel);
        }
        assert!(
            (src.total_mass() - mass0).abs() / mass0 < 1e-12,
            "mass drifted: {} -> {}",
            mass0,
            src.total_mass()
        );
    }

    /// A box whose lid moves tangentially (velocity bounce back) must drag
    /// the fluid: after some steps the cells near the lid move in the lid
    /// direction.
    #[test]
    fn moving_lid_drags_fluid() {
        let shape = Shape::cube(8);
        let mut flags = boxed_flags(shape, CellFlags::NOSLIP);
        // Lid: top ghost plane (z = 8) drives in +x.
        for x in -1..=(shape.nx as i32) {
            for y in -1..=(shape.ny as i32) {
                flags.set_flags(x, y, shape.nz as i32, CellFlags::VELOCITY);
            }
        }
        let mut src = AosPdfField::<D3Q19>::new(shape);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.0; 3]);
        let params = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
        for _ in 0..100 {
            step(&mut src, &mut dst, &flags, &params, rel);
        }
        // Fluid just below the lid follows the lid.
        let u_top = src.velocity(4, 4, 7);
        assert!(u_top[0] > 1e-3, "lid did not drag fluid: {u_top:?}");
        // Fluid at the bottom moves much less.
        let u_bot = src.velocity(4, 4, 0);
        assert!(u_top[0] > 5.0 * u_bot[0].abs());
    }

    /// The five wall configurations of the oracle matrix on one shape: a
    /// box of each boundary kind, and a mixed one with pressure openings,
    /// a lid and an interior obstacle (so interior wall cells have links).
    fn oracle_cases(shape: Shape) -> Vec<(&'static str, FlagField)> {
        let face = |flags: &mut FlagField, x: i32, wall: CellFlags| {
            for y in -1..=(shape.ny as i32) {
                for z in -1..=(shape.nz as i32) {
                    flags.set_flags(x, y, z, wall);
                }
            }
        };
        let mut mixed = boxed_flags(shape, CellFlags::NOSLIP);
        face(&mut mixed, -1, CellFlags::PRESSURE);
        face(&mut mixed, shape.nx as i32, CellFlags::PRESSURE_ALT);
        for x in -1..=(shape.nx as i32) {
            for y in -1..=(shape.ny as i32) {
                mixed.set_flags(x, y, shape.nz as i32, CellFlags::VELOCITY);
            }
        }
        mixed.set_flags(2, 3, 2, CellFlags(CellFlags::OBSTACLE.0 | CellFlags::NOSLIP.0));
        mixed.set_flags(3, 3, 2, CellFlags(CellFlags::OBSTACLE.0 | CellFlags::NOSLIP.0));
        mixed.set_flags(4, 2, 3, CellFlags::VELOCITY);
        mixed.set_flags(5, 1, 1, CellFlags::PRESSURE);
        vec![
            ("no-slip", boxed_flags(shape, CellFlags::NOSLIP)),
            ("velocity", boxed_flags(shape, CellFlags::VELOCITY)),
            ("pressure", boxed_flags(shape, CellFlags::PRESSURE)),
            ("pressure-alt", boxed_flags(shape, CellFlags::PRESSURE_ALT)),
            ("mixed", mixed),
        ]
    }

    fn oracle_params() -> BoundaryParams {
        BoundaryParams {
            wall_velocity: [0.03, -0.01, 0.02],
            pressure_density: 1.02,
            pressure_density_alt: 0.97,
        }
    }

    fn perturbed(shape: Shape) -> SoaPdfField<D3Q19> {
        let mut f = SoaPdfField::<D3Q19>::new(shape);
        f.fill_equilibrium(1.0, [0.02, -0.01, 0.015]);
        for (i, v) in f.data_mut().iter_mut().enumerate() {
            *v += 1e-4 * (((i * 2654435761) % 997) as f64 / 997.0 - 0.5);
        }
        f
    }

    fn assert_same_bits(a: &SoaPdfField<D3Q19>, b: &SoaPdfField<D3Q19>, what: &str) {
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(x.to_bits() == y.to_bits(), "{what}: slot {i} differs ({x} vs {y})");
        }
    }

    /// One stream–collide step of `f`: two-field pull, or the in-place AA
    /// sweep (which flips the storage parity).
    fn advance(f: &mut SoaPdfField<D3Q19>, inplace: bool, rel: Relaxation) {
        if inplace {
            crate::inplace::stream_collide_trt(f, rel);
            f.set_parity(!f.parity());
        } else {
            let mut dst = f.clone();
            crate::soa::stream_collide_trt(f, &mut dst, rel);
            f.swap(&mut dst);
        }
    }

    /// The link list writes bitwise what the flag scan writes — compared
    /// over the whole storage after every boundary sweep of 12 interleaved
    /// steps — for every boundary kind, on a pull field and on an in-place
    /// field running through both parities.
    #[test]
    fn link_list_matches_flag_scan_bitwise() {
        let shape = Shape::new(7, 6, 5, 1);
        let params = oracle_params();
        let rel = Relaxation::trt_from_tau(0.85, MAGIC_TRT);
        for (name, flags) in oracle_cases(shape) {
            let links = BoundaryLinks::build(&flags, &params).unwrap();
            assert!(!links.is_empty());
            for inplace in [false, true] {
                let mut scan = perturbed(shape);
                let mut list = scan.clone();
                for step in 0..12 {
                    let what = format!("{name} inplace={inplace} step {step}");
                    apply_boundaries::<D3Q19, _>(&mut scan, &flags, &params);
                    links.apply(&mut list);
                    assert_same_bits(&scan, &list, &what);
                    advance(&mut scan, inplace, rel);
                    advance(&mut list, inplace, rel);
                    assert_eq!(list.parity(), inplace && step % 2 == 0);
                }
            }
        }
    }

    /// The force summed over the list equals the flag-scan force up to
    /// summation order, for every mask and at both parities, and is
    /// bitwise the same for the pull and the in-place storage of a state.
    #[test]
    fn link_list_force_matches_flag_scan() {
        let shape = Shape::new(7, 6, 5, 1);
        let params = oracle_params();
        let rel = Relaxation::trt_from_tau(0.85, MAGIC_TRT);
        let (_, flags) = oracle_cases(shape).pop().unwrap();
        let links = BoundaryLinks::build(&flags, &params).unwrap();
        let mut pull = perturbed(shape);
        let mut aa = pull.clone();
        for step in 0..4 {
            links.apply(&mut pull);
            links.apply(&mut aa);
            for mask in [
                CellFlags::NOSLIP,
                CellFlags::VELOCITY,
                CellFlags::OBSTACLE,
                CellFlags(CellFlags::PRESSURE.0 | CellFlags::PRESSURE_ALT.0),
            ] {
                let scanned = momentum_exchange_force::<D3Q19, _>(&aa, &flags, mask);
                let listed = links.force(&aa, mask);
                assert_eq!(listed, links.force(&pull, mask), "step {step} {mask:?}");
                let scale = scanned.iter().fold(0.0f64, |m, c| m.max(c.abs()));
                assert!(scale > 0.0);
                for d in 0..3 {
                    assert!(
                        (listed[d] - scanned[d]).abs() <= 1e-12 * scale,
                        "step {step} {mask:?}: {listed:?} vs {scanned:?}"
                    );
                }
            }
            advance(&mut pull, false, rel);
            advance(&mut aa, true, rel);
        }
    }

    /// Interior wall links come first, ghost-layer wall links last, and a
    /// block without walls allocates nothing.
    #[test]
    fn links_are_partitioned_and_empty_without_walls() {
        let shape = Shape::cube(4);
        let params = BoundaryParams::default();
        let mut flags = boxed_flags(shape, CellFlags::NOSLIP);
        let hull = BoundaryLinks::build(&flags, &params).unwrap();
        // Pulls that leave the interior: 6 axis directions × 16 cells and
        // 12 diagonals × 28 cells, all served by ghost-layer wall cells.
        assert_eq!(hull.len(), 432);
        // An obstacle at a border cell: 5 of its 18 neighbors are ghosts,
        // and it is no longer the target of those 5 hull links. Its 13
        // links come first.
        flags.set_flags(0, 1, 1, CellFlags::NOSLIP);
        let carved = BoundaryLinks::build(&flags, &params).unwrap();
        assert_eq!(carved.len(), 18 - 5 + 432 - 5);
        let (n, obstacle) = (shape.alloc_cells(), shape.idx(0, 1, 1));
        let walls = |links: &[Link]| links.iter().map(|l| l.wall as usize % n).collect::<Vec<_>>();
        assert_eq!(walls(&carved.links[..13]), [obstacle; 13]);
        assert!(walls(&carved.links[13..]).iter().all(|&w| w != obstacle));
        let open = BoundaryLinks::build(&FlagField::filled(shape, CellFlags::FLUID.0), &params);
        let open = open.unwrap();
        assert!(open.is_empty());
        assert_eq!(open.links.capacity() + open.runs.capacity(), 0);
    }

    /// 19 · cells beyond `u32::MAX` is refused, not wrapped. (The flag
    /// bytes are lazily zero-mapped; `build` returns before reading them.)
    #[test]
    fn oversized_shape_is_rejected() {
        let shape = Shape::new(1, 1, 26_000_000, 1);
        assert!(shape.alloc_cells() * 19 > u32::MAX as usize);
        let flags = FlagField::new(shape);
        assert_eq!(
            BoundaryLinks::build(&flags, &BoundaryParams::default()),
            Err(LinkOffsetOverflow { shape })
        );
        let fits = Shape::new(1, 1, 25_000_000, 1);
        assert!(fits.alloc_cells() * 19 <= u32::MAX as usize);
        assert!(BoundaryLinks::build(&FlagField::new(fits), &BoundaryParams::default()).is_ok());
    }

    /// Pressure anti bounce back drives the local density toward the
    /// prescribed value.
    #[test]
    fn pressure_boundary_imposes_density() {
        let shape = Shape::cube(6);
        let mut flags = boxed_flags(shape, CellFlags::NOSLIP);
        // One face (x = -1 plane) becomes a pressure opening at rho = 1.05.
        for y in -1..=(shape.ny as i32) {
            for z in -1..=(shape.nz as i32) {
                flags.set_flags(-1, y, z, CellFlags::PRESSURE);
            }
        }
        let mut src = AosPdfField::<D3Q19>::new(shape);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.0; 3]);
        let params = BoundaryParams { pressure_density: 1.05, ..Default::default() };
        let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
        let rho_before = src.density(0, 3, 3);
        for _ in 0..60 {
            step(&mut src, &mut dst, &flags, &params, rel);
        }
        let rho_after = src.density(0, 3, 3);
        assert!(
            rho_after > rho_before + 0.01,
            "density not driven up: {rho_before} -> {rho_after}"
        );
    }
}
