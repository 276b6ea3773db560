//! Sparse-block kernels: the three strategies of paper §4.3 for blocks only
//! partially covered by the computational domain.
//!
//! 1. [`stream_collide_trt_conditional`] — a conditional statement in the
//!    innermost loop executes the stream and collide steps only for fluid
//!    cells. Simple, but the branch "induces a major performance penalty"
//!    and is "incompatible with vectorization".
//! 2. [`stream_collide_trt_cell_list`] — the coordinates of a block's fluid
//!    cells are stored in an array and the kernel loops over this array.
//!    Removes the branch, still no vectorization (scattered accesses).
//! 3. Row intervals ([`crate::Backend::sweep_sparse`]) — for every line of
//!    lattice cells the index of the first and last fluid cell is stored,
//!    "similar to the compressed storage scheme of a sparse matrix", and
//!    the kernel runs on the contiguous spans: each span, clipped to the
//!    swept region, is one x-run of the pull row driver
//!    `soa::sweep_pull`, the kernel of a dense row fed a shorter
//!    run. This is the production scheme: it vectorizes and fits vascular
//!    geometries with few but consecutive fluid cells per row.
//!
//! All three produce identical results on fluid cells. Cells covered by a
//! row interval that are not fluid are traversed and overwritten with
//! meaningless values (exactly as in the paper); they are never read by any
//! fluid cell's pull because the boundary hull separates fluid from
//! unclassified cells. The returned [`SweepStats`] distinguish traversed
//! cells (LUPS) from processed fluid cells (FLUPS).

use crate::d3q19::collide_trt_cell;
use crate::soa::pull_offsets;
use crate::stats::SweepStats;
use trillium_field::{FlagField, FlagOps, FluidCellList, PdfField, SoaPdfField};
use trillium_lattice::d3q19::Q;
use trillium_lattice::{Relaxation, D3Q19};

/// Scalar stream–collide of a single cell on SoA storage.
#[inline(always)]
fn update_cell(
    sdirs: &[&[f64]; Q],
    ddirs: &mut [&mut [f64]; Q],
    cell: usize,
    off: &[isize; Q],
    le: f64,
    lo: f64,
) {
    let mut f = [0.0; Q];
    for q in 0..Q {
        f[q] = sdirs[q][(cell as isize - off[q]) as usize];
    }
    let rho = trillium_lattice::density::<D3Q19>(&f);
    let j = trillium_lattice::momentum::<D3Q19>(&f);
    let u = [j[0] / rho, j[1] / rho, j[2] / rho];
    let mut out = [0.0; Q];
    collide_trt_cell(&f, rho, u, le, lo, &mut out);
    for q in 0..Q {
        ddirs[q][cell] = out[q];
    }
}

/// Strategy 1: conditional in the innermost loop.
pub fn stream_collide_trt_conditional(
    src: &SoaPdfField<D3Q19>,
    dst: &mut SoaPdfField<D3Q19>,
    flags: &FlagField,
    rel: Relaxation,
) -> SweepStats {
    assert_eq!(src.shape(), dst.shape());
    assert_eq!(src.shape(), flags.shape());
    assert!(src.rows().is_none() && dst.rows().is_none(), "box storage only");
    let shape = src.shape();
    let off = pull_offsets(&shape);
    let (le, lo) = (rel.lambda_e, rel.lambda_o);
    let sdirs: [&[f64]; Q] = src.dirs();
    let mut ddirs: [&mut [f64]; Q] = dst.dirs_mut();
    let mut fluid = 0u64;
    for (x, y, z) in shape.interior().iter() {
        if flags.flags(x, y, z).is_fluid() {
            update_cell(&sdirs, &mut ddirs, shape.idx(x, y, z), &off, le, lo);
            fluid += 1;
        }
    }
    SweepStats { cells: shape.interior_cells() as u64, fluid_cells: fluid, seconds: 0.0 }
}

/// Strategy 2: loop over an explicit fluid-cell list.
pub fn stream_collide_trt_cell_list(
    src: &SoaPdfField<D3Q19>,
    dst: &mut SoaPdfField<D3Q19>,
    list: &FluidCellList,
    rel: Relaxation,
) -> SweepStats {
    assert_eq!(src.shape(), dst.shape());
    assert!(src.rows().is_none() && dst.rows().is_none(), "box storage only");
    let shape = src.shape();
    let off = pull_offsets(&shape);
    let (le, lo) = (rel.lambda_e, rel.lambda_o);
    let sdirs: [&[f64]; Q] = src.dirs();
    let mut ddirs: [&mut [f64]; Q] = dst.dirs_mut();
    for &(x, y, z) in &list.cells {
        update_cell(&sdirs, &mut ddirs, shape.idx(x, y, z), &off, le, lo);
    }
    SweepStats { cells: list.len() as u64, fluid_cells: list.len() as u64, seconds: 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{soa, BackendKind, Collision};
    use trillium_field::{CellFlags, RowIntervals, Shape};
    use trillium_lattice::MAGIC_TRT;

    /// The row-interval strategy: the portable backend's sparse sweep.
    fn row_intervals(
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: &RowIntervals,
        rel: Relaxation,
    ) -> SweepStats {
        BackendKind::Portable.dispatch().sweep_sparse(Collision::Trt, src, dst, intervals, rel)
    }

    /// Builds a sparse flag field: a tube of fluid along x plus scattered
    /// fluid cells, the rest unclassified (the hull is irrelevant for the
    /// pure kernel comparison as long as all pulled values are identical,
    /// which holds because all strategies share one source field).
    fn sparse_flags(shape: Shape) -> FlagField {
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            let in_tube = (y - 3).abs() <= 1 && (z - 3).abs() <= 1;
            let scattered = (x + 2 * y + 3 * z) % 7 == 0 && x >= 2 && x < shape.nx as i32 - 2;
            if in_tube || scattered {
                flags.set_flags(x, y, z, CellFlags::FLUID);
            }
        }
        flags
    }

    fn perturbed(shape: Shape) -> SoaPdfField<D3Q19> {
        let mut f = SoaPdfField::<D3Q19>::new(shape);
        f.fill_equilibrium(1.0, [0.01, -0.005, 0.02]);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                let v = f.get(x, y, z, q)
                    + 1e-4 * (((x * 3 + y * 5 + z * 7 + q as i32 * 11) % 13) as f64 - 6.0);
                f.set(x, y, z, q, v);
            }
        }
        f
    }

    /// All three strategies must produce identical PDFs on fluid cells, and
    /// the conditional strategy must match the dense kernel there too.
    #[test]
    fn strategies_agree_on_fluid_cells() {
        let shape = Shape::cube(8);
        let flags = sparse_flags(shape);
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_tau(0.78, MAGIC_TRT);

        let mut d_cond = SoaPdfField::<D3Q19>::new(shape);
        let mut d_list = SoaPdfField::<D3Q19>::new(shape);
        let mut d_rows = SoaPdfField::<D3Q19>::new(shape);
        let mut d_dense = SoaPdfField::<D3Q19>::new(shape);

        let s_cond = stream_collide_trt_conditional(&src, &mut d_cond, &flags, rel);
        let list = FluidCellList::build(&flags);
        let s_list = stream_collide_trt_cell_list(&src, &mut d_list, &list, rel);
        let intervals = RowIntervals::build(&flags);
        let s_rows = row_intervals(&src, &mut d_rows, &intervals, rel);
        soa::stream_collide_trt(&src, &mut d_dense, rel);

        assert_eq!(s_cond.fluid_cells, s_list.fluid_cells);
        assert_eq!(s_list.fluid_cells, s_rows.fluid_cells);
        assert!(s_rows.cells >= s_rows.fluid_cells);
        assert_eq!(s_cond.cells, shape.interior_cells() as u64);

        for (x, y, z) in shape.interior().iter() {
            if !flags.flags(x, y, z).is_fluid() {
                continue;
            }
            for q in 0..19 {
                let c = d_cond.get(x, y, z, q);
                let l = d_list.get(x, y, z, q);
                let r = d_rows.get(x, y, z, q);
                let dd = d_dense.get(x, y, z, q);
                assert!((c - l).abs() < 1e-15, "cond vs list at ({x},{y},{z}) q={q}");
                assert!((c - r).abs() < 1e-14, "cond vs rows at ({x},{y},{z}) q={q}");
                assert!((c - dd).abs() < 1e-14, "cond vs dense at ({x},{y},{z}) q={q}");
            }
        }
    }

    /// Sweeping the row intervals clipped to the interior core plus the
    /// boundary shells must be bitwise identical to one full interval
    /// sweep, and must traverse each covered cell exactly once.
    #[test]
    fn row_interval_region_partition_is_bitwise_identical() {
        let shape = Shape::cube(8);
        let flags = sparse_flags(shape);
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_tau(0.78, MAGIC_TRT);
        let intervals = RowIntervals::build(&flags);

        let mut full = SoaPdfField::<D3Q19>::new(shape);
        let s_full = row_intervals(&src, &mut full, &intervals, rel);

        let mut split = SoaPdfField::<D3Q19>::new(shape);
        let be = BackendKind::Portable.dispatch();
        let mut cells = 0;
        for r in std::iter::once(shape.interior_core(1)).chain(shape.shell_regions(1)) {
            cells +=
                be.sweep_sparse_region(Collision::Trt, &src, &mut split, &intervals, rel, &r).cells;
        }
        assert_eq!(cells, s_full.cells, "covered cells traversed exactly once");
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                assert!(
                    full.get(x, y, z, q) == split.get(x, y, z, q),
                    "row-interval split differs at ({x},{y},{z}) q={q}"
                );
            }
        }
    }

    #[test]
    fn stats_reflect_sparsity() {
        let shape = Shape::cube(8);
        let flags = sparse_flags(shape);
        let fluid = flags.count_fluid() as u64;
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_tau(0.8, MAGIC_TRT);
        let mut dst = SoaPdfField::<D3Q19>::new(shape);

        let s = stream_collide_trt_conditional(&src, &mut dst, &flags, rel);
        assert_eq!(s.fluid_cells, fluid);
        assert!(s.cells > s.fluid_cells, "scenario must actually be sparse");

        let intervals = RowIntervals::build(&flags);
        let s = row_intervals(&src, &mut dst, &intervals, rel);
        assert_eq!(s.fluid_cells, fluid);
        assert!(s.cells <= shape.interior_cells() as u64);
        assert!(s.cells >= fluid);
    }

    /// On a fully fluid block, all sparse strategies coincide with the
    /// dense kernel everywhere and traverse exactly the interior.
    #[test]
    fn dense_block_degenerates_to_dense_kernel() {
        let shape = Shape::cube(6);
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_tau(0.85, MAGIC_TRT);
        let intervals = RowIntervals::build(&flags);
        let mut d_rows = SoaPdfField::<D3Q19>::new(shape);
        let mut d_dense = SoaPdfField::<D3Q19>::new(shape);
        let s = row_intervals(&src, &mut d_rows, &intervals, rel);
        soa::stream_collide_trt(&src, &mut d_dense, rel);
        assert_eq!(s.cells, shape.interior_cells() as u64);
        assert_eq!(s.cells, s.fluid_cells);
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                assert!((d_rows.get(x, y, z, q) - d_dense.get(x, y, z, q)).abs() < 1e-15);
            }
        }
    }
}
