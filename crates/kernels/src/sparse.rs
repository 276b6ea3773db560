//! Sparse-block kernels (paper §4.3). Of the paper's three strategies
//! for blocks only partially covered by the domain, two are described,
//! not shipped: a conditional in the innermost loop (a branch that
//! "induces a major performance penalty" and is "incompatible with
//! vectorization"), and a loop over a list of fluid-cell coordinates
//! (no branch, but scattered, unvectorized accesses). The crate runs the
//! third, row intervals ([`crate::Backend::sweep_sparse`]): per x-row the
//! first and last fluid cell, "similar to the compressed storage scheme
//! of a sparse matrix", each span clipped to the swept region one x-run
//! of the row drivers, so it vectorizes. Non-fluid cells inside a span
//! are swept into meaningless values no fluid cell reads (the boundary
//! hull separates them); [`SweepStats`](crate::SweepStats) count them as
//! LUPS but not as FLUPS.

#[cfg(test)]
mod tests {
    use crate::stats::SweepStats;
    use crate::{soa, BackendKind, Collision};
    use trillium_field::{
        CellFlags, FlagField, FlagOps, PdfField, RowIntervals, Shape, SoaPdfField,
    };
    use trillium_lattice::{Relaxation, D3Q19, MAGIC_TRT};

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

    /// The row-interval sweep must produce the dense kernel's PDFs on
    /// fluid cells, and count exactly the fluid cells as FLUPS.
    #[test]
    fn strategies_agree_on_fluid_cells() {
        let shape = Shape::cube(8);
        let flags = sparse_flags(shape);
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_tau(0.78, MAGIC_TRT);

        let mut d_rows = SoaPdfField::<D3Q19>::new(shape);
        let mut d_dense = SoaPdfField::<D3Q19>::new(shape);
        let intervals = RowIntervals::build(&flags);
        let s_rows = row_intervals(&src, &mut d_rows, &intervals, rel);
        soa::stream_collide_trt(&src, &mut d_dense, rel);

        assert_eq!(s_rows.fluid_cells, flags.count_fluid() as u64);
        assert!(s_rows.cells >= s_rows.fluid_cells);

        for (x, y, z) in shape.interior().iter() {
            if !flags.flags(x, y, z).is_fluid() {
                continue;
            }
            for q in 0..19 {
                let r = d_rows.get(x, y, z, q);
                let dd = d_dense.get(x, y, z, q);
                assert!((r - dd).abs() < 1e-14, "rows vs dense at ({x},{y},{z}) q={q}");
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
        assert!(fluid < shape.interior_cells() as u64, "scenario must actually be sparse");

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
