//! MRT and MRT+Smagorinsky sweeps for every storage layout and update
//! scheme.
//!
//! Unlike the SRT/TRT ladder, where each tier carries its own tuned
//! arithmetic, the MRT operator has exactly *one* per-cell implementation
//! — [`trillium_lattice::mrt::collide`] — and the sweeps here differ only
//! in how they gather the 19 populations into a cell-local array and
//! scatter the post-collision values back:
//!
//! * [`stream_collide_mrt`] / [`stream_collide_mrt_region`] — two-field
//!   pull on any [`PdfField`] layout (AoS or SoA).
//! * [`stream_collide_mrt_row_intervals`] — the sparse-block row-interval
//!   traversal of [`crate::sparse`], pulling only covered spans.
//! * [`stream_collide_mrt_inplace`] — the single-buffer AA pattern of
//!   [`crate::inplace`]: at even parity the gather is pull-identical and
//!   the scatter rotates one hop downstream into the opposite direction's
//!   slot; at odd parity both are cell-local through the inverse mapping.
//!
//! Because the gather produces the same 19 values everywhere and the
//! collision is the shared scalar routine, every tier, scheme, and region
//! partition is **bitwise identical** — a stronger guarantee than the
//! tolerance-based agreement of the SRT/TRT tiers, and the property the
//! schedule-invariance gate (`tests/mrt_equivalence.rs`) pins.
//!
//! The optional Smagorinsky constant turns on the LES closure inside the
//! shared collision; `None` runs plain MRT with the rates derived from
//! the [`Relaxation`].

use crate::soa::pull_offsets;
use crate::stats::SweepStats;
use trillium_field::{PdfField, Region, RowIntervals, SoaPdfField};
use trillium_lattice::d3q19::{C, INVERSE, Q};
use trillium_lattice::mrt::{collide, MrtRates};
use trillium_lattice::{Relaxation, D3Q19};

/// One MRT stream(pull)–collide sweep over the interior of any PDF layout.
pub fn stream_collide_mrt<F: PdfField<D3Q19>>(
    src: &F,
    dst: &mut F,
    rel: Relaxation,
    smagorinsky: Option<f64>,
) -> SweepStats {
    stream_collide_mrt_region(src, dst, rel, smagorinsky, &src.shape().interior())
}

/// [`stream_collide_mrt`] restricted to `region` (a subset of the
/// interior). The per-cell arithmetic is element-wise, so sweeping a
/// partition of the interior region by region is bitwise identical to one
/// full sweep.
pub fn stream_collide_mrt_region<F: PdfField<D3Q19>>(
    src: &F,
    dst: &mut F,
    rel: Relaxation,
    smagorinsky: Option<f64>,
    region: &Region,
) -> SweepStats {
    assert_eq!(src.shape(), dst.shape());
    let rates = MrtRates::from_relaxation(rel);
    let mut f = [0.0; Q];
    for (x, y, z) in region.iter() {
        for q in 0..Q {
            let c = C[q];
            f[q] = src.get(x - c[0] as i32, y - c[1] as i32, z - c[2] as i32, q);
        }
        collide(&mut f, &rates, smagorinsky);
        for q in 0..Q {
            dst.set(x, y, z, q, f[q]);
        }
    }
    SweepStats::dense(region.num_cells() as u64)
}

/// Sparse-block MRT sweep over per-row fluid intervals (the production
/// scheme of paper §4.3, with the MRT operator in place of TRT).
pub fn stream_collide_mrt_row_intervals(
    src: &SoaPdfField<D3Q19>,
    dst: &mut SoaPdfField<D3Q19>,
    intervals: &RowIntervals,
    rel: Relaxation,
    smagorinsky: Option<f64>,
) -> SweepStats {
    let mut stats = stream_collide_mrt_row_intervals_region(
        src,
        dst,
        intervals,
        rel,
        smagorinsky,
        &src.shape().interior(),
    );
    stats.cells = intervals.covered_cells() as u64;
    stats.fluid_cells = intervals.fluid_cells as u64;
    stats
}

/// [`stream_collide_mrt_row_intervals`] restricted to the spans' overlap
/// with `region`; same clipping and partition guarantee as the TRT
/// variant in [`crate::sparse`].
pub fn stream_collide_mrt_row_intervals_region(
    src: &SoaPdfField<D3Q19>,
    dst: &mut SoaPdfField<D3Q19>,
    intervals: &RowIntervals,
    rel: Relaxation,
    smagorinsky: Option<f64>,
    region: &Region,
) -> SweepStats {
    assert_eq!(src.shape(), dst.shape());
    let shape = src.shape();
    assert!(shape.ghost >= 1);
    debug_assert_eq!(region.intersect(&shape.interior()), region.clone());
    let rates = MrtRates::from_relaxation(rel);
    let off = pull_offsets(&shape);
    let sdirs: [&[f64]; Q] = src.dirs();
    let ddirs: [&mut [f64]; Q] = dst.dirs_mut();
    let mut covered = 0usize;

    for span in &intervals.spans {
        if !region.y.contains(&span.y) || !region.z.contains(&span.z) {
            continue;
        }
        let x_begin = span.x_begin.max(region.x.start);
        let x_end = span.x_end.min(region.x.end);
        if x_end <= x_begin {
            continue;
        }
        let n = (x_end - x_begin) as usize;
        covered += n;
        let base = shape.idx(x_begin, span.y, span.z);
        let mut f = [0.0; Q];
        for cell in base..base + n {
            for q in 0..Q {
                f[q] = sdirs[q][(cell as isize - off[q]) as usize];
            }
            collide(&mut f, &rates, smagorinsky);
            for q in 0..Q {
                ddirs[q][cell] = f[q];
            }
        }
    }
    SweepStats { cells: covered as u64, fluid_cells: covered as u64, seconds: 0.0 }
}

/// One full in-place (AA-pattern) MRT sweep over the interior. The sweep
/// variant follows the field's current [`SoaPdfField::parity`]; the caller
/// flips the parity afterwards, exactly as for [`crate::inplace`].
pub fn stream_collide_mrt_inplace(
    f: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
    smagorinsky: Option<f64>,
) -> SweepStats {
    let region = f.shape().interior();
    stream_collide_mrt_inplace_region(f, rel, smagorinsky, &region)
}

/// [`stream_collide_mrt_inplace`] restricted to `region`. Safe under any
/// partition: storage slot `(w, p)` is read and written by exactly one
/// cell (`w + c_p`) in either sweep variant, and the cell gathers all 19
/// populations before scattering any (see [`crate::inplace`] module docs).
pub fn stream_collide_mrt_inplace_region(
    field: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
    smagorinsky: Option<f64>,
    region: &Region,
) -> SweepStats {
    let parity = field.parity();
    let shape = field.shape();
    assert!(shape.ghost >= 1);
    debug_assert_eq!(region.intersect(&shape.interior()), region.clone());
    let rates = MrtRates::from_relaxation(rel);
    let off = pull_offsets(&shape);
    let lines: [&mut [f64]; Q] = field.dirs_mut();

    // Slot ownership (one reader == one writer == this cell, see
    // [`crate::inplace`]) makes gather-then-scatter order-free at both
    // parities.
    let mut f = [0.0; Q];
    for (x, y, z) in region.iter() {
        let base = shape.idx(x, y, z) as isize;
        if parity {
            for q in 0..Q {
                f[q] = lines[INVERSE[q]][base as usize];
            }
            collide(&mut f, &rates, smagorinsky);
            for q in 0..Q {
                lines[q][base as usize] = f[q];
            }
        } else {
            for q in 0..Q {
                f[q] = lines[q][(base - off[q]) as usize];
            }
            collide(&mut f, &rates, smagorinsky);
            for q in 0..Q {
                lines[INVERSE[q]][(base + off[q]) as usize] = f[q];
            }
        }
    }
    SweepStats::dense(region.num_cells() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_field::{AosPdfField, CellFlags, FlagField, FlagOps, Shape};

    fn perturbed(shape: Shape) -> SoaPdfField<D3Q19> {
        let mut f = SoaPdfField::<D3Q19>::new(shape);
        f.fill_equilibrium(1.0, [0.02, -0.01, 0.015]);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                let v = f.get(x, y, z, q)
                    + 1e-4 * (((x * 7 + y * 13 + z * 29 + q as i32 * 31) % 17) as f64 - 8.0);
                f.set(x, y, z, q, v);
            }
        }
        f
    }

    /// AoS and SoA layouts produce bitwise identical MRT sweeps (one
    /// shared per-cell routine; only the gather/scatter addressing
    /// differs).
    #[test]
    fn layouts_agree_bitwise() {
        let shape = Shape::new(7, 5, 4, 1);
        let soa = perturbed(shape);
        let mut aos = AosPdfField::<D3Q19>::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                aos.set(x, y, z, q, soa.get(x, y, z, q));
            }
        }
        let rel = Relaxation::trt_from_viscosity(0.03);
        for smag in [None, Some(0.17)] {
            let mut d_soa = SoaPdfField::<D3Q19>::new(shape);
            let mut d_aos = AosPdfField::<D3Q19>::new(shape);
            stream_collide_mrt(&soa, &mut d_soa, rel, smag);
            stream_collide_mrt(&aos, &mut d_aos, rel, smag);
            for (x, y, z) in shape.interior().iter() {
                for q in 0..19 {
                    assert_eq!(
                        d_soa.get(x, y, z, q).to_bits(),
                        d_aos.get(x, y, z, q).to_bits(),
                        "smag={smag:?} at ({x},{y},{z}) q={q}"
                    );
                }
            }
        }
    }

    /// The in-place transport sweep (parity 0) must match one pull sweep
    /// bitwise, observed through the parity-mapped accessors; the local
    /// sweep (parity 1) must restore canonical layout identically too.
    /// The domain is a closed no-slip box so the boundary sweep feeds both
    /// schemes the same streamed-in values each step (exactly as the
    /// driver does).
    #[test]
    fn inplace_matches_pull_over_both_parities() {
        use crate::boundary::{apply_boundaries, BoundaryParams};
        let shape = Shape::new(9, 6, 5, 1);
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
        for (x, y, z) in shape.with_ghosts().iter() {
            if !shape.is_interior(x, y, z) {
                flags.set_flags(x, y, z, CellFlags::NOSLIP);
            }
        }
        let params = BoundaryParams { wall_velocity: [0.04, 0.0, -0.01], ..Default::default() };
        let rel = Relaxation::trt_from_viscosity(0.04);
        for smag in [None, Some(0.17)] {
            let mut pull_src = perturbed(shape);
            let mut pull_dst = SoaPdfField::<D3Q19>::new(shape);
            let mut aa = pull_src.clone();
            for step in 0..4u64 {
                apply_boundaries::<D3Q19, _>(&mut pull_src, &flags, &params);
                stream_collide_mrt(&pull_src, &mut pull_dst, rel, smag);
                pull_src.swap(&mut pull_dst);
                apply_boundaries::<D3Q19, _>(&mut aa, &flags, &params);
                stream_collide_mrt_inplace(&mut aa, rel, smag);
                aa.set_parity(!aa.parity());
                for (x, y, z) in shape.interior().iter() {
                    for q in 0..19 {
                        assert_eq!(
                            aa.get(x, y, z, q).to_bits(),
                            pull_src.get(x, y, z, q).to_bits(),
                            "smag={smag:?} step {step} q={q} at ({x},{y},{z})"
                        );
                    }
                }
            }
        }
    }

    /// Region-partitioned sweeps are bitwise identical to full sweeps for
    /// the pull, sparse, and in-place variants.
    #[test]
    fn region_partition_is_bitwise_identical() {
        let shape = Shape::new(11, 6, 5, 1);
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_viscosity(0.02);
        let core = shape.interior_core(1);
        let shells: Vec<Region> = shape.shell_regions(1).collect();

        // Pull.
        let mut full = SoaPdfField::<D3Q19>::new(shape);
        let mut split = SoaPdfField::<D3Q19>::new(shape);
        stream_collide_mrt(&src, &mut full, rel, Some(0.17));
        let mut cells = stream_collide_mrt_region(&src, &mut split, rel, Some(0.17), &core).cells;
        for r in &shells {
            cells += stream_collide_mrt_region(&src, &mut split, rel, Some(0.17), r).cells;
        }
        assert_eq!(cells, shape.interior_cells() as u64);
        assert_eq!(full.data(), split.data());

        // Sparse row intervals (dense flag field covers the interior).
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
        let intervals = RowIntervals::build(&flags);
        let mut s_full = SoaPdfField::<D3Q19>::new(shape);
        let mut s_split = SoaPdfField::<D3Q19>::new(shape);
        stream_collide_mrt_row_intervals(&src, &mut s_full, &intervals, rel, None);
        stream_collide_mrt_row_intervals_region(&src, &mut s_split, &intervals, rel, None, &core);
        for r in &shells {
            stream_collide_mrt_row_intervals_region(&src, &mut s_split, &intervals, rel, None, r);
        }
        assert_eq!(s_full.data(), s_split.data());

        // In-place, both parities.
        let mut i_full = src.clone();
        let mut i_split = src.clone();
        for parity in [false, true] {
            i_full.set_parity(parity);
            i_split.set_parity(parity);
            stream_collide_mrt_inplace(&mut i_full, rel, Some(0.17));
            stream_collide_mrt_inplace_region(&mut i_split, rel, Some(0.17), &core);
            for r in &shells {
                stream_collide_mrt_inplace_region(&mut i_split, rel, Some(0.17), r);
            }
            assert_eq!(i_full.data(), i_split.data(), "parity {parity}");
        }
    }

    /// Sparse row intervals agree bitwise with the dense pull sweep on a
    /// fully fluid block.
    #[test]
    fn sparse_agrees_with_dense() {
        let shape = Shape::cube(6);
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_viscosity(0.05);
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
        let intervals = RowIntervals::build(&flags);
        for smag in [None, Some(0.17)] {
            let mut dense = SoaPdfField::<D3Q19>::new(shape);
            let mut rows = SoaPdfField::<D3Q19>::new(shape);
            stream_collide_mrt(&src, &mut dense, rel, smag);
            stream_collide_mrt_row_intervals(&src, &mut rows, &intervals, rel, smag);
            for (x, y, z) in shape.interior().iter() {
                for q in 0..19 {
                    assert_eq!(
                        dense.get(x, y, z, q).to_bits(),
                        rows.get(x, y, z, q).to_bits(),
                        "smag={smag:?} at ({x},{y},{z}) q={q}"
                    );
                }
            }
        }
    }
}
