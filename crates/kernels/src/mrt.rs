//! The MRT and MRT+Smagorinsky row operator.
//!
//! Unlike the SRT/TRT pair form, whose arithmetic is split into passes over
//! a whole x-run, the MRT operator has exactly *one* per-cell
//! implementation — [`trillium_lattice::mrt::collide`]. `Mrt` plugs it into
//! the same row drivers every operator runs through (`soa::sweep_pull` for
//! dense rows and sparse spans, `inplace::sweep_inplace` at either parity):
//! each cell of a run is gathered into a cell-local array, collided and
//! scattered back — in place with the slot swap of the pair passes, `f̃_q`
//! over the slot `f_q̄` came from.
//!
//! Because the drivers hand every shape the same 19 values per cell and
//! the collision is the shared scalar routine, every shape, scheme,
//! instruction set and region partition is **bitwise identical** — the
//! property the schedule-invariance gate (`tests/mrt_equivalence.rs`) pins.
//!
//! The optional Smagorinsky constant turns on the LES closure inside the
//! shared collision; `None` runs plain MRT with the rates derived from
//! the [`Relaxation`].

use crate::inplace::InplaceRun;
use crate::soa::{Collide, RowScratch};
use trillium_lattice::d3q19::{INVERSE, Q};
use trillium_lattice::mrt::{collide, MrtRates};
use trillium_lattice::Relaxation;

/// The MRT operator (with the LES closure when `smagorinsky` is set).
#[derive(Copy, Clone)]
pub(crate) struct Mrt {
    rates: MrtRates,
    smagorinsky: Option<f64>,
}

impl Mrt {
    pub(crate) fn new(rel: Relaxation, smagorinsky: Option<f64>) -> Self {
        Mrt { rates: MrtRates::from_relaxation(rel), smagorinsky }
    }
}

impl Collide for Mrt {
    #[inline(always)]
    fn pull_run(self, s: &[&[f64]; Q], d: &mut [&mut [f64]; Q], _: &mut RowScratch) {
        for x in 0..d[0].len() {
            let mut f = [0.0; Q];
            for q in 0..Q {
                f[q] = s[q][x];
            }
            collide(&mut f, &self.rates, self.smagorinsky);
            for q in 0..Q {
                d[q][x] = f[q];
            }
        }
    }

    #[inline(always)]
    fn inplace_run(self, run: &mut InplaceRun, _: &mut RowScratch) {
        let r = run.runs();
        for x in 0..r[0].len() {
            let mut f = [0.0; Q];
            for q in 0..Q {
                f[q] = r[q][x];
            }
            collide(&mut f, &self.rates, self.smagorinsky);
            // The pair passes' slot swap: f̃_q goes where f_q̄ came from.
            for q in 0..Q {
                r[INVERSE[q]][x] = f[q];
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::{BackendKind, Collision};
    use trillium_field::{AosPdfField, CellFlags, FlagField, FlagOps, PdfField, Shape};
    use trillium_field::{Region, RowIntervals, SoaPdfField};
    use trillium_lattice::d3q19::{C, Q};
    use trillium_lattice::mrt::{collide, MrtRates};
    use trillium_lattice::{Relaxation, D3Q19};

    const KINDS: [BackendKind; 2] = [BackendKind::Portable, BackendKind::Avx2];
    const MRT: [Collision; 2] = [Collision::Mrt, Collision::MrtLes];

    /// The per-cell oracle: every cell of `cells` gathers its 19
    /// streamed-in populations `f_q = src(x − c_q, q)`, collides them with
    /// [`collide`] and scatters `f̃_q` to `dst(x, q)` — all through the
    /// parity-mapped accessors, so a `dst` one parity ahead of `src`
    /// receives an in-place step.
    pub(crate) fn oracle<F: PdfField<D3Q19>>(
        src: &F,
        dst: &mut F,
        cells: impl IntoIterator<Item = (i32, i32, i32)>,
        rel: Relaxation,
        smagorinsky: Option<f64>,
    ) {
        let rates = MrtRates::from_relaxation(rel);
        for (x, y, z) in cells {
            let mut f = [0.0; Q];
            for q in 0..Q {
                let c = C[q];
                f[q] = src.get(x - c[0] as i32, y - c[1] as i32, z - c[2] as i32, q);
            }
            collide(&mut f, &rates, smagorinsky);
            for (q, v) in f.into_iter().enumerate() {
                dst.set(x, y, z, q, v);
            }
        }
    }

    /// The oracle's in-place step of the whole interior at `src`'s parity.
    fn oracle_inplace(src: &SoaPdfField<D3Q19>, rel: Relaxation, smag: Option<f64>) -> Vec<f64> {
        let mut out = src.clone();
        out.set_parity(!src.parity());
        oracle(src, &mut out, src.shape().interior().iter(), rel, smag);
        out.data().to_vec()
    }

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

    fn fluid_flags(shape: Shape, fluid: impl Fn(i32, i32, i32) -> bool) -> FlagField {
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            if fluid(x, y, z) {
                flags.set_flags(x, y, z, CellFlags::FLUID);
            }
        }
        flags
    }

    /// The row drivers run MRT and MRT-LES bit for bit like the per-cell
    /// oracle: dense pull, sparse spans clipped to a region that cuts
    /// inside them, and in place at both parities, for the portable and
    /// the AVX2+FMA instance. Odd `nx` puts the vector tails everywhere.
    #[test]
    fn row_drivers_match_the_per_cell_oracle_bitwise() {
        let shape = Shape::new(13, 7, 5, 1);
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_viscosity(0.02);
        let flags = fluid_flags(shape, |x, y, z| (x + 2 * y + 3 * z) % 5 != 0 && x < 11);
        let intervals = RowIntervals::build(&flags);
        let cut = Region::new(2..9, 1..6, 0..4);
        let clipped = intervals.spans.iter().flat_map(|s| {
            let xs = s.x_begin.max(cut.x.start)..s.x_end.min(cut.x.end);
            let inside = cut.y.contains(&s.y) && cut.z.contains(&s.z);
            xs.filter(move |_| inside).map(move |x| (x, s.y, s.z))
        });
        let clipped: Vec<_> = clipped.collect();
        assert!(clipped.len() > 20, "the cut keeps spans");

        for collision in MRT {
            let smag = collision.smagorinsky();
            let mut pull = SoaPdfField::<D3Q19>::new(shape);
            oracle(&src, &mut pull, shape.interior().iter(), rel, smag);
            let mut sparse = SoaPdfField::<D3Q19>::new(shape);
            oracle(&src, &mut sparse, clipped.iter().copied(), rel, smag);
            for kind in KINDS {
                let be = kind.dispatch();
                let mut dst = SoaPdfField::<D3Q19>::new(shape);
                be.sweep_pull(collision, &src, &mut dst, rel);
                assert_eq!(dst.data(), pull.data(), "{kind:?}/{collision:?} pull");

                let mut dst = SoaPdfField::<D3Q19>::new(shape);
                let stats =
                    be.sweep_sparse_region(collision, &src, &mut dst, &intervals, rel, &cut);
                assert_eq!(stats.cells, clipped.len() as u64);
                assert_eq!(dst.data(), sparse.data(), "{kind:?}/{collision:?} sparse");

                for parity in [false, true] {
                    let mut f = src.clone();
                    f.set_parity(parity);
                    let expected = oracle_inplace(&f, rel, smag);
                    be.sweep_inplace(collision, &mut f, rel);
                    assert_eq!(f.data(), expected, "{kind:?}/{collision:?} parity {parity}");
                }
            }
        }
    }

    /// AoS and SoA layouts produce bitwise identical MRT sweeps (one
    /// shared per-cell routine; only the gather/scatter addressing
    /// differs): the oracle on an AoS field against every CPU backend.
    #[test]
    fn layouts_agree_bitwise() {
        let shape = Shape::new(7, 5, 4, 1);
        let soa = perturbed(shape);
        let mut aos = AosPdfField::<D3Q19>::new(shape);
        trillium_field::pdf::copy_pdf_field(&soa, &mut aos);
        let rel = Relaxation::trt_from_viscosity(0.03);
        for collision in MRT {
            let mut d_aos = AosPdfField::<D3Q19>::new(shape);
            oracle(&aos, &mut d_aos, shape.interior().iter(), rel, collision.smagorinsky());
            for kind in KINDS {
                let mut d_soa = SoaPdfField::<D3Q19>::new(shape);
                kind.dispatch().sweep_pull(collision, &soa, &mut d_soa, rel);
                for (x, y, z) in shape.interior().iter() {
                    for q in 0..19 {
                        assert_eq!(
                            d_soa.get(x, y, z, q).to_bits(),
                            d_aos.get(x, y, z, q).to_bits(),
                            "{kind:?}/{collision:?} at ({x},{y},{z}) q={q}"
                        );
                    }
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
        let mut flags = fluid_flags(shape, |_, _, _| true);
        for (x, y, z) in shape.with_ghosts().iter() {
            if !shape.is_interior(x, y, z) {
                flags.set_flags(x, y, z, CellFlags::NOSLIP);
            }
        }
        let params = BoundaryParams { wall_velocity: [0.04, 0.0, -0.01], ..Default::default() };
        let rel = Relaxation::trt_from_viscosity(0.04);
        for (kind, collision) in KINDS.into_iter().flat_map(|k| MRT.map(|c| (k, c))) {
            let be = kind.dispatch();
            let mut pull_src = perturbed(shape);
            let mut pull_dst = SoaPdfField::<D3Q19>::new(shape);
            let mut aa = pull_src.clone();
            for step in 0..4u64 {
                apply_boundaries::<D3Q19, _>(&mut pull_src, &flags, &params);
                be.sweep_pull(collision, &pull_src, &mut pull_dst, rel);
                pull_src.swap(&mut pull_dst);
                apply_boundaries::<D3Q19, _>(&mut aa, &flags, &params);
                be.sweep_inplace(collision, &mut aa, rel);
                aa.set_parity(!aa.parity());
                for (x, y, z) in shape.interior().iter() {
                    for q in 0..19 {
                        assert_eq!(
                            aa.get(x, y, z, q).to_bits(),
                            pull_src.get(x, y, z, q).to_bits(),
                            "{kind:?}/{collision:?} step {step} q={q} at ({x},{y},{z})"
                        );
                    }
                }
            }
        }
    }

    /// Region-partitioned sweeps are bitwise identical to full sweeps for
    /// the pull, sparse, and in-place shapes.
    #[test]
    fn region_partition_is_bitwise_identical() {
        let shape = Shape::new(11, 6, 5, 1);
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_viscosity(0.02);
        let parts: Vec<Region> =
            std::iter::once(shape.interior_core(1)).chain(shape.shell_regions(1)).collect();
        let intervals = RowIntervals::build(&fluid_flags(shape, |_, _, _| true));
        for (kind, collision) in KINDS.into_iter().flat_map(|k| MRT.map(|c| (k, c))) {
            let be = kind.dispatch();
            let mut full = SoaPdfField::<D3Q19>::new(shape);
            let mut split = SoaPdfField::<D3Q19>::new(shape);
            be.sweep_pull(collision, &src, &mut full, rel);
            let mut cells = 0;
            for r in &parts {
                cells += be.sweep_pull_region(collision, &src, &mut split, rel, r).cells;
            }
            assert_eq!(cells, shape.interior_cells() as u64);
            assert_eq!(full.data(), split.data(), "{kind:?}/{collision:?} pull");

            let mut s_full = SoaPdfField::<D3Q19>::new(shape);
            let mut s_split = SoaPdfField::<D3Q19>::new(shape);
            be.sweep_sparse(collision, &src, &mut s_full, &intervals, rel);
            for r in &parts {
                be.sweep_sparse_region(collision, &src, &mut s_split, &intervals, rel, r);
            }
            assert_eq!(s_full.data(), s_split.data(), "{kind:?}/{collision:?} sparse");

            for parity in [false, true] {
                let (mut i_full, mut i_split) = (src.clone(), src.clone());
                i_full.set_parity(parity);
                i_split.set_parity(parity);
                be.sweep_inplace(collision, &mut i_full, rel);
                for r in &parts {
                    be.sweep_inplace_region(collision, &mut i_split, None, rel, r);
                }
                assert_eq!(i_full.data(), i_split.data(), "{kind:?}/{collision:?} {parity}");
            }
        }
    }

    /// Sparse row intervals agree bitwise with the dense pull sweep on a
    /// fully fluid block.
    #[test]
    fn sparse_agrees_with_dense() {
        let shape = Shape::cube(6);
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_viscosity(0.05);
        let intervals = RowIntervals::build(&fluid_flags(shape, |_, _, _| true));
        for (kind, collision) in KINDS.into_iter().flat_map(|k| MRT.map(|c| (k, c))) {
            let be = kind.dispatch();
            let mut dense = SoaPdfField::<D3Q19>::new(shape);
            let mut rows = SoaPdfField::<D3Q19>::new(shape);
            be.sweep_pull(collision, &src, &mut dense, rel);
            be.sweep_sparse(collision, &src, &mut rows, &intervals, rel);
            assert_eq!(dense.data(), rows.data(), "{kind:?}/{collision:?}");
        }
    }
}
