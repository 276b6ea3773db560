//! Tier 4: single-buffer in-place stream–collide (the AA pattern).
//!
//! The two-field pull scheme of [`crate::soa`]/[`crate::avx`] moves three
//! cache lines per PDF and cell update: the load from `src`, the store to
//! `dst` and the write-allocate of the `dst` line. The AA pattern (Bailey
//! et al.) updates a *single* buffer and thereby drops the write-allocate
//! stream entirely — every store hits a line the sweep just loaded — for
//! 38 instead of 57 cache lines per eight-cell work unit (see
//! `trillium_perfmodel::ecm`).
//!
//! # Storage parities
//!
//! The trick is to let the storage convention alternate between steps
//! (tracked by [`SoaPdfField::parity`]):
//!
//! * **transport sweep** (even step, parity 0 → 1): the buffer is in
//!   canonical layout. Cell `x` *pulls* `f_q = buf[x − c_q][q]` — exactly
//!   the reads of the pull kernels — collides, and stores the
//!   post-collision `f̃_q(x)` to `buf[x + c_q][q̄]`: one hop downstream in
//!   the *opposite* direction's grid. Afterwards the logical value
//!   `(x, q)` lives at storage slot `(x + c_q, q̄)`.
//! * **local sweep** (odd step, parity 1 → 0): cell `x` finds its
//!   streamed-in populations *in place* — `f_q(x) = buf[x][q̄]` — collides
//!   entirely cell-locally and stores `f̃_q(x)` back to the canonical slot
//!   `buf[x][q]`, restoring parity 0.
//!
//! Storage slot `(w, p)` is read by exactly one cell (`w + c_p`) and
//! written by exactly that same cell in either sweep, so any cell order
//! and any partition of the interior into regions produces bitwise
//! identical results — the same property the workgroup tiling relies on
//! for the pull tiers.
//!
//! # Bitwise equivalence with the pull reference
//!
//! The row driver here hands each collision operator ([`crate::soa`]'s
//! `Collide`: the TRT/SRT pair passes, or the per-cell MRT routine) the
//! same streamed-in values per cell as the pull driver of [`crate::soa`],
//! and the operator performs the *identical* sequence of floating-point
//! operations on them in either form; like the pull driver, it is written
//! once and instantiated per instruction set. Only load/store *addresses*
//! differ, so an in-place run is bitwise identical to a pull run step for
//! step — the equivalence the backend and driver tests assert.
//!
//! Every address is a checked slice index: `InplaceRun` hands an operator
//! the runs of a row as disjoint `&mut [f64]` slices, and the operator
//! reads all populations of a cell before it overwrites their slots.
//!
//! The kernels never flip [`SoaPdfField::parity`] themselves: the owner of
//! the step (e.g. `trillium-core`'s `BlockSim`) flips the flag exactly once
//! after the sweep, which the benchmark's split-cost probe and the
//! partition tests may still cut into regions.

use crate::soa::{per_isa, pull_offsets, Collide, Isa, RowScratch, Srt, Trt};
use crate::stats::SweepStats;
use trillium_field::{PdfField, Region, SoaPdfField};
use trillium_lattice::d3q19::{INVERSE, PAIRS, Q};
use trillium_lattice::{Relaxation, D3Q19};

/// One full in-place TRT sweep over the interior. Reads the sweep variant
/// (transport vs. local) from the field's current [`SoaPdfField::parity`];
/// the caller flips the parity afterwards. Runs the AVX2+FMA instance
/// where the CPU has it.
pub fn stream_collide_trt(f: &mut SoaPdfField<D3Q19>, rel: Relaxation) -> SweepStats {
    let region = f.shape().interior();
    sweep_inplace(Isa::Avx2Fma, Trt::new(rel), f, &region)
}

/// One full in-place SRT sweep over the interior (same parity contract as
/// [`stream_collide_trt`]).
pub fn stream_collide_srt(f: &mut SoaPdfField<D3Q19>, rel: Relaxation) -> SweepStats {
    let region = f.shape().interior();
    sweep_inplace(Isa::Avx2Fma, Srt::new(rel), f, &region)
}

/// One x-run of an in-place sweep: the `n` cells from linear index `base`
/// inside the single buffer `lines`, at the field's storage parity.
///
/// Parity 0 (transport): `f_q` is read pull-identically from `(x − c_q, q)`.
/// Parity 1 (local): `f_q` is read in place from `(x, q̄)`. At either parity
/// an operator stores `f̃_q̄` over the slot `f_q` came from — the two
/// populations of a pair swap slots, so `f̃_a(x)` lands on `(x + c_a, ā)` at
/// parity 0 and on the canonical `(x, a)` at parity 1. Operators see runs,
/// never the parity.
pub(crate) struct InplaceRun<'r, 'f> {
    lines: &'r mut [&'f mut [f64]; Q],
    parity: bool,
    off: &'r [isize; Q],
    base: usize,
    n: usize,
}

impl InplaceRun<'_, '_> {
    /// Cells in the run.
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The run holding the streamed-in `f_q`.
    #[inline(always)]
    pub(crate) fn run(&self, q: usize) -> &[f64] {
        let (line, start) = if self.parity {
            (INVERSE[q], self.base)
        } else {
            (q, (self.base as isize - self.off[q]) as usize)
        };
        &self.lines[line][start..start + self.n]
    }

    /// The run of the rest direction, its own slot at either parity.
    #[inline(always)]
    pub(crate) fn rest(&mut self) -> &mut [f64] {
        &mut self.lines[0][self.base..self.base + self.n]
    }

    /// The runs holding `f_a` and `f_ā` of the antiparallel pair `(a, ā)`,
    /// `a < ā`.
    #[inline(always)]
    pub(crate) fn pair(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        let (base, n) = (self.base, self.n);
        let (lo_half, hi_half) = self.lines.split_at_mut(b);
        let (line_a, line_b) = (&mut *lo_half[a], &mut *hi_half[0]);
        if self.parity {
            (&mut line_b[base..base + n], &mut line_a[base..base + n])
        } else {
            let (ia, ib) =
                ((base as isize - self.off[a]) as usize, (base as isize + self.off[a]) as usize);
            (&mut line_a[ia..ia + n], &mut line_b[ib..ib + n])
        }
    }

    /// All runs at once: `r[q]` holds `f_q`.
    #[inline(always)]
    pub(crate) fn runs(&mut self) -> [&mut [f64]; Q] {
        let mut r: [&mut [f64]; Q] = Default::default();
        for (q, (run, line)) in r.iter_mut().zip(self.lines.iter_mut()).enumerate() {
            let start =
                if self.parity { self.base } else { (self.base as isize - self.off[q]) as usize };
            *run = &mut line[start..start + self.n];
        }
        if self.parity {
            // `f_q` sits in line q̄: swap the runs of every antiparallel pair.
            for &(a, b) in PAIRS.iter() {
                r.swap(a, b);
            }
        }
        r
    }
}

per_isa! {
    /// The in-place sweep of `op` over the rows of `region` (a subset of
    /// the interior), at the field's current parity. Sweeping a partition
    /// of the interior region by region is bitwise identical to one full
    /// sweep (slot-ownership argument in the module docs).
    pub(crate) fn sweep_inplace<P: Collide>(
        op: P,
        f: &mut SoaPdfField<D3Q19>,
        region: &Region,
    ) -> SweepStats {
        let (shape, parity) = (f.shape(), f.parity());
        assert!(shape.ghost >= 1);
        assert!(f.rows().is_none(), "the in-place sweep runs on box storage");
        debug_assert_eq!(region.intersect(&shape.interior()), region.clone());
        let n = region.x.len();
        if n == 0 {
            return SweepStats::dense(0);
        }
        let off = pull_offsets(&shape);
        let mut lines: [&mut [f64]; Q] = f.dirs_mut();
        let mut scr = RowScratch::take(n);
        for z in region.z.clone() {
            for y in region.y.clone() {
                let base = shape.idx(region.x.start, y, z);
                let mut run = InplaceRun { lines: &mut lines, parity, off: &off, base, n };
                op.inplace_run(&mut run, &mut scr);
            }
        }
        scr.put_back();
        SweepStats::dense(region.num_cells() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{apply_boundaries, BoundaryParams};
    use crate::{avx, BackendKind, Collision};
    use trillium_field::{CellFlags, FlagField, FlagOps, PdfField, Shape};
    use trillium_lattice::MAGIC_TRT;

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

    /// A fully enclosed no-slip box (ghost layer = wall).
    fn boxed_flags(shape: Shape) -> FlagField {
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
        for (x, y, z) in shape.with_ghosts().iter() {
            if !shape.is_interior(x, y, z) {
                flags.set_flags(x, y, z, CellFlags::NOSLIP);
            }
        }
        flags
    }

    /// The transport sweep reads exactly what the pull kernel reads, so a
    /// single in-place step must be bitwise identical to one pull step —
    /// observed through the parity-mapped accessors.
    #[test]
    fn transport_sweep_matches_one_pull_step_bitwise() {
        let shape = Shape::new(13, 5, 4, 1); // odd nx exercises the tail
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_tau(0.81, MAGIC_TRT);

        let mut pull_dst = SoaPdfField::<D3Q19>::new(shape);
        avx::stream_collide_trt(&src, &mut pull_dst, rel);

        let mut aa = src.clone();
        stream_collide_trt(&mut aa, rel);
        aa.set_parity(true);

        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                assert_eq!(
                    aa.get(x, y, z, q).to_bits(),
                    pull_dst.get(x, y, z, q).to_bits(),
                    "q={q} at ({x},{y},{z})"
                );
            }
        }
    }

    /// Multi-step equivalence through both parities, with the boundary
    /// sweep running through the parity-mapped accessors each step.
    fn multi_step_matches_pull(collision: Collision) {
        let shape = Shape::new(9, 6, 5, 1);
        let flags = boxed_flags(shape);
        let params = BoundaryParams { wall_velocity: [0.04, 0.0, -0.01], ..Default::default() };
        let rel = match collision {
            Collision::Srt => Relaxation::srt_from_tau(0.9),
            _ => Relaxation::trt_from_tau(0.85, MAGIC_TRT),
        };

        let mut pull_src = perturbed(shape);
        let mut pull_dst = SoaPdfField::<D3Q19>::new(shape);
        let mut aa = pull_src.clone();

        for step in 0..6u64 {
            apply_boundaries::<D3Q19, _>(&mut pull_src, &flags, &params);
            match collision {
                Collision::Trt => avx::stream_collide_trt(&pull_src, &mut pull_dst, rel),
                Collision::Srt => avx::stream_collide_srt(&pull_src, &mut pull_dst, rel),
                c => panic!("{c:?} not exercised by this test"),
            };
            pull_src.swap(&mut pull_dst);

            apply_boundaries::<D3Q19, _>(&mut aa, &flags, &params);
            match collision {
                Collision::Trt => stream_collide_trt(&mut aa, rel),
                Collision::Srt => stream_collide_srt(&mut aa, rel),
                c => panic!("{c:?} not exercised by this test"),
            };
            aa.set_parity(!aa.parity());

            for (x, y, z) in shape.interior().iter() {
                for q in 0..19 {
                    assert_eq!(
                        aa.get(x, y, z, q).to_bits(),
                        pull_src.get(x, y, z, q).to_bits(),
                        "step {step} q={q} at ({x},{y},{z})"
                    );
                }
            }
        }
    }

    #[test]
    fn inplace_trt_matches_pull_over_both_parities() {
        multi_step_matches_pull(Collision::Trt);
    }

    #[test]
    fn inplace_srt_matches_pull_over_both_parities() {
        multi_step_matches_pull(Collision::Srt);
    }

    /// Region-partitioned sweeps (interior core + shell slabs) are bitwise
    /// identical to one full sweep — at both parities.
    #[test]
    fn region_partition_is_bitwise_identical() {
        let shape = Shape::new(11, 6, 5, 1);
        let rel = Relaxation::trt_from_tau(0.77, MAGIC_TRT);
        let mut whole = perturbed(shape);
        let mut split = whole.clone();

        for parity in [false, true] {
            whole.set_parity(parity);
            split.set_parity(parity);
            stream_collide_trt(&mut whole, rel);
            let be = BackendKind::Avx2.dispatch();
            let mut cells = 0;
            for r in std::iter::once(shape.interior_core(1)).chain(shape.shell_regions(1)) {
                cells += be.sweep_inplace_region(Collision::Trt, &mut split, rel, &r).cells;
            }
            assert_eq!(cells, shape.interior_cells() as u64);
            assert_eq!(whole.data(), split.data(), "parity {parity}");
        }
    }
}
