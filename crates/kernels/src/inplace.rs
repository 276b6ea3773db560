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
//! The row body here performs, per lattice cell, the *identical* sequence
//! of floating-point operations as the pull row body of [`crate::soa`]: it
//! shares that module's moment passes and per-pair collision
//! ([`crate::soa`]'s `Collide`) and, like it, is written once and
//! instantiated per instruction set. Only load/store *addresses* differ, so
//! an in-place run is bitwise identical to a pull run step for step — the
//! equivalence the backend and driver tests assert.
//!
//! Every address is a checked slice index: the pair pass borrows the two
//! lines of an antiparallel pair as disjoint `&mut [f64]` runs, reads both
//! populations of a cell and then overwrites both slots.
//!
//! The kernels never flip [`SoaPdfField::parity`] themselves: a full
//! interior update may be split across region calls (interior core +
//! shell), so the owner of the step (e.g. `trillium-core`'s `BlockSim`)
//! flips the flag exactly once after the last region of a sweep.

use crate::soa::{
    moment_passes, pair_pass_inplace, per_isa, pull_offsets, rest_pass_inplace, velocity_weight,
    Collide, Isa, RowScratch, Srt, Trt,
};
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
    stream_collide_trt_region(f, rel, &region)
}

/// [`stream_collide_trt`] restricted to `region` (a subset of the
/// interior). Sweeping a partition of the interior region by region is
/// bitwise identical to one full sweep (slot-ownership argument in the
/// module docs).
pub fn stream_collide_trt_region(
    f: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
    region: &Region,
) -> SweepStats {
    trt(Isa::Avx2Fma, f, rel, region)
}

/// One full in-place SRT sweep over the interior (same parity contract as
/// [`stream_collide_trt`]).
pub fn stream_collide_srt(f: &mut SoaPdfField<D3Q19>, rel: Relaxation) -> SweepStats {
    let region = f.shape().interior();
    stream_collide_srt_region(f, rel, &region)
}

/// [`stream_collide_srt`] restricted to `region`; see
/// [`stream_collide_trt_region`] for the partition guarantee.
pub fn stream_collide_srt_region(
    f: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
    region: &Region,
) -> SweepStats {
    srt(Isa::Avx2Fma, f, rel, region)
}

/// The in-place row body: stream–collide of the `n` cells starting at
/// linear index `base` inside the single buffer `lines`.
///
/// Parity 0 (transport): loads are pull-identical; `f̃_a(x)` goes to
/// `(x + c_a, ā)` — the slot `f_ā` was just loaded from — and vice versa.
/// Parity 1 (local): loads are the unshifted inverse lines and stores
/// restore the canonical slots. At either parity the two populations of a
/// pair swap slots, so one loop serves both; only the runs differ.
#[inline(always)]
fn inplace_row<P: Collide>(
    op: P,
    lines: &mut [&mut [f64]; Q],
    parity: bool,
    off: &[isize; Q],
    base: usize,
    n: usize,
    scr: &mut RowScratch,
) {
    let m = {
        let mut s: [&[f64]; Q] = [&[]; Q];
        for q in 0..Q {
            let (line, start) =
                if parity { (INVERSE[q], base) } else { (q, (base as isize - off[q]) as usize) };
            s[q] = &lines[line][start..start + n];
        }
        moment_passes(&s, n, scr)
    };

    // Rest direction: the canonical slot at either parity.
    rest_pass_inplace(op, &mut lines[0][base..base + n], m);
    for &(a, b) in PAIRS.iter() {
        debug_assert!(a < b);
        let (lo_half, hi_half) = lines.split_at_mut(b);
        let (line_a, line_b) = (&mut *lo_half[a], &mut *hi_half[0]);
        // `pa` holds f_a and receives f̃_ā; `pb` holds f_ā and receives f̃_a.
        let (pa, pb) = if parity {
            (&mut line_b[base..base + n], &mut line_a[base..base + n])
        } else {
            let (ia, ib) = ((base as isize - off[a]) as usize, (base as isize + off[a]) as usize);
            (&mut line_a[ia..ia + n], &mut line_b[ib..ib + n])
        };
        pair_pass_inplace(op, velocity_weight(a), pa, pb, m);
    }
}

/// The in-place sweep over the rows of `region` (a subset of the
/// interior), at the field's current parity.
#[inline(always)]
fn sweep_inplace<P: Collide>(op: P, f: &mut SoaPdfField<D3Q19>, region: &Region) -> SweepStats {
    let (shape, parity) = (f.shape(), f.parity());
    assert!(shape.ghost >= 1);
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
            inplace_row(op, &mut lines, parity, &off, base, n, &mut scr);
        }
    }
    scr.put_back();
    SweepStats::dense(region.num_cells() as u64)
}

per_isa! {
    /// In-place TRT sweep over the rows of `region`, compiled for `isa`.
    pub(crate) fn trt(f: &mut SoaPdfField<D3Q19>, rel: Relaxation, region: &Region) -> SweepStats {
        sweep_inplace(Trt::new(rel), f, region)
    }
}

per_isa! {
    /// In-place SRT (by-direction form) sweep over the rows of `region`,
    /// compiled for `isa`.
    pub(crate) fn srt(f: &mut SoaPdfField<D3Q19>, rel: Relaxation, region: &Region) -> SweepStats {
        sweep_inplace(Srt::new(rel), f, region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{apply_boundaries, BoundaryParams};
    use crate::{avx, Collision};
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
            let mut cells =
                stream_collide_trt_region(&mut split, rel, &shape.interior_core(1)).cells;
            for r in shape.shell_regions(1) {
                cells += stream_collide_trt_region(&mut split, rel, &r).cells;
            }
            assert_eq!(cells, shape.interior_cells() as u64);
            assert_eq!(whole.data(), split.data(), "parity {parity}");
        }
    }
}
