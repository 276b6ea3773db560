//! Tier 2: kernels specialized to the D3Q19 model (paper §4.1).
//!
//! Compared to the generic tier, streaming and collision are fused into a
//! single pass over an Array-of-Structures field, pull offsets are
//! precomputed per direction, and the macroscopic-value calculation
//! eliminates common subexpressions: the density and the three momentum
//! components are accumulated from grouped sums, and the `c_q · u` products
//! are shared between antiparallel directions.

use crate::stats::SweepStats;
use trillium_field::{AosPdfField, PdfField};
use trillium_lattice::d3q19::{dir, C, Q, W as WEIGHTS};
use trillium_lattice::{Relaxation, D3Q19};

/// Pull offsets in units of *cells* for each direction: the index of the
/// upwind neighbor is `cell − offset[q]`.
#[inline(always)]
fn pull_offsets(sy: isize, sz: isize) -> [isize; Q] {
    let mut off = [0isize; Q];
    let mut q = 0;
    while q < Q {
        off[q] = C[q][0] as isize + C[q][1] as isize * sy + C[q][2] as isize * sz;
        q += 1;
    }
    off
}

/// Gathers the 19 upwind PDFs of the cell with linear index `cell`.
#[inline(always)]
fn gather(src: &[f64], cell: usize, off: &[isize; Q]) -> [f64; Q] {
    let mut f = [0.0; Q];
    for q in 0..Q {
        let s = (cell as isize - off[q]) as usize * Q + q;
        debug_assert!(s < src.len());
        // SAFETY: `cell` is an interior cell and every pull offset stays
        // within the ghost-padded allocation (|c| <= 1 per axis): both
        // callers `assert!(shape.ghost >= 1)` and loop over the interior
        // only, and `src` holds `Q` values per allocated cell. Unchecked
        // because a checked index costs this tier 12-15 % of its
        // Fig. 3 TRT rate (`reproduce fig3_kernels --json`, 64³ block,
        // best of 3 alternating runs, two rounds, 2-vCPU Intel Xeon host:
        // 15.7 -> 13.4 and 16.5 -> 14.6 MLUP/s).
        f[q] = unsafe { *src.get_unchecked(s) };
    }
    f
}

/// Macroscopic density and velocity with grouped (common-subexpression
/// eliminated) sums.
#[inline(always)]
fn moments(f: &[f64; Q]) -> (f64, [f64; 3]) {
    use dir::*;
    let px = f[E] + f[NE] + f[SE] + f[TE] + f[BE];
    let mx = f[W] + f[NW] + f[SW] + f[TW] + f[BW];
    let py = f[N] + f[NE] + f[NW] + f[TN] + f[BN];
    let my = f[S] + f[SE] + f[SW] + f[TS] + f[BS];
    let pz = f[T] + f[TN] + f[TS] + f[TW] + f[TE];
    let mz = f[B] + f[BN] + f[BS] + f[BW] + f[BE];
    // Density: reuse the axis groups; only the N/S and C terms are missing
    // from the x groups.
    let rho = px + mx + f[N] + f[S] + f[TN] + f[TS] + f[BN] + f[BS] + f[T] + f[B] + f[C];
    let inv = 1.0 / rho;
    (rho, [(px - mx) * inv, (py - my) * inv, (pz - mz) * inv])
}

/// One fused stream–collide sweep with the SRT operator, specialized to
/// D3Q19 in AoS layout.
pub fn stream_collide_srt(
    src: &AosPdfField<D3Q19>,
    dst: &mut AosPdfField<D3Q19>,
    rel: Relaxation,
) -> SweepStats {
    assert!(rel.is_srt(), "SRT kernel requires equal relaxation rates");
    assert_eq!(src.shape(), dst.shape());
    let shape = src.shape();
    assert!(shape.ghost >= 1);
    let region = shape.interior();
    let omega = -rel.lambda_e;
    let off = pull_offsets(shape.stride_y() as isize, shape.stride_z() as isize);
    let s = src.data();
    let d = dst.data_mut();
    let nx = region.x.len();

    for z in region.z.clone() {
        for y in region.y.clone() {
            let row = shape.idx(region.x.start, y, z);
            for x in 0..nx {
                let cell = row + x;
                let f = gather(s, cell, &off);
                let (rho, u) = moments(&f);
                collide_srt_cell(&f, rho, u, omega, &mut d[cell * Q..cell * Q + Q]);
            }
        }
    }
    SweepStats::dense(region.num_cells() as u64)
}

/// SRT collision of one cell.
#[inline(always)]
fn collide_srt_cell(f: &[f64; Q], rho: f64, u: [f64; 3], omega: f64, out: &mut [f64]) {
    let (ux, uy, uz) = (u[0], u[1], u[2]);
    let u2 = ux * ux + uy * uy + uz * uz;
    let base = 1.0 - 1.5 * u2;
    let om1 = 1.0 - omega;
    // Per-weight prefactors.
    let t0 = omega * rho * WEIGHTS[0];
    let t1 = omega * rho * WEIGHTS[1];
    let t2 = omega * rho * WEIGHTS[7];
    #[inline(always)]
    fn term(t: f64, cu: f64, base: f64) -> f64 {
        t * (base + 3.0 * cu + 4.5 * cu * cu)
    }
    use dir::*;
    out[C] = om1 * f[C] + t0 * base;
    out[N] = om1 * f[N] + term(t1, uy, base);
    out[S] = om1 * f[S] + term(t1, -uy, base);
    out[W] = om1 * f[W] + term(t1, -ux, base);
    out[E] = om1 * f[E] + term(t1, ux, base);
    out[T] = om1 * f[T] + term(t1, uz, base);
    out[B] = om1 * f[B] + term(t1, -uz, base);
    // Shared diagonal dot products.
    let xy = ux + uy;
    let xmy = ux - uy;
    let xz = ux + uz;
    let xmz = ux - uz;
    let yz = uy + uz;
    let ymz = uy - uz;
    out[NW] = om1 * f[NW] + term(t2, -xmy, base);
    out[NE] = om1 * f[NE] + term(t2, xy, base);
    out[SW] = om1 * f[SW] + term(t2, -xy, base);
    out[SE] = om1 * f[SE] + term(t2, xmy, base);
    out[TN] = om1 * f[TN] + term(t2, yz, base);
    out[TS] = om1 * f[TS] + term(t2, -ymz, base);
    out[TW] = om1 * f[TW] + term(t2, -xmz, base);
    out[TE] = om1 * f[TE] + term(t2, xz, base);
    out[BN] = om1 * f[BN] + term(t2, ymz, base);
    out[BS] = om1 * f[BS] + term(t2, -yz, base);
    out[BW] = om1 * f[BW] + term(t2, -xz, base);
    out[BE] = om1 * f[BE] + term(t2, xmz, base);
}

/// TRT collision of one cell, shared with the sparse kernels.
#[inline(always)]
pub(crate) fn collide_trt_cell(
    f: &[f64; Q],
    rho: f64,
    u: [f64; 3],
    le: f64,
    lo: f64,
    out: &mut [f64],
) {
    let (ux, uy, uz) = (u[0], u[1], u[2]);
    let u2 = ux * ux + uy * uy + uz * uz;
    let base = 1.0 - 1.5 * u2;
    let t0 = rho * WEIGHTS[0];
    let t1 = rho * WEIGHTS[1];
    let t2 = rho * WEIGHTS[7];

    use dir::*;
    // Rest direction is purely even.
    out[C] = f[C] + le * (f[C] - t0 * base);

    // One antiparallel pair: a carries +cu, b carries −cu.
    #[inline(always)]
    fn pair(
        f: &[f64; Q],
        out: &mut [f64],
        a: usize,
        b: usize,
        t: f64,
        cu: f64,
        base: f64,
        le: f64,
        lo: f64,
    ) {
        let feq_even = t * (base + 4.5 * cu * cu);
        let feq_odd = t * 3.0 * cu;
        let fp = 0.5 * (f[a] + f[b]);
        let fm = 0.5 * (f[a] - f[b]);
        let d_even = le * (fp - feq_even);
        let d_odd = lo * (fm - feq_odd);
        out[a] = f[a] + d_even + d_odd;
        out[b] = f[b] + d_even - d_odd;
    }
    pair(f, out, N, S, t1, uy, base, le, lo);
    pair(f, out, E, W, t1, ux, base, le, lo);
    pair(f, out, T, B, t1, uz, base, le, lo);
    let xy = ux + uy;
    let xmy = ux - uy;
    let xz = ux + uz;
    let xmz = ux - uz;
    let yz = uy + uz;
    let ymz = uy - uz;
    pair(f, out, NE, SW, t2, xy, base, le, lo);
    pair(f, out, SE, NW, t2, xmy, base, le, lo);
    pair(f, out, TN, BS, t2, yz, base, le, lo);
    pair(f, out, BN, TS, t2, ymz, base, le, lo);
    pair(f, out, TE, BW, t2, xz, base, le, lo);
    pair(f, out, BE, TW, t2, xmz, base, le, lo);
}

/// One fused stream–collide sweep with the TRT operator, specialized to
/// D3Q19 in AoS layout.
pub fn stream_collide_trt(
    src: &AosPdfField<D3Q19>,
    dst: &mut AosPdfField<D3Q19>,
    rel: Relaxation,
) -> SweepStats {
    assert_eq!(src.shape(), dst.shape());
    let shape = src.shape();
    assert!(shape.ghost >= 1);
    let region = shape.interior();
    let (le, lo) = (rel.lambda_e, rel.lambda_o);
    let off = pull_offsets(shape.stride_y() as isize, shape.stride_z() as isize);
    let s = src.data();
    let d = dst.data_mut();
    let nx = region.x.len();

    for z in region.z.clone() {
        for y in region.y.clone() {
            let row = shape.idx(region.x.start, y, z);
            for x in 0..nx {
                let cell = row + x;
                let f = gather(s, cell, &off);
                let (rho, u) = moments(&f);
                collide_trt_cell(&f, rho, u, le, lo, &mut d[cell * Q..cell * Q + Q]);
            }
        }
    }
    SweepStats::dense(region.num_cells() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic;
    use trillium_field::Shape;
    use trillium_lattice::MAGIC_TRT;

    fn perturbed_field(shape: Shape) -> AosPdfField<D3Q19> {
        let mut f = AosPdfField::<D3Q19>::new(shape);
        f.fill_equilibrium(1.0, [0.01, -0.02, 0.015]);
        for (i, v) in f.data_mut().iter_mut().enumerate() {
            *v += 5e-4 * (((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5);
        }
        f
    }

    /// The specialized kernel must agree with the generic textbook kernel
    /// to floating-point reassociation tolerance — this is the correctness
    /// anchor of the optimization ladder.
    #[test]
    fn specialized_srt_matches_generic() {
        let shape = Shape::new(5, 4, 3, 1);
        let src = perturbed_field(shape);
        let rel = Relaxation::srt_from_tau(0.83);
        let mut d_spec = AosPdfField::<D3Q19>::new(shape);
        let mut d_gen = AosPdfField::<D3Q19>::new(shape);
        stream_collide_srt(&src, &mut d_spec, rel);
        generic::stream_collide_srt(&src, &mut d_gen, rel);
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                let (a, b) = (d_spec.get(x, y, z, q), d_gen.get(x, y, z, q));
                assert!((a - b).abs() < 1e-14, "q={q} at ({x},{y},{z}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn specialized_trt_matches_generic() {
        let shape = Shape::new(4, 5, 3, 1);
        let src = perturbed_field(shape);
        let rel = Relaxation::trt_from_tau(0.76, MAGIC_TRT);
        let mut d_spec = AosPdfField::<D3Q19>::new(shape);
        let mut d_gen = AosPdfField::<D3Q19>::new(shape);
        stream_collide_trt(&src, &mut d_spec, rel);
        generic::stream_collide_trt(&src, &mut d_gen, rel);
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                let (a, b) = (d_spec.get(x, y, z, q), d_gen.get(x, y, z, q));
                assert!((a - b).abs() < 1e-14, "q={q} at ({x},{y},{z}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn trt_with_equal_rates_matches_srt() {
        let shape = Shape::cube(4);
        let src = perturbed_field(shape);
        let tau = 0.9;
        let half = tau - 0.5;
        let mut d_srt = AosPdfField::<D3Q19>::new(shape);
        let mut d_trt = AosPdfField::<D3Q19>::new(shape);
        stream_collide_srt(&src, &mut d_srt, Relaxation::srt_from_tau(tau));
        stream_collide_trt(&src, &mut d_trt, Relaxation::trt_from_tau(tau, half * half));
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                assert!((d_srt.get(x, y, z, q) - d_trt.get(x, y, z, q)).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn moments_match_reference() {
        let mut f = [0.0; Q];
        for (q, v) in f.iter_mut().enumerate() {
            *v = WEIGHTS[q] + 1e-3 * (q as f64 - 9.0);
        }
        let (rho, u) = moments(&f);
        let rho_ref = trillium_lattice::density::<D3Q19>(&f);
        let j_ref = trillium_lattice::momentum::<D3Q19>(&f);
        assert!((rho - rho_ref).abs() < 1e-14);
        for d in 0..3 {
            assert!((u[d] - j_ref[d] / rho_ref).abs() < 1e-14);
        }
    }
}
