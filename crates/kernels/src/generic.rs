//! Tier 1: the generic, textbook-style stream-pull kernel.
//!
//! Written for arbitrary lattice models through the [`LatticeModel`] trait
//! and arbitrary storage layouts through the [`PdfField`] trait — "a naive,
//! textbook-style implementation of the LB method, very similar to the
//! mathematical formulation" (paper §4.1). Streaming gathers each PDF from
//! the upwind neighbor, then the collision operator relaxes toward
//! equilibrium. No common subexpressions are eliminated and no layout
//! assumptions are made; this is the baseline of Fig. 3.

use crate::stats::SweepStats;
use trillium_field::PdfField;
use trillium_lattice::equilibrium::{equilibrium_even, equilibrium_odd};
use trillium_lattice::{equilibrium, LatticeModel, Relaxation};

/// One fused stream(pull)–collide sweep with the SRT (LBGK) operator over
/// all interior cells. `rel` must satisfy `rel.is_srt()`.
pub fn stream_collide_srt<M: LatticeModel, F: PdfField<M>>(
    src: &F,
    dst: &mut F,
    rel: Relaxation,
) -> SweepStats {
    assert!(rel.is_srt(), "SRT kernel requires equal relaxation rates");
    let omega = -rel.lambda_e;
    let mut f = vec![0.0; M::Q];
    let region = src.shape().interior();
    for (x, y, z) in region.iter() {
        // Streaming: pull each PDF from the upwind neighbor.
        for q in 0..M::Q {
            let c = M::velocities()[q];
            f[q] = src.get(x - c[0] as i32, y - c[1] as i32, z - c[2] as i32, q);
        }
        // Macroscopic values.
        let rho = trillium_lattice::density::<M>(&f);
        let u = {
            let j = trillium_lattice::momentum::<M>(&f);
            [j[0] / rho, j[1] / rho, j[2] / rho]
        };
        // Collision: relax every direction toward equilibrium.
        for q in 0..M::Q {
            let feq = equilibrium::<M>(q, rho, u);
            dst.set(x, y, z, q, f[q] - omega * (f[q] - feq));
        }
    }
    SweepStats::dense(region.num_cells() as u64)
}

/// One fused stream(pull)–collide sweep with the TRT operator over all
/// interior cells. With `λ_e = λ_o` this produces the same result as
/// [`stream_collide_srt`] (paper Eq. 8).
pub fn stream_collide_trt<M: LatticeModel, F: PdfField<M>>(
    src: &F,
    dst: &mut F,
    rel: Relaxation,
) -> SweepStats {
    let (le, lo) = (rel.lambda_e, rel.lambda_o);
    let mut f = vec![0.0; M::Q];
    let region = src.shape().interior();
    for (x, y, z) in region.iter() {
        for q in 0..M::Q {
            let c = M::velocities()[q];
            f[q] = src.get(x - c[0] as i32, y - c[1] as i32, z - c[2] as i32, q);
        }
        let rho = trillium_lattice::density::<M>(&f);
        let u = {
            let j = trillium_lattice::momentum::<M>(&f);
            [j[0] / rho, j[1] / rho, j[2] / rho]
        };
        // Rest direction: purely even.
        let feq0 = equilibrium::<M>(0, rho, u);
        dst.set(x, y, z, 0, f[0] + le * (f[0] - feq0));
        // Antiparallel pairs: split into symmetric and antisymmetric parts.
        for &(a, b) in M::pairs() {
            let fp = 0.5 * (f[a] + f[b]);
            let fm = 0.5 * (f[a] - f[b]);
            let feq_p = equilibrium_even::<M>(a, rho, u);
            let feq_m = equilibrium_odd::<M>(a, rho, u);
            let d_even = le * (fp - feq_p);
            let d_odd = lo * (fm - feq_m);
            dst.set(x, y, z, a, f[a] + d_even + d_odd);
            dst.set(x, y, z, b, f[b] + d_even - d_odd);
        }
    }
    SweepStats::dense(region.num_cells() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_field::{AosPdfField, Shape};
    use trillium_lattice::{D3Q19, MAGIC_TRT};

    /// A uniform equilibrium state is a fixed point of the collision
    /// operator, and with periodic-free interior pulls from an equally
    /// initialized ghost layer it must be exactly preserved.
    #[test]
    fn equilibrium_is_fixed_point_srt() {
        let shape = Shape::cube(4);
        let mut src = AosPdfField::<D3Q19>::new(shape);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.02, -0.01, 0.005]);
        let stats = stream_collide_srt(&src, &mut dst, Relaxation::srt_from_tau(0.8));
        assert_eq!(stats.cells, 64);
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                let (a, b) = (src.get(x, y, z, q), dst.get(x, y, z, q));
                assert!((a - b).abs() < 1e-14, "PDF {q} changed at ({x},{y},{z})");
            }
        }
    }

    #[test]
    fn equilibrium_is_fixed_point_trt() {
        let shape = Shape::cube(4);
        let mut src = AosPdfField::<D3Q19>::new(shape);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(0.95, [0.0, 0.03, -0.02]);
        stream_collide_trt(&src, &mut dst, Relaxation::trt_from_tau(0.7, MAGIC_TRT));
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                assert!((src.get(x, y, z, q) - dst.get(x, y, z, q)).abs() < 1e-14);
            }
        }
    }

    /// TRT with λ_e = λ_o must coincide with SRT bit-for-bit up to rounding
    /// (paper Eq. 8).
    #[test]
    fn trt_reduces_to_srt() {
        let shape = Shape::cube(5);
        let mut src = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.0; 3]);
        // Perturb to a non-equilibrium state.
        for (i, v) in src.data_mut().iter_mut().enumerate() {
            *v += 1e-3 * ((i % 17) as f64 - 8.0) / 8.0;
        }
        let tau = 0.9;
        let srt_rel = Relaxation::srt_from_tau(tau);
        // TRT with the magic parameter chosen so that λ_o = λ_e.
        let half = tau - 0.5;
        let trt_rel = Relaxation::trt_from_tau(tau, half * half);

        let mut dst_srt = AosPdfField::<D3Q19>::new(shape);
        let mut dst_trt = AosPdfField::<D3Q19>::new(shape);
        stream_collide_srt(&src, &mut dst_srt, srt_rel);
        stream_collide_trt(&src, &mut dst_trt, trt_rel);
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                let (a, b) = (dst_srt.get(x, y, z, q), dst_trt.get(x, y, z, q));
                assert!((a - b).abs() < 1e-13, "mismatch at ({x},{y},{z}) q={q}: {a} vs {b}");
            }
        }
    }

    /// Mass is conserved by collision; with an equilibrium ghost layer the
    /// streaming flux through the boundary is balanced too.
    #[test]
    fn collision_conserves_mass_and_momentum_locally() {
        let shape = Shape::cube(3);
        let mut src = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.0; 3]);
        for (i, v) in src.data_mut().iter_mut().enumerate() {
            *v += 1e-4 * ((i % 7) as f64);
        }
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        stream_collide_trt(&src, &mut dst, Relaxation::trt_from_viscosity(0.05));
        // Compare collision invariants cell-by-cell against the pulled
        // (post-streaming, pre-collision) state.
        for (x, y, z) in shape.interior().iter() {
            let mut f = [0.0; 19];
            for q in 0..19 {
                let c = trillium_lattice::d3q19::C[q];
                f[q] = src.get(x - c[0] as i32, y - c[1] as i32, z - c[2] as i32, q);
            }
            let rho_pre = trillium_lattice::density::<D3Q19>(&f);
            let j_pre = trillium_lattice::momentum::<D3Q19>(&f);
            let rho_post = dst.density(x, y, z);
            let u_post = dst.velocity(x, y, z);
            assert!((rho_pre - rho_post).abs() < 1e-13);
            for d in 0..3 {
                assert!((j_pre[d] - rho_post * u_post[d]).abs() < 1e-13);
            }
        }
    }

    /// Streaming actually moves PDFs: a pulse in direction E at one cell
    /// must arrive at the +x neighbor after one sweep.
    #[test]
    fn streaming_transports_pdfs() {
        use trillium_lattice::d3q19::dir;
        let shape = Shape::cube(4);
        let mut src = AosPdfField::<D3Q19>::new(shape);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.0; 3]);
        let bump = 0.01;
        let base = src.get(1, 1, 1, dir::E);
        src.set(1, 1, 1, dir::E, base + bump);
        // With tau = 1 the post-collision state equals the equilibrium of
        // the pulled values; easier: use tau very large => collision ~ none.
        stream_collide_srt(&src, &mut dst, Relaxation::srt_from_tau(1e12));
        // The bumped PDF traveled east to (2,1,1).
        let received = dst.get(2, 1, 1, dir::E);
        let neighbor = dst.get(3, 1, 1, dir::E);
        assert!(received > neighbor + bump * 0.9, "pulse did not arrive");
    }
}
